import dataclasses
import os
import subprocess
import sys

import pytest

import thermokernel
from thermokernel import gas
from thermokernel.cli import main
from thermokernel.config import Tolerances, _from_env


def test_defaults():
    tol = _from_env(None)
    assert tol == Tolerances() == _from_env("")
    assert tol.state_atol == 1e-12
    assert all(type(getattr(tol, f.name)) is float for f in dataclasses.fields(tol))


def test_global_multiplier():
    tol = _from_env("10")
    for f in dataclasses.fields(Tolerances):
        assert getattr(tol, f.name) == f.default * 10


@pytest.mark.parametrize(
    "raw",
    ["quad_tol=abc", "quad_tol=-1", "quad_tol=0", "quad_tol=nan", "quad_tol=inf",
     "quad_max_depth=x", "quad_max_depth=0", "quad_max_depth=2.5", "abc", "-1", "1e-320",
     "quad_tol=1e-12", "bogus=1", "0", "nan", "inf"],
)
def test_bad_values_rejected(raw):
    """Anything but one finite multiplier > 0 that keeps every tier finite and > 0."""
    with pytest.raises(ValueError):
        _from_env(raw)


def _python(raw, *args):
    src = os.path.dirname(os.path.dirname(thermokernel.__file__))
    env = dict(os.environ, THERMOKERNEL_TOL=raw, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("raw", ["quad_tol=abc", "quad_max_depth=x", "bogus=1", "quad_tol=-1", "abc",
                                 "quad_tol=1e-12"])
def test_cli_reports_bad_env_in_one_line(raw):
    out = _python(raw, "-m", "thermokernel.cli", "verify", "scaling")
    assert out.returncode == 2
    assert out.stdout.startswith("bad THERMOKERNEL_TOL: ") and len(out.stdout.splitlines()) == 1
    assert out.stderr == ""


def test_verify_engine_error_exits_3_in_one_line(monkeypatch, capsys):
    # a floor that puts the default reference state (1, 1) outside the domain
    monkeypatch.setattr(gas, "FLOOR", 2.0)
    assert main(["verify", "scaling"]) == 3
    out, err = capsys.readouterr()
    assert out.startswith("ENGINE ERROR: DomainError: ")
    assert len(out.splitlines()) == 1
    assert err == ""


def test_multiplier_does_not_move_the_floor():
    out = _python("1000", "-c", """
from thermokernel.config import tolerances
from thermokernel.errors import DomainError
from thermokernel.gas import GasState
print(tolerances().state_atol)
print(GasState(2e-12, 1.0))
try:
    GasState(1e-12, 1.0)
except DomainError as exc:
    print(exc)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "1e-09",
        "GasState(p=2e-12, V=1.0)",
        "gas state (1e-12, 1.0) below the positive floor",
    ]


def test_malformed_tier_fails_on_first_use_not_at_import():
    out = _python("x", "-c", """
import importlib, math, pkgutil, thermokernel
for module in pkgutil.iter_modules(thermokernel.__path__):
    importlib.import_module(f"thermokernel.{module.name}")
print("imported")
print(thermokernel.gas.GasState(1.0, 1.0))
for _ in range(2):
    try:
        thermokernel.quadrature.adaptive_simpson(math.exp, 0.0, 1.0)
    except ValueError as exc:
        print(exc)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["imported", "GasState(p=1.0, V=1.0)"] + [
        "the multiplier must be a finite number > 0, got 'x'"] * 2
