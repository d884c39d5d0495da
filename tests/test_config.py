import os
import subprocess
import sys

import pytest

import thermokernel
from thermokernel.config import Tolerances, _from_env


def test_defaults():
    tol = _from_env(None)
    assert tol == Tolerances()
    assert tol.state_atol == 1e-12
    assert tol.quad_max_depth == 30


def test_named_overrides():
    tol = _from_env("quad_tol=1e-12, state_atol=1e-13")
    assert tol.quad_tol == 1e-12
    assert tol.state_atol == 1e-13
    assert tol.first_law_rtol == 1e-9  # untouched tiers keep their defaults


def test_global_multiplier():
    tol = _from_env("10")
    assert tol.state_atol == pytest.approx(1e-11)
    assert tol.quad_tol == pytest.approx(1e-9)
    assert tol.quad_max_depth == 30  # depth is not a tolerance


def test_unknown_tier_rejected():
    with pytest.raises(ValueError):
        _from_env("bogus=1")


@pytest.mark.parametrize(
    "raw",
    ["quad_tol=abc", "quad_tol=-1", "quad_tol=0", "quad_tol=nan", "quad_tol=inf",
     "quad_max_depth=x", "quad_max_depth=0", "quad_max_depth=2.5", "abc", "-1", "1e-320"],
)
def test_bad_values_rejected(raw):
    with pytest.raises(ValueError):
        _from_env(raw)


def _verify_scaling(raw):
    src = os.path.dirname(os.path.dirname(thermokernel.__file__))
    env = dict(os.environ, THERMOKERNEL_TOL=raw, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "thermokernel.cli", "verify", "scaling"],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("raw", ["quad_tol=abc", "quad_max_depth=x", "bogus=1", "quad_tol=-1", "abc"])
def test_cli_reports_bad_env_in_one_line(raw):
    out = _verify_scaling(raw)
    assert out.returncode == 2
    assert out.stdout.startswith("bad THERMOKERNEL_TOL: ") and len(out.stdout.splitlines()) == 1
    assert out.stderr == ""


def test_verify_engine_error_exits_3_in_one_line():
    # a valid tier that makes the default reference state (1, 1) fall below the floor
    out = _verify_scaling("numeric_floor=2")
    assert out.returncode == 3
    assert out.stdout.startswith("ENGINE ERROR: DomainError: ")
    assert len(out.stdout.splitlines()) == 1
    assert out.stderr == ""


def _python(raw, code):
    src = os.path.dirname(os.path.dirname(thermokernel.__file__))
    env = dict(os.environ, THERMOKERNEL_TOL=raw, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_gas_state_reads_the_floor_tier():
    out = _python("numeric_floor=2", """
from thermokernel.errors import DomainError
from thermokernel.gas import GasState
for p, V in ((1.5, 3), (3, 1.5), (1.5, 3)):
    try:
        GasState(p, V)
    except DomainError as exc:
        print(exc)
print(GasState(2.5, 3))
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "gas state (1.5, 3) below the positive floor",
        "gas state (3, 1.5) below the positive floor",
        "gas state (1.5, 3) below the positive floor",
        "GasState(p=2.5, V=3)",
    ]


def test_malformed_tier_fails_on_first_use_not_at_import():
    out = _python("numeric_floor=x", """
import thermokernel, thermokernel.gas, thermokernel.suites, thermokernel.scenario, thermokernel.cli
print("imported")
for _ in range(2):
    try:
        thermokernel.gas.GasState(1.0, 1.0)
    except ValueError as exc:
        print(exc)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["imported"] + [
        "numeric_floor must be a finite number > 0, got 'x'"] * 2
