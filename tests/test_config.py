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
