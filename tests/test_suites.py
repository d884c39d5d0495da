"""A NaN observation fails its check instead of being folded away."""

import dataclasses
import math

import pytest

from thermokernel import suites
from thermokernel.config import fold_worst
from thermokernel.energy import check_first_law
from thermokernel.gas import GasModel, GasPlanner, GasState
from thermokernel.scaling import UVState, check_concavity, entropy_uv


def _poison_call(monkeypatch, name, index, poison):
    """Replace the result of call number ``index`` of ``suites.<name>`` by ``poison(result)``."""
    real = getattr(suites, name)
    calls = []

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        return poison(out) if len(calls) - 1 == index else out

    monkeypatch.setattr(suites, name, wrapped)


def _fails_only(report, label):
    """The check ``label`` fails with a ``nan`` detail and every other check passes."""
    (check,) = [c for c in report.checks if c.label == label]
    assert not check.passed and "nan" in check.detail
    assert all(c.passed for c in report.checks if c is not check)


@pytest.mark.parametrize("values", [(math.nan, 1.0, 2.0), (1.0, math.nan, 2.0), (1.0, 2.0, math.nan)])
@pytest.mark.parametrize("pick", [min, max])
def test_fold_worst_keeps_a_nan_wherever_it_comes(pick, values):
    assert math.isnan(fold_worst(pick, *values))


def test_fold_worst_picks_among_finite_values():
    assert fold_worst(max, 1.0, -math.inf, 3.0) == 3.0
    assert fold_worst(min, 1.0, -math.inf, 3.0) == -math.inf


# In suite_entropy_theorem every fourth process (i % 4 == 0) is reversible.
@pytest.mark.parametrize("index, label", [
    (0, "reversible work processes keep entropy fixed"),
    (1, "work processes never lower entropy"),
    (6, "work processes never lower entropy"),
])
def test_entropy_theorem_suite_fails_on_a_nan_delta(monkeypatch, index, label):
    _poison_call(monkeypatch, "check_entropy_theorem", index,
                 lambda v: dataclasses.replace(v, delta_s=math.nan))
    _fails_only(suites.suite_entropy_theorem(seed=3, n=8), label)


# In suite_clausius even cycles are reversible, odd ones carry friction.
@pytest.mark.parametrize("index, label", [
    (0, "all-reversible cycles sum to zero"),
    (2, "all-reversible cycles sum to zero"),
    (1, "friction makes the sum strictly negative"),
    (3, "friction makes the sum strictly negative"),
])
def test_clausius_suite_fails_on_a_nan_sum(monkeypatch, index, label):
    _poison_call(monkeypatch, "clausius_sum", index, lambda total: math.nan)
    _fails_only(suites.suite_clausius(seed=3, cycles=6), label)


@pytest.mark.parametrize("index", [0, 4])
def test_concavity_fails_on_a_nan_gap(index):
    calls = []

    def entropy_fn(base, u, v):
        calls.append(None)
        return math.nan if len(calls) - 1 == index else entropy_uv(base, u, v)

    pairs = [(UVState(1.0, 1.0), UVState(2.0, 3.0)), (UVState(0.5, 2.0), UVState(3.0, 1.0))]
    report = check_concavity(GasModel(), pairs, entropy_fn=entropy_fn)
    assert not report.passed
    assert math.isnan(report.min_slack)


@pytest.mark.parametrize("at", [0, 1, 3])
def test_first_law_fails_on_a_nan_work_total(monkeypatch, gas, at):
    """A NaN among the plan totals is a violation, wherever it sits."""
    real_routes = GasPlanner.routes

    class NanLeg:
        def work_between(self, atom, lo, hi):
            return math.nan

    def routes(self, a, b, count=3):
        forward, plans = real_routes(self, a, b, count)
        assert len(plans) == 3
        return forward, plans[:at] + [[NanLeg()]] + plans[at:]

    monkeypatch.setattr(GasPlanner, "routes", routes)
    report = check_first_law(GasPlanner(gas), [(GasState(1, 1), GasState(2, 3))])
    assert not report.passed
