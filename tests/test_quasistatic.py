import math
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermokernel import quasistatic
from thermokernel.errors import DomainError, OutOfDomain, StateMismatch, ToleranceNotMet
from thermokernel.gas import (
    FrictionSegment,
    GasState,
    add_ideal_gas,
    check_qs_postulates,
    gas_T,
    gas_U,
    qs_tangent_sets,
    type1,
    type2,
    type3,
)
from thermokernel.processes import classify, concatenate
from thermokernel.quadrature import adaptive_simpson
from thermokernel.quasistatic import QuasistaticFamily
from thermokernel.reservoirs import add_reservoir
from thermokernel.systems import World

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_slice_whole_interval_matches_endpoints(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    p = fam.slice(0.0, 1.0)
    assert p.initial_of(gas.atom) == GasState(1, 1)
    assert p.final_of(gas.atom).V == 2.0


def test_slice_point_is_identity(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    p = fam.slice(0.3, 0.3)
    assert p.initial_of(gas.atom) == p.final_of(gas.atom)
    assert p.work_on(gas.atom) == 0.0


def test_slice_bounds_validated(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    for between in (fam.slice, partial(fam.work_between, gas.atom),
                    partial(fam.heat_between, gas.atom)):
        for lo, hi in ((0.7, 0.2), (-0.1, 0.5), (2.0, 5.0), (-1.0, 0.0), (0.0, 2.0),
                       (math.nan, 0.5), (0.0, math.nan)):
            with pytest.raises(OutOfDomain):
                between(lo, hi)


@settings(max_examples=30, deadline=None)
@given(a=unit, b=unit, c=unit)
def test_slice_additivity_random_partitions(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    world = World()
    gas = add_ideal_gas(world)
    fam = type2(gas, GasState(1.3, 0.7), 2.1)
    whole = fam.slice(lo, hi).work_on(gas.atom)
    split = fam.slice(lo, mid).work_on(gas.atom) + fam.slice(mid, hi).work_on(gas.atom)
    assert split == pytest.approx(whole, abs=1e-10)


def test_slices_concatenate_exactly(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    first = fam.slice(0.0, 0.4)
    second = fam.slice(0.4, 1.0)
    total = concatenate(first, second)
    assert total.same_footprint(fam.slice(0.0, 1.0))


def test_continuity_of_states_and_work(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    lam = 0.5
    prev_gap = None
    for eps in (1e-1, 1e-3, 1e-5):
        s1 = fam.state_at(lam)[gas.atom]
        s2 = fam.state_at(lam + eps)[gas.atom]
        gap = abs(s1.p - s2.p) + abs(s1.V - s2.V)
        w = abs(fam.work_between(gas.atom, lam, lam + eps))
        if prev_gap is not None:
            assert gap < prev_gap
        assert w < 10 * eps
        prev_gap = gap


def test_concat_forward_then_reverse_is_cyclic(gas):
    ad = type2(gas, GasState(1, 1), 2.0)
    back = type2(gas, ad.state_at(1.0)[gas.atom], 1.0)
    p = concatenate(ad.slice(0.0, 1.0), back.slice(0.0, 1.0))
    assert classify(gas.system, p).catalytic
    assert abs(p.work_on(gas.atom)) < 1e-10


def test_concat_rejects_mismatched_endpoints(gas):
    ad = type2(gas, GasState(1, 1), 2.0)
    other = type2(gas, GasState(3, 3), 1.0)
    with pytest.raises(StateMismatch):
        concatenate(ad.slice(0.0, 1.0), other.slice(0.0, 1.0))


def _rate_at(rate, lam):
    """A rate's value at ``lam``: no rate is 0, a float is itself, and a function is called."""
    if rate is None:
        return 0.0
    return rate(lam) if callable(rate) else rate


def test_work_and_heat_rates_decompose_energy_change(gas):
    """Finite differences of U along a family match work + heat rates."""
    res = add_reservoir(gas.world, 1.0)
    cases = [
        type1(gas, GasState(1, 1), 2.0),
        type2(gas, GasState(1, 1), 2.0),
        type3(gas, res, GasState(1, 1), 2.0),
    ]
    h = 1e-6
    for fam in cases:
        for lam in (0.25, 0.5, 0.75):
            u_plus = gas_U(gas.model, fam.state_at(lam + h)[gas.atom])
            u_minus = gas_U(gas.model, fam.state_at(lam - h)[gas.atom])
            du = (u_plus - u_minus) / (2 * h)
            w = _rate_at(fam.work_rate(gas.atom), lam)
            q = _rate_at(fam.heat_rate(gas.atom), lam)
            assert du == pytest.approx(w + q, rel=1e-6, abs=1e-9)


def _constant_legs(gas, rng, n):
    """``n`` random friction and isotherm legs with their constant rates."""
    legs = []
    for i in range(n):
        s = GasState(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        if i % 2:
            legs.append((type1(gas, s, s.p * rng.uniform(1.01, 3.0)), (gas.atom,), ()))
        else:
            res = add_reservoir(gas.world, gas_T(gas.model, s))
            fam = type3(gas, res, s, s.V * rng.uniform(0.3, 3.0))
            legs.append((fam, (gas.atom,), (gas.atom, res.atom)))
    return legs


def test_constant_rates_integrate_exactly_within_4_ulps_of_quadrature(gas):
    rng = random.Random(7)
    for fam, work_atoms, heat_atoms in _constant_legs(gas, rng, 200):
        lo, hi = sorted((rng.random(), rng.random()))
        for between, rate_of, atoms in ((fam.work_between, fam.work_rate, work_atoms),
                                        (fam.heat_between, fam.heat_rate, heat_atoms)):
            for atom in atoms:
                rate = rate_of(atom)
                assert type(rate) is float
                for a, b in ((0.0, 1.0), (lo, hi)):
                    exact = between(atom, a, b)
                    assert exact == rate * (b - a)
                    quadrature = adaptive_simpson(lambda lam: rate, a, b)
                    assert abs(exact - quadrature) <= 4 * math.ulp(exact)


def test_constant_rates_call_no_quadrature(gas, monkeypatch):
    calls = []

    def counted(f, *args, **kwargs):
        calls.append(f)
        return adaptive_simpson(f, *args, **kwargs)

    monkeypatch.setattr(quasistatic, "adaptive_simpson", counted)
    res = add_reservoir(gas.world, 1.0)
    type1(gas, GasState(1, 1), 2.0).slice(0.0, 1.0)
    iso = type3(gas, res, GasState(1, 1), 2.0)
    iso.slice(0.2, 0.7)
    iso.heat_between(gas.atom, 0.0, 1.0)
    assert calls == []
    type2(gas, GasState(1, 1), 2.0).slice(0.0, 1.0)
    assert len(calls) == 1


class _ConstantFamily(QuasistaticFamily):
    """Rests at (1, 1) while its one atom takes work and heat at ``value``."""

    __slots__ = ("rate",)

    def __init__(self, atom, value):
        super().__init__((atom,))
        self.rate = value

    def evaluate(self, lam):
        return {self.atoms[0]: GasState(1, 1)}

    def work_rate(self, atom):
        return self.rate if atom in self.atoms else None

    heat_rate = work_rate


def test_constant_rate_on_an_empty_interval_is_zero(gas):
    res = add_reservoir(gas.world, 1.0)
    infinite = _ConstantFamily(gas.atom, math.inf)
    legs = [type1(gas, GasState(1, 1), 2.0), infinite, type3(gas, res, GasState(1, 1), 2.0)]
    for fam in legs:
        for lam in (0.0, 0.3, 1.0):
            for atom in fam.atoms:
                for got in (fam.work_between(atom, lam, lam), fam.heat_between(atom, lam, lam)):
                    assert got == 0.0 and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constant_rate_raises(gas, value):
    atom = gas.atom
    fam = _ConstantFamily(atom, value)
    with pytest.raises(ToleranceNotMet):
        fam.work_between(atom, 0.0, 1.0)
    with pytest.raises(ToleranceNotMet):
        fam.heat_between(atom, 0.25, 0.5)
    with pytest.raises(ToleranceNotMet):
        fam.slice(0.0, 1.0)


def test_friction_to_infinite_pressure_still_raises(gas):
    with pytest.raises(DomainError, match=r"type1 leg: target p2=inf is not finite"):
        type1(gas, GasState(1, 1), math.inf)
    # built past the constructor's check, the leg still fails loudly
    fam = FrictionSegment(gas, GasState(1, 1), math.inf)
    with pytest.raises(ToleranceNotMet):
        fam.work_between(gas.atom, 0.0, 1.0)
    with pytest.raises(DomainError):
        fam.slice(0.0, 1.0)


def test_forms_are_process_dependent(gas):
    """Same curve, different procedure, different total work.

    An isothermal expansion driven by a reservoir costs -nR T ln r of work;
    the same state change driven by friction (alternating tiny isolated and
    friction legs hugging the isotherm) is a work process on the gas alone,
    so its total work is the energy difference: zero.
    """
    start = GasState(1, 1)
    res = add_reservoir(gas.world, 1.0)
    contact = type3(gas, res, start, 2.0).slice(0.0, 1.0)
    n_steps = 64
    state = start
    chain = None
    for i in range(1, n_steps + 1):
        v = 2.0 ** (i / n_steps)
        ad = type2(gas, state, v).slice(0.0, 1.0)
        state = ad.final_of(gas.atom)
        fr = type1(gas, state, 1.0 / v).slice(0.0, 1.0)  # back onto pV = 1
        state = fr.final_of(gas.atom)
        for piece in (ad, fr):
            chain = piece if chain is None else concatenate(chain, piece)
    assert state.as_tuple() == pytest.approx(
        contact.final_of(gas.atom).as_tuple(), abs=1e-9
    )
    w_contact = contact.work_on(gas.atom)
    w_friction = chain.work_on(gas.atom)
    assert w_contact == pytest.approx(-math.log(2.0), abs=1e-9)
    assert abs(w_friction) < 1e-9
    assert abs(w_contact - w_friction) > 0.5  # genuinely different one-forms


def test_check_qs_postulates_passes(gas):
    states = [GasState(1, 1), GasState(0.5, 2.0), GasState(3.0, 0.4)]
    pairs = [(GasState(1, 1), GasState(3, 0.5))]
    report = check_qs_postulates(gas, states, pairs=pairs)
    assert report["passed"]
    assert report["pairs_connected"] == 1


def test_check_qs_postulates_flags_degenerate_tangents(gas):
    states = [GasState(1, 1)]
    bad = lambda s: [("broken", ((1.0, 0.0), (2.0, 0.0)))]
    report = check_qs_postulates(gas, states, tangent_sets=bad)
    assert not report["passed"]
    assert report["failures"][0]["pair"] == "broken"


def test_analytic_tangents_are_independent(gas):
    for s in (GasState(1, 1), GasState(0.3, 4.0)):
        for label, (t1, t2) in qs_tangent_sets(gas.model, s):
            det = t1[0] * t2[1] - t1[1] * t2[0]
            assert abs(det) > 1e-8
