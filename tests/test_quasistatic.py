import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermokernel import quasistatic
from thermokernel.errors import DomainError, OutOfDomain, StateMismatch, ToleranceNotMet
from thermokernel.gas import (
    FrictionSegment,
    GasState,
    add_ideal_gas,
    gas_T,
    gas_U,
    qs_tangent_sets,
    type1,
    type2,
    type3,
)
from thermokernel.processes import classify, concatenate
from thermokernel.quadrature import adaptive_simpson
from thermokernel.quasistatic import (
    ConstantRate,
    PiecewiseConstantProfile,
    QuasistaticFamily,
    check_qs_postulates,
    concat_families,
    entropy_integral,
    integrate_form,
)
from thermokernel.reservoirs import add_reservoir
from thermokernel.systems import World

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_slice_whole_interval_matches_endpoints(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    p = fam.slice(0.0, 1.0)
    assert p.initial_of(gas.atom).value == GasState(1, 1)
    assert p.final_of(gas.atom).value.V == 2.0


def test_slice_point_is_identity(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    p = fam.slice(0.3, 0.3)
    assert p.initial_of(gas.atom).value == p.final_of(gas.atom).value
    assert p.work_on(gas.atom) == 0.0


def test_slice_bounds_validated(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    with pytest.raises(OutOfDomain):
        fam.slice(0.7, 0.2)
    with pytest.raises(OutOfDomain):
        fam.slice(-0.1, 0.5)


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


def test_integrate_form_isotherm_oracle(gas):
    # minus p dV over pV = 1, V from 1 to 2: analytic value -ln 2
    res = add_reservoir(gas.world, 1.0)
    fam = type3(gas, res, GasState(1, 1), 2.0)
    form = lambda point: (0.0, -point[0])  # coefficients of (dp, dV)
    got = integrate_form(form, fam, 0.0, 1.0, atom=gas.atom)
    assert got == pytest.approx(-math.log(2.0), abs=1e-9)


def test_integrate_form_isochore_oracle(gas):
    # (3/2) V dp along V = 1, p from 1 to 2: analytic value 1.5
    fam = type1(gas, GasState(1, 1), 2.0)
    form = lambda point: (1.5 * point[1], 0.0)
    got = integrate_form(form, fam, 0.0, 1.0)
    assert got == pytest.approx(1.5, abs=1e-10)
    assert integrate_form(form, fam, 0.3, 0.3) == 0.0


def test_concat_families_two_segments(gas):
    ad = type2(gas, GasState(1, 1), 2.0)
    corner = ad.state_at(1.0)[gas.atom]
    res = add_reservoir(gas.world, gas_T(gas.model, corner))
    iso = type3(gas, res, corner, 1.5)
    fam = concat_families(ad, iso)
    assert 0.5 in fam.knots
    p = fam.slice(0.0, 1.0)
    assert p.initial_of(gas.atom).value == GasState(1, 1)
    assert p.final_of(gas.atom).value.V == pytest.approx(1.5)
    # work adds across the parts
    expected = ad.slice(0, 1).work_on(gas.atom) + iso.slice(0, 1).work_on(gas.atom)
    assert p.work_on(gas.atom) == pytest.approx(expected, abs=1e-9)


def test_concat_forward_then_reverse_is_cyclic(gas):
    ad = type2(gas, GasState(1, 1), 2.0)
    loop = concat_families(ad, ad.reversed())
    p = loop.slice(0.0, 1.0)
    assert classify(gas.system, p).catalytic
    assert abs(p.work_on(gas.atom)) < 1e-10


def test_concat_rejects_mismatched_endpoints(gas):
    ad = type2(gas, GasState(1, 1), 2.0)
    other = type2(gas, GasState(3, 3), 1.0)
    with pytest.raises(StateMismatch):
        concat_families(ad, other)


def test_entropy_integral_isotherm(gas):
    # heat over temperature on an isotherm: nR ln(V2/V1) per unit temperature
    res = add_reservoir(gas.world, 1.0)
    fam = type3(gas, res, GasState(1, 1), 2.0)
    got = entropy_integral(fam, None, 1.0)
    assert got == pytest.approx(math.log(2.0), abs=1e-9)


def test_entropy_integral_adiabat_zero(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    assert entropy_integral(fam, None, 0.7) == 0.0


def test_entropy_integral_piecewise_profile_matches_discrete_sum(gas):
    th1, th2 = 1.0, 2.0
    r1 = add_reservoir(gas.world, th1)
    iso1 = type3(gas, r1, GasState(1, 1), 2.0)
    mid = iso1.state_at(1.0)[gas.atom]
    fr = type1(gas, mid, mid.p * th2 / th1)  # jump isotherms at fixed volume
    hot = fr.state_at(1.0)[gas.atom]
    r2 = add_reservoir(gas.world, th2)
    iso2 = type3(gas, r2, hot, 3.0)
    fam = concat_families(concat_families(iso1, fr), iso2)
    profile = PiecewiseConstantProfile(breaks=(0.5,), values=(th1, th2))
    got = entropy_integral(fam, None, profile)
    q1 = iso1.heat_between(gas.atom, 0.0, 1.0)
    q2 = iso2.heat_between(gas.atom, 0.0, 1.0)
    assert got == pytest.approx(q1 / th1 + q2 / th2, abs=1e-9)


def test_entropy_integral_continuous_profile(gas):
    # synthetic rate against a continuously varying temperature
    fam = type2(gas, GasState(1, 1), 2.0)
    got = entropy_integral(fam, lambda lam: 1.0, lambda lam: 1.0 + lam)
    assert got == pytest.approx(math.log(2.0), abs=1e-9)


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
            w = (fam.work_rate(gas.atom) or (lambda _: 0.0))(lam)
            q = (fam.heat_rate(gas.atom) or (lambda _: 0.0))(lam)
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
                assert type(rate) is ConstantRate
                for a, b in ((0.0, 1.0), (lo, hi)):
                    exact = between(atom, a, b)
                    assert exact == rate.value * (b - a)
                    assert abs(exact - adaptive_simpson(rate, a, b)) <= 4 * math.ulp(exact)


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
        self.rate = ConstantRate(value)

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
        state = ad.final_of(gas.atom).value
        fr = type1(gas, state, 1.0 / v).slice(0.0, 1.0)  # back onto pV = 1
        state = fr.final_of(gas.atom).value
        for piece in (ad, fr):
            chain = piece if chain is None else concatenate(chain, piece)
    assert state.as_tuple() == pytest.approx(
        contact.final_of(gas.atom).value.as_tuple(), abs=1e-9
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
