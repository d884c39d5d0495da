import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermokernel.energy import EnergyLedger
from thermokernel.entropy import EntropyLedger
from thermokernel.errors import (
    DomainError,
    OffIsotherm,
    PreconditionNotMet,
    PressureDecrease,
)
from thermokernel.gas import (
    SEGMENT_KINDS,
    AdiabatSegment,
    GasModel,
    GasPlanner,
    GasState,
    add_ideal_gas,
    adiabat_invariant,
    conduct,
    connect,
    connect_forward,
    connect_reversible,
    gas_S,
    gas_T,
    gas_U,
    gas_U_sv,
    reservoir_contact,
    run_segments,
    segment_family,
    type1,
    type2,
    type3,
)
from thermokernel.processes import classify, concatenate, make_identity, values_close, work_of
from thermokernel.quasistatic import QuasistaticFamily, identity_family
from thermokernel.reservoirs import add_reservoir
from thermokernel.systems import AtomId, World

from conftest import sliced

LN2 = math.log(2.0)
# analytic: integral of -p dV along p V^(5/3) = 1 from V=1 to V=2
W_ADIABAT_1_TO_2 = 1.5 * (2.0 ** (-2.0 / 3.0) - 1.0)


def test_gas_state_floor():
    for p, V in ((0.0, 1.0), (1.0, -2.0), (1, 1e-13), (-2, 3)):
        with pytest.raises(DomainError) as err:
            GasState(p, V)
        assert str(err.value) == f"gas state ({p}, {V}) below the positive floor"


@pytest.mark.parametrize("p, V", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                  (1.0, math.nan), (-math.inf, 1.0), (10**400, 1),
                                  (1.0, -10**400)])
def test_gas_state_must_be_finite(p, V):
    """An int that no float holds is not finite either."""
    with pytest.raises(DomainError) as err:
        GasState(p, V)
    assert str(err.value) == f"gas state ({p}, {V}) is not finite"


def test_gas_state_is_a_frozen_slotted_value():
    s = GasState(1.5, 2)
    assert repr(s) == "GasState(p=1.5, V=2)"
    assert GasState(p=1.5, V=2) == s == GasState(1.5, 2.0) and s != GasState(1.5, 2.5)
    assert s != (1.5, 2) and s.as_tuple() == (1.5, 2)
    assert hash(s) == hash((1.5, 2)) == hash(GasState(1.5, 2.0))
    assert not hasattr(s, "__dict__")
    for field in ("p", "V"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, 3.0)
    assert pickle.loads(pickle.dumps(s)) == s and copy.copy(s) == s
    assert [f.name for f in dataclasses.fields(GasState)] == ["p", "V"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, -10**400])
def test_leg_targets_must_be_finite(gas, value):
    start = GasState(1, 1)
    res = add_reservoir(gas.world, 1.0)
    legs = [("type1", "p2", lambda: type1(gas, start, value)),
            ("type2", "V2", lambda: type2(gas, start, value)),
            ("type3", "V2", lambda: type3(gas, res, start, value))]
    for kind, key, build in legs:
        with pytest.raises(DomainError, match=rf"^{kind} leg: target {key}={value} is not finite$"):
            build()


@pytest.mark.parametrize("query, named", [
    pytest.param(lambda w: type2(add_ideal_gas(w, GasModel(gamma=50.0)), GasState(1, 1), 1e-7),
                 r"^type2 leg from gas state \(1, 1\) has no finite end state "
                 r"at V2=1e-07, gamma=50\.0$", id="adiabat-end-overflows"),
    pytest.param(lambda w: EntropyLedger(w).atom_entropy(
                     add_ideal_gas(w, GasModel(gamma=1.1)).atom, GasState(1e300, 1.0)),
                 r"^the adiabat of gas state \(1e\+300, 1\.0\) meets the theta=1e\+150 "
                 r"isotherm at no finite volume at gamma=1\.1$", id="isotherm-volume-overflows"),
    pytest.param(lambda w: EnergyLedger(w).atom_energy(
                     add_ideal_gas(w, GasModel(gamma=50.0)).atom, GasState(1.0, 1e-7)),
                 r"^gas state \(1\.0, 1e-07\) has a p V\^gamma that underflows to 0 "
                 r"at gamma=50\.0$", id="invariant-underflows"),
    # the reference adiabat meets the isotherm at a subnormal V, then at V = 0.0
    pytest.param(lambda w: EntropyLedger(w).atom_entropy(
                     add_ideal_gas(w, GasModel(gamma=1.1, sigma0=GasState(1, 1e-10))).atom,
                     GasState(1e56, 1e-6)),
                 r"^the adiabat of gas state \(1, 1e-10\) meets the theta=1e\+20 isotherm "
                 r"at V=1\.0000000000006e-310 with no finite pressure at gamma=1\.1$",
                 id="isotherm-start-overflows"),
    pytest.param(lambda w: EntropyLedger(w).atom_entropy(
                     add_ideal_gas(w, GasModel(gamma=1.1, sigma0=GasState(1, 1e-10))).atom,
                     GasState(6.3e58, 1e-6)),
                 r"^the adiabat of gas state \(1, 1e-10\) meets the theta=\S+ isotherm "
                 r"at V=0\.0 with no finite pressure at gamma=1\.1$",
                 id="isotherm-start-divides-by-zero"),
])
def test_powers_past_the_floats_name_the_callers_state(query, named):
    """A power that overflows, or an invariant that underflows to 0, is a ``DomainError``.

    Each used to escape as a bare ``OverflowError`` or name a state the
    caller never gave, ``(0.0, 1.0)``.
    """
    with pytest.raises(DomainError, match=named):
        query(World())


def test_stiff_gas_invariant_overflow_is_a_domain_error():
    """p V^50 at V = 1e7 overflows the power; at p = 1e300, V = 10 the product is infinite."""
    world = World()
    gas = add_ideal_gas(world, GasModel(gamma=50.0))
    big = GasState(1.0, 1e7)
    named = r"^gas state \(1\.0, 10000000\.0\) has no finite p V\^gamma at gamma=50\.0$"
    for query in (lambda: adiabat_invariant(gas.model, big),
                  lambda: type2(gas, big, 2.0),
                  lambda: connect(gas, GasState(1.0, 1.0), big),
                  lambda: connect(gas, big, GasState(1.0, 1.0)),
                  lambda: EnergyLedger(world).atom_energy(gas.atom, big),
                  lambda: EntropyLedger(world).atom_entropy(gas.atom, big)):
        with pytest.raises(DomainError, match=named):
            query()
    with pytest.raises(DomainError, match=r"^gas state \(1e\+300, 10\.0\) has no finite"):
        adiabat_invariant(gas.model, GasState(1e300, 10.0))
    # a finite invariant keeps its bits
    s = GasState(1.5, 1.2)
    assert adiabat_invariant(gas.model, s).hex() == (s.p * s.V**50.0).hex()


def test_closed_forms():
    g = GasModel()
    assert gas_U(g, GasState(2, 3)) == pytest.approx(9.0, abs=1e-12)
    assert gas_S(g, GasState(1, 2)) == pytest.approx(2.5 * LN2, abs=1e-12)
    assert gas_T(g, GasState(2, 3)) == pytest.approx(6.0, abs=1e-12)


def test_closed_forms_track_gamma():
    g = GasModel(gamma=1.4)  # diatomic-style exponent
    assert gas_U(g, GasState(2, 3)) == pytest.approx(6.0 / 0.4, rel=1e-12)
    # isolated curves stay isentropic for any exponent
    world = World()
    gas = add_ideal_gas(world, g)
    end = type2(gas, GasState(1, 1), 2.0).state_at(1.0)[gas.atom]
    assert gas_S(g, end) == pytest.approx(gas_S(g, GasState(1, 1)), abs=1e-12)


def test_type1_work_and_errors(gas):
    fam = type1(gas, GasState(1, 1), 2.0)
    p = fam.slice(0.0, 1.0)
    assert p.work_on(gas.atom) == pytest.approx(1.5, abs=1e-12)
    assert not p.reversible
    ident = type1(gas, GasState(1, 1), 1.0).slice(0.0, 1.0)
    assert ident.work_on(gas.atom) == 0.0
    with pytest.raises(PressureDecrease):
        type1(gas, GasState(2, 1), 1.0)


def test_type2_endpoint_and_work(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    p = fam.slice(0.0, 1.0)
    end = p.final_of(gas.atom)
    assert end.p == pytest.approx(2.0 ** (-5.0 / 3.0), abs=1e-12)
    assert p.work_on(gas.atom) == pytest.approx(W_ADIABAT_1_TO_2, abs=1e-10)
    ident = type2(gas, GasState(1, 1), 1.0).slice(0.0, 1.0)
    assert ident.work_on(gas.atom) == 0.0
    # forward then reverse is an identity footprint
    back = type2(gas, end, 1.0).slice(0.0, 1.0)
    assert back.initial_of(gas.atom) == end
    from thermokernel.processes import concatenate

    assert classify(gas.system, concatenate(p, back)).catalytic


def test_type3_heat_and_errors(gas, unit_reservoir):
    fam = type3(gas, unit_reservoir, GasState(1, 1), 2.0)
    p = fam.slice(0.0, 1.0)
    assert p.work_on(gas.atom) == pytest.approx(-LN2, abs=1e-10)
    assert fam.heat_between(gas.atom, 0.0, 1.0) == pytest.approx(LN2, abs=1e-10)
    assert p.work_on(unit_reservoir.atom) == 0.0
    de = p.final_of(unit_reservoir.atom) - p.initial_of(unit_reservoir.atom)
    assert de == pytest.approx(-LN2, abs=1e-10)
    ident = type3(gas, unit_reservoir, GasState(1, 1), 1.0).slice(0.0, 1.0)
    assert ident.work_on(gas.atom) == 0.0
    with pytest.raises(OffIsotherm):
        type3(gas, unit_reservoir, GasState(2, 1), 2.0)


def test_type3_isotherm_check_is_relative_at_a_small_temperature(world, gas):
    """At θ = 1e-11 a start with p·V ten times below nR·θ is off the isotherm; one on it
    builds a leg that starts where the caller said, up to rounding."""
    cold = add_reservoir(world, 1e-11)
    with pytest.raises(OffIsotherm):
        type3(gas, cold, GasState(1e-6, 1e-6), 2e-6)
    p = type3(gas, cold, GasState(1e-5, 1e-6), 2e-6).slice(0.0, 1.0)
    assert p.initial_of(gas.atom).as_tuple() == pytest.approx((1e-5, 1e-6), rel=1e-15)
    assert p.work_on(gas.atom) == pytest.approx(-1e-11 * LN2, rel=1e-9)


def test_connect_orientation_and_work(gas):
    s1, s2 = GasState(1, 1), GasState(3, 0.5)
    p = connect(gas, s1, s2)
    # the lower-invariant state is (3, 0.5); the footprint runs from it
    assert adiabat_invariant(gas.model, s2) < adiabat_invariant(gas.model, s1)
    assert p.initial_of(gas.atom) == s2
    assert p.final_of(gas.atom).as_tuple() == pytest.approx(
        s1.as_tuple(), abs=1e-12
    )
    assert work_of(gas.system, p) == pytest.approx(
        gas_U(gas.model, s1) - gas_U(gas.model, s2), rel=1e-9
    )


def test_connect_degenerate_cases(gas):
    ident = connect(gas, GasState(1, 1), GasState(1, 1))
    assert work_of(gas.system, ident) == 0.0
    # both states on one isolated curve: single reversible leg
    end = type2(gas, GasState(1, 1), 2.0).state_at(1.0)[gas.atom]
    p = connect(gas, GasState(1, 1), end)
    assert p.reversible
    assert p.tags == frozenset({"type2"})


def test_connect_between_nearby_small_states_runs_friction(gas):
    # the pressures differ by a relative 5e-10, far above one adiabat's 1e-12
    a, b = GasState(1e-3, 1e-3), GasState(1e-3 + 5e-13, 1e-3)
    p = connect(gas, a, b)
    assert p.tags == frozenset({"type1"})
    assert p.initial_of(gas.atom) == a
    assert p.final_of(gas.atom) == b
    dp = b.p - a.p
    assert work_of(gas.system, p) == pytest.approx(gas.model.cv_R * a.V * dp, rel=1e-12, abs=0.0)


def test_connect_reversible_template(gas):
    legs = connect_reversible(gas, GasState(1, 1), GasState(1, 2), 1.0)
    assert [f.tag for f in legs] == ["type2", "type3", "type2"]
    q = legs[1].heat_between(gas.atom, 0.0, 1.0)
    assert q / 1.0 == pytest.approx(2.5 * LN2, abs=1e-9)
    # final leg actually ends at the requested state
    assert legs[2].state_at(1.0)[gas.atom].as_tuple() == pytest.approx((1.0, 2.0), rel=1e-9)


def test_connect_reversible_theta_independent(gas):
    s1, s2 = GasState(1, 1), GasState(0.7, 2.3)
    sums = []
    for theta in (0.6, 1.0, 2.7):
        legs = connect_reversible(gas, s1, s2, theta)
        sums.append(legs[1].heat_between(gas.atom, 0.0, 1.0) / theta)
    assert max(sums) - min(sums) < 1e-8
    assert sums[0] == pytest.approx(gas_S(gas.model, s2) - gas_S(gas.model, s1), abs=1e-9)


def test_connect_reversible_degenerate(gas):
    legs = connect_reversible(gas, GasState(1, 1), GasState(1, 1), 2.0)
    total_w = sum(f.slice(0.0, 1.0).work_on(gas.atom) for f in legs)
    assert total_w == pytest.approx(0.0, abs=1e-10)


def test_isolated_curves_are_isentropic(gas):
    fam = type2(gas, GasState(1.7, 0.6), 2.9)
    s_ref = gas_S(gas.model, GasState(1.7, 0.6))
    for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
        s = gas_S(gas.model, fam.state_at(lam)[gas.atom])
        assert abs(s - s_ref) <= 1e-9


def test_u_from_entropy_reconstruction(gas):
    g = gas.model
    for s in (GasState(1, 1), GasState(2, 3), GasState(0.5, 0.8)):
        assert gas_U_sv(g, gas_S(g, s), s.V) == pytest.approx(gas_U(g, s), rel=1e-12)


def test_conduct_interval_and_validation(world):
    g1 = add_ideal_gas(world)
    g2 = add_ideal_gas(world)
    hot, cold = GasState(2, 1), GasState(1, 1)
    p = conduct(g1, hot, g2, cold, 0.1)
    assert p.work_on(g1.atom) == 0.0 and p.work_on(g2.atom) == 0.0
    assert p.final_of(g1.atom).p < hot.p
    assert p.final_of(g2.atom).p > cold.p
    with pytest.raises(PreconditionNotMet):
        conduct(g1, cold, g2, hot, 0.1)  # wrong direction
    with pytest.raises(PreconditionNotMet):
        conduct(g1, hot, g2, cold, 10.0)  # overshoots equality


def test_reservoir_contact_validation(world):
    gas = add_ideal_gas(world)
    res = add_reservoir(world, 1.0)
    hot = GasState(2, 1)
    p = reservoir_contact(gas, hot, res, q=1.5 * (2.0 - 1.0))
    assert p.final_of(gas.atom).as_tuple() == pytest.approx((1.0, 1.0), abs=1e-12)
    with pytest.raises(PreconditionNotMet):
        reservoir_contact(gas, GasState(0.5, 1), res, q=0.1)  # colder gas cannot heat the bath


@pytest.mark.parametrize("q, message", [
    (0.0, "conduction transfers a positive amount of heat"),
    (-0.1, "conduction transfers a positive amount of heat"),
    (math.nan, "conduction transfers a positive amount of heat"),
])
def test_conduct_needs_a_positive_heat(world, q, message):
    g1, g2 = add_ideal_gas(world), add_ideal_gas(world)
    with pytest.raises(PreconditionNotMet, match=f"^{message}$"):
        conduct(g1, GasState(2, 1), g2, GasState(1, 1), q)


def test_conduct_needs_two_distinct_gases(world, gas):
    with pytest.raises(PreconditionNotMet, match="^conduction needs two distinct gases$"):
        conduct(gas, GasState(2, 1), gas, GasState(1, 1), 0.1)


def test_reservoir_contact_needs_a_non_zero_heat(world, gas):
    with pytest.raises(PreconditionNotMet, match="^contact must exchange a non-zero heat$"):
        reservoir_contact(gas, GasState(2, 1), add_reservoir(world, 1.0), 0.0)


def test_reservoir_contact_heats_a_gas_only_from_a_hotter_bath(world, gas):
    """q < 0 takes heat into the gas, which must stay at most as hot as the bath."""
    res = add_reservoir(world, 1.0)
    with pytest.raises(PreconditionNotMet, match="^gas must stay at most as hot as the reservoir$"):
        reservoir_contact(gas, GasState(2, 1), res, q=-0.1)  # already hotter
    with pytest.raises(PreconditionNotMet, match="^gas must stay at most as hot as the reservoir$"):
        reservoir_contact(gas, GasState(0.5, 1), res, q=-1.5)  # ends past the bath
    p = reservoir_contact(gas, GasState(0.5, 1), res, q=-0.75)  # ends on the bath's isotherm
    assert p.final_of(gas.atom).as_tuple() == pytest.approx((1.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan])
def test_connect_reversible_needs_a_positive_isotherm(gas, theta):
    with pytest.raises(DomainError, match="^isotherm parameter must be positive$"):
        connect_reversible(gas, GasState(1, 1), GasState(1, 2), theta)


def test_reservoir_contact_slack_is_relative_at_a_small_temperature(world, gas):
    """A gas at T = 1e-12 cannot heat a bath at θ = 1e-11."""
    with pytest.raises(PreconditionNotMet):
        reservoir_contact(gas, GasState(1e-6, 1e-6), add_reservoir(world, 1e-11), 1e-13)


def test_run_segments(gas):
    p = run_segments(
        gas,
        GasState(1, 1),
        [{"type": "type2", "V2": 2.0}, {"type": "type1", "p2": 1.0}],
    )
    assert p.final_of(gas.atom).as_tuple() == pytest.approx((1.0, 2.0), abs=1e-12)


def _pairwise_run_segments(gas, start, specs):
    """``run_segments`` as a pairwise fold of the same chained slices."""
    state, process = start, None
    for spec in specs:
        piece = segment_family(gas, state, spec).slice(0.0, 1.0)
        process = piece if process is None else concatenate(process, piece)
        state = piece.final_of(gas.atom)
    return make_identity(gas.system, {gas.atom: start}) if process is None else process


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(steps=st.lists(st.tuples(st.sampled_from(sorted(SEGMENT_KINDS)),
                                st.floats(min_value=0.5, max_value=2.0)), max_size=6))
def test_run_segments_equals_the_pairwise_fold(steps):
    """One ``concatenate`` of the chained slices gives the pairwise fold's
    entries bit for bit, -0.0 and the baths minted by ``type3`` legs included."""
    start = GasState(1.3, 0.8)
    scratch = add_ideal_gas(World())
    specs, state = [], start
    for kind, factor in steps:
        if kind == "type1":  # friction only raises the pressure
            spec = {"type": kind, "p2": state.p * (1.0 + factor)}
        elif kind == "type2":
            spec = {"type": kind, "V2": state.V * factor}
        else:
            spec = {"type": kind, "theta": gas_T(scratch.model, state), "V2": state.V * factor}
        specs.append(spec)
        state = segment_family(scratch, state, spec).state_at(1.0)[scratch.atom]
    one = run_segments(add_ideal_gas(World()), start, specs)
    fold = _pairwise_run_segments(add_ideal_gas(World()), start, specs)
    assert repr(one.entries) == repr(fold.entries)
    assert (one.reversible, one.tags) == (fold.reversible, fold.tags)


class TestGasPlanner:
    def test_full_catalog_decides_by_invariant(self, gas):
        planner = GasPlanner(gas)
        # a work process runs up the adiabat invariant only; at one volume,
        # friction raises the pressure and cannot lower it
        for a, b in [(GasState(1, 1), GasState(3, 0.9)), (GasState(1, 1), GasState(2, 1))]:
            forward, plans = planner.routes(a, b)
            assert forward and plans
            backward, back_plans = planner.routes(b, a)
            assert not backward
            assert sliced(back_plans) == sliced(plans)
        # every state reaches itself by one identity plan
        forward, (ident,) = planner.routes(GasState(1.3, 0.9), GasState(1.3, 0.9))
        assert forward
        assert ident[0].slice(0.0, 1.0).work_on(gas.atom) == 0.0

    def test_routes_share_endpoints_and_work(self, gas):
        planner = GasPlanner(gas)
        a, b = GasState(1, 1), GasState(2, 1.7)
        forward, plans = planner.routes(a, b, count=3)
        assert forward
        assert len(plans) == 3
        works = []
        for plan in plans:
            state = a
            w = 0.0
            for fam in plan:
                piece = fam.slice(0.0, 1.0)
                assert piece.initial_of(gas.atom).as_tuple() == pytest.approx(
                    state.as_tuple(), abs=1e-9
                )
                state = piece.final_of(gas.atom)
                w += piece.work_on(gas.atom)
            assert state.as_tuple() == pytest.approx(b.as_tuple(), rel=1e-9)
            works.append(w)
        assert max(works) - min(works) < 1e-9


def test_first_plan_has_at_most_two_legs():
    """No plan closes with an isolated leg one ulp long."""
    rng = random.Random(11)
    for _ in range(2000):
        gas = add_ideal_gas(World(), GasModel(gamma=rng.choice((5.0 / 3.0, 1.4))))
        a, b = (GasState(math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)))
                for _ in range(2))
        (plan,) = GasPlanner(gas).routes(a, b, count=1)[1]
        assert len(plan) <= 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    log_p=st.floats(-4, 4), log_v=st.floats(-4, 4), log_v2=st.floats(-4, 4),
    log_rel=st.floats(-14, -6), sign=st.sampled_from((-1.0, 1.0)),
)
def test_planner_decides_by_connect_forward(log_p, log_v, log_v2, log_rel, sign):
    """The planner's direction is ``connect_forward``'s at every scale.

    The second state's adiabat invariant differs from the first's by a
    relative 1e-14 to 1e-6, either way.
    """
    gas = add_ideal_gas(World())
    g = gas.model
    a = GasState(10.0**log_p, 10.0**log_v)
    v2 = 10.0**log_v2
    inv_b = adiabat_invariant(g, a) * (1.0 + sign * 10.0**log_rel)
    b = GasState(inv_b * v2**-g.gamma, v2)
    assume(not values_close(a, b))
    forward, plans = GasPlanner(gas).routes(a, b, count=1)
    assert forward == connect_forward(g, a, b)
    assert len(plans) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    log_p=st.floats(-4, 4), log_v=st.floats(-4, 4), log_p2=st.floats(-4, 4),
    log_v2=st.floats(-4, 4), log_rel=st.floats(-14, -6), sign=st.sampled_from((-1.0, 1.0)),
    kind=st.sampled_from(("far", "near-adiabat", "same-volume", "one-adiabat", "one-ulp-p",
                          "one-ulp-V", "equal")),
    gamma=st.sampled_from((5.0 / 3.0, 1.4)),
)
def test_routes_follow_the_adiabat_rule(log_p, log_v, log_p2, log_v2, log_rel, sign, kind,
                                        gamma):
    """``routes`` runs backward, one identity leg or one isolated leg exactly by ``connect_forward``.

    "Close" is one volume to 1e-12 relative and one adiabat both ways.  Near
    pairs differ in adiabat invariant, or in pressure at one volume, by a
    relative 1e-14 to 1e-6 either way.
    """
    gas = add_ideal_gas(World(), GasModel(gamma=gamma))
    g = gas.model
    a = GasState(10.0**log_p, 10.0**log_v)
    v2 = a.V if kind == "same-volume" else 10.0**log_v2
    near = 1.0 + sign * 10.0**log_rel
    b = {
        "far": lambda: GasState(10.0**log_p2, v2),
        "near-adiabat": lambda: GasState(adiabat_invariant(g, a) * near * v2**-g.gamma, v2),
        "same-volume": lambda: GasState(a.p * near, v2),
        "one-adiabat": lambda: GasState(adiabat_invariant(g, a) * v2**-g.gamma, v2),
        "one-ulp-p": lambda: GasState(math.nextafter(a.p, sign * math.inf), a.V),
        "one-ulp-V": lambda: GasState(a.p, math.nextafter(a.V, sign * math.inf)),
        "equal": lambda: GasState(a.p, a.V),
    }[kind]()
    planner = GasPlanner(gas)
    direction, plans = planner.routes(a, b, count=3)
    forward, backward = connect_forward(g, a, b), connect_forward(g, b, a)
    close = forward and backward and abs(a.V - b.V) <= 1e-12 * max(a.V, b.V)
    assert direction == forward
    assert plans
    if not forward:  # the plans run from b to a, as those of routes(b, a) do
        back, back_plans = planner.routes(b, a, count=3)
        assert back
        assert sliced(plans) == sliced(back_plans)
    assert ([[f.tag for f in plan] for plan in plans] == [["identity"]]) == close
    if forward and backward and not close:
        assert [[type(f) for f in plan] for plan in plans] == [[AdiabatSegment]]
    if kind in ("one-ulp-p", "one-ulp-V", "equal"):
        assert close


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    log_p=st.floats(-6, 8), log_v=st.floats(-6, 8), log_p2=st.floats(-6, 8),
    log_v2=st.floats(-6, 8), at=st.floats(0, 1), rel=st.floats(-1e-11, 1e-11),
    near=st.booleans(), gamma=st.sampled_from((5.0 / 3.0, 1.4)),
)
def test_routes_plan_one_process_for_a_pair_either_way(log_p, log_v, log_p2, log_v2, at, rel,
                                                       near, gamma):
    """``routes(a, b)`` and ``routes(b, a)`` never come back empty and plan the same legs.

    States span p, V in 10^[-6, 8]; a ``near`` second state lies within 1e-11
    relative of the first's adiabat, at a volume (fraction ``at`` of the
    range) that keeps its pressure in 10^[-6, 8] too.  The directions are
    opposite unless the invariants agree to 1e-12 relative, and then each
    plan runs from its own first state.  A pair whose plan leaves the
    quadrant raises the same ``DomainError`` both ways.
    """
    gas = add_ideal_gas(World(), GasModel(gamma=gamma))
    g = gas.model
    a = GasState(10.0**log_p, 10.0**log_v)
    if near:
        lo, hi = max(-6.0, log_v - (8.0 - log_p) / gamma), min(8.0, log_v + (log_p + 6.0) / gamma)
        v2 = 10.0 ** (lo + (hi - lo) * at)
        b = GasState(adiabat_invariant(g, a) * (1.0 + rel) * v2**-gamma, v2)
    else:
        b = GasState(10.0**log_p2, 10.0**log_v2)
    planner = GasPlanner(gas)
    outcomes = []
    for x, y in ((a, b), (b, a)):
        try:
            forward, plans = planner.routes(x, y)
            outcomes.append((forward, plans, sliced(plans)))
        except DomainError as exc:
            outcomes.append(str(exc))
    if isinstance(outcomes[0], str) or isinstance(outcomes[1], str):
        assert outcomes[0] == outcomes[1]
        return
    (ab, plans_ab, legs_ab), (ba, plans_ba, legs_ba) = outcomes
    assert plans_ab and plans_ba
    inv_a, inv_b = adiabat_invariant(g, a), adiabat_invariant(g, b)
    one_adiabat = abs(inv_a - inv_b) <= 1e-12 * max(inv_a, inv_b)
    assert (ab and ba) == one_adiabat
    assert ab or ba
    if one_adiabat:  # one isolated or identity leg each, from its own first state
        for (leg,), x in zip((*plans_ab, *plans_ba), (a, b)):
            assert (leg.start if type(leg) is AdiabatSegment else leg.evaluate(0.0)[gas.atom]) == x
    else:
        assert legs_ab == legs_ba


def test_segment_kinds_are_slotted_and_slice_through_the_family(gas, unit_reservoir):
    """Every kind slices and integrates through the one QuasistaticFamily code
    path, so no kind can bypass it (or the spans that wrap it)."""
    start = GasState(1.0, 1.0)
    legs = [type1(gas, start, 2.0), type2(gas, start, 2.0), type3(gas, unit_reservoir, start, 2.0)]
    for fam in legs:
        assert type(fam) is SEGMENT_KINDS[fam.tag]
    for fam in legs + [identity_family({gas.atom: start})]:
        assert not hasattr(fam, "__dict__")
        for name in ("slice", "work_between", "heat_between"):
            assert getattr(type(fam), name) is getattr(QuasistaticFamily, name)


@pytest.mark.parametrize("kind", ["type1", "type2", "type3"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(log_p=st.floats(-3, 3), log_v=st.floats(-3, 3), log_r=st.floats(-2, 2),
       lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
@example(log_p=0.0, log_v=0.0, log_r=0.5, lo=0.0, hi=1.0)
@example(log_p=0.0, log_v=0.0, log_r=0.5, lo=0.375, hi=0.375)
def test_segment_entries_are_the_family_entries_to_the_bit(kind, log_p, log_v, log_r, lo, hi):
    """A kind's own slice entries equal the ones that the base family builds from
    ``evaluate`` and ``work_rate``: same atoms in the same order, same bits."""
    world = World()
    gas = add_ideal_gas(world)
    start = GasState(10.0**log_p, 10.0**log_v)
    lo, hi = min(lo, hi), max(lo, hi)
    fam = {
        "type1": lambda: type1(gas, start, start.p * 10.0**abs(log_r)),
        "type2": lambda: type2(gas, start, start.V * 10.0**log_r),
        "type3": lambda: type3(gas, add_reservoir(world, gas_T(gas.model, start)), start,
                               start.V * 10.0**log_r),
    }[kind]()
    assume(type(fam) is SEGMENT_KINDS[kind])  # log_r == 0 gives an identity leg
    got, ref = fam.slice(lo, hi).entries, QuasistaticFamily._entries(fam, lo, hi)
    assert list(got) == list(ref) == list(fam.atoms)
    assert list(got.values()) == list(ref.values())
    assert repr(got) == repr(ref)  # tells -0.0 from 0.0, which ``==`` does not


def test_leg_rates_answer_an_equal_atom_not_only_the_same_object(gas, unit_reservoir):
    start = GasState(1.0, 1.0)
    legs = [type1(gas, start, 2.0), type2(gas, start, 2.0), type3(gas, unit_reservoir, start, 2.0)]
    copy_of = lambda a: AtomId(a.id, a.kind)  # equal, but another object
    stranger = AtomId(10**6, "ideal-gas")
    for fam in legs:
        assert fam.work_rate(copy_of(gas.atom)) is fam.work_rate(gas.atom) is not None
        assert fam.work_rate(stranger) is None and fam.heat_rate(stranger) is None
    iso = legs[2]
    assert iso.heat_rate(copy_of(gas.atom)) is iso.heat_rate(gas.atom) is not None
    assert iso.heat_rate(copy_of(unit_reservoir.atom)) is iso.heat_rate(unit_reservoir.atom)
    assert iso.heat_rate(unit_reservoir.atom) is not None
