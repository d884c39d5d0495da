import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermokernel.errors import (
    DomainError,
    OffIsotherm,
    PreconditionNotMet,
    PressureDecrease,
)
from thermokernel.gas import (
    SEGMENT_KINDS,
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
    type1,
    type2,
    type3,
)
from thermokernel.processes import classify, is_reversible, values_close, work_of
from thermokernel.quasistatic import (
    QuasistaticFamily,
    concat_families,
    identity_family,
    integrate_form,
)
from thermokernel.reservoirs import add_reservoir
from thermokernel.systems import World

LN2 = math.log(2.0)
# analytic: integral of -p dV along p V^(5/3) = 1 from V=1 to V=2
W_ADIABAT_1_TO_2 = 1.5 * (2.0 ** (-2.0 / 3.0) - 1.0)


def test_gas_state_floor():
    for p, V in ((0.0, 1.0), (1.0, -2.0), (1, 1e-13), (-2, 3)):
        with pytest.raises(DomainError) as err:
            GasState(p, V)
        assert str(err.value) == f"gas state ({p}, {V}) below the positive floor"


@pytest.mark.parametrize("p, V", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                  (1.0, math.nan), (-math.inf, 1.0)])
def test_gas_state_must_be_finite(p, V):
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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_leg_targets_must_be_finite(gas, value):
    start = GasState(1, 1)
    res = add_reservoir(gas.world, 1.0)
    legs = [("type1", "p2", lambda: type1(gas, start, value)),
            ("type2", "V2", lambda: type2(gas, start, value)),
            ("type3", "V2", lambda: type3(gas, res, start, value))]
    for kind, key, build in legs:
        with pytest.raises(DomainError, match=rf"^{kind} leg: target {key}={value} is not finite$"):
            build()


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
    assert not is_reversible(p)
    ident = type1(gas, GasState(1, 1), 1.0).slice(0.0, 1.0)
    assert ident.work_on(gas.atom) == 0.0
    with pytest.raises(PressureDecrease):
        type1(gas, GasState(2, 1), 1.0)


def test_type2_endpoint_and_work(gas):
    fam = type2(gas, GasState(1, 1), 2.0)
    p = fam.slice(0.0, 1.0)
    end = p.final_of(gas.atom).value
    assert end.p == pytest.approx(2.0 ** (-5.0 / 3.0), abs=1e-12)
    assert p.work_on(gas.atom) == pytest.approx(W_ADIABAT_1_TO_2, abs=1e-10)
    ident = type2(gas, GasState(1, 1), 1.0).slice(0.0, 1.0)
    assert ident.work_on(gas.atom) == 0.0
    # forward then reverse is an identity footprint
    back = fam.reversed().slice(0.0, 1.0)
    assert back.initial_of(gas.atom).value == end
    from thermokernel.processes import concatenate

    assert classify(gas.system, concatenate(p, back)).catalytic


def test_type3_heat_and_errors(gas, unit_reservoir):
    fam = type3(gas, unit_reservoir, GasState(1, 1), 2.0)
    p = fam.slice(0.0, 1.0)
    assert p.work_on(gas.atom) == pytest.approx(-LN2, abs=1e-10)
    assert fam.heat_between(gas.atom, 0.0, 1.0) == pytest.approx(LN2, abs=1e-10)
    assert p.work_on(unit_reservoir.atom) == 0.0
    de = p.final_of(unit_reservoir.atom).value - p.initial_of(unit_reservoir.atom).value
    assert de == pytest.approx(-LN2, abs=1e-10)
    ident = type3(gas, unit_reservoir, GasState(1, 1), 1.0).slice(0.0, 1.0)
    assert ident.work_on(gas.atom) == 0.0
    with pytest.raises(OffIsotherm):
        type3(gas, unit_reservoir, GasState(2, 1), 2.0)


def test_type3_translation_invariance(gas, unit_reservoir):
    """Reservoir constructors depend on energy differences only."""
    lo = type3(gas, unit_reservoir, GasState(1, 1), 2.0, reservoir_energy=0.0)
    hi = type3(gas, unit_reservoir, GasState(1, 1), 2.0, reservoir_energy=123.5)
    p_lo, p_hi = lo.slice(0.0, 1.0), hi.slice(0.0, 1.0)
    assert p_lo.work_on(gas.atom) == p_hi.work_on(gas.atom)
    assert p_lo.final_of(gas.atom).value == p_hi.final_of(gas.atom).value
    d_lo = p_lo.final_of(unit_reservoir.atom).value - p_lo.initial_of(unit_reservoir.atom).value
    d_hi = p_hi.final_of(unit_reservoir.atom).value - p_hi.initial_of(unit_reservoir.atom).value
    assert d_lo == pytest.approx(d_hi, abs=1e-12)


def test_connect_orientation_and_work(gas):
    s1, s2 = GasState(1, 1), GasState(3, 0.5)
    p = connect(gas, s1, s2)
    # the lower-invariant state is (3, 0.5); the footprint runs from it
    assert adiabat_invariant(gas.model, s2) < adiabat_invariant(gas.model, s1)
    assert p.initial_of(gas.atom).value == s2
    assert p.final_of(gas.atom).value.as_tuple() == pytest.approx(
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
    assert is_reversible(p)
    assert p.tags == frozenset({"type2"})


def test_connect_between_nearby_small_states_runs_friction(gas):
    # the pressures differ by a relative 5e-10, far above one adiabat's 1e-12
    a, b = GasState(1e-3, 1e-3), GasState(1e-3 + 5e-13, 1e-3)
    p = connect(gas, a, b)
    assert p.tags == frozenset({"type1"})
    assert p.initial_of(gas.atom).value == a
    assert p.final_of(gas.atom).value == b
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
    assert p.final_of(g1.atom).value.p < hot.p
    assert p.final_of(g2.atom).value.p > cold.p
    with pytest.raises(PreconditionNotMet):
        conduct(g1, cold, g2, hot, 0.1)  # wrong direction
    with pytest.raises(PreconditionNotMet):
        conduct(g1, hot, g2, cold, 10.0)  # overshoots equality


def test_reservoir_contact_validation(world):
    gas = add_ideal_gas(world)
    res = add_reservoir(world, 1.0)
    hot = GasState(2, 1)
    p = reservoir_contact(gas, hot, res, q=1.5 * (2.0 - 1.0))
    assert p.final_of(gas.atom).value.as_tuple() == pytest.approx((1.0, 1.0), abs=1e-12)
    with pytest.raises(PreconditionNotMet):
        reservoir_contact(gas, GasState(0.5, 1), res, q=0.1)  # colder gas cannot heat the bath


def test_run_segments(gas):
    p = run_segments(
        gas,
        GasState(1, 1),
        [{"type": "type2", "V2": 2.0}, {"type": "type1", "p2": 1.0}],
    )
    assert p.final_of(gas.atom).value.as_tuple() == pytest.approx((1.0, 2.0), abs=1e-12)


class TestGasPlanner:
    def test_full_catalog_decides_by_invariant(self, gas):
        planner = GasPlanner(gas)
        assert planner.decide(GasState(1, 1), GasState(3, 0.9))
        assert not planner.decide(GasState(3, 0.9), GasState(1, 1))

    def test_routes_share_endpoints_and_work(self, gas):
        planner = GasPlanner(gas)
        a, b = GasState(1, 1), GasState(2, 1.7)
        plans = planner.routes(a, b, count=3)
        assert len(plans) == 3
        works = []
        for plan in plans:
            state = a
            w = 0.0
            for fam in plan:
                piece = fam.slice(0.0, 1.0)
                assert piece.initial_of(gas.atom).value.as_tuple() == pytest.approx(
                    state.as_tuple(), abs=1e-9
                )
                state = piece.final_of(gas.atom).value
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
        if not connect_forward(gas.model, a, b):
            a, b = b, a
        plan = GasPlanner(gas).routes(a, b, count=1)[0]
        assert len(plan) <= 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    log_p=st.floats(-4, 4), log_v=st.floats(-4, 4), log_v2=st.floats(-4, 4),
    log_rel=st.floats(-14, -6), sign=st.sampled_from((-1.0, 1.0)),
)
def test_planner_decides_by_connect_forward(log_p, log_v, log_v2, log_rel, sign):
    """The planner reads reachability off ``connect_forward`` at every scale.

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
    assert GasPlanner(gas).decide(a, b) == connect_forward(g, a, b)

def test_segment_kinds_are_slotted_and_slice_through_the_family(gas, unit_reservoir):
    """Every kind slices and integrates through the one QuasistaticFamily code
    path, so no kind can bypass it (or the spans that wrap it)."""
    start = GasState(1.0, 1.0)
    legs = [type1(gas, start, 2.0), type2(gas, start, 2.0), type3(gas, unit_reservoir, start, 2.0)]
    for fam in legs:
        assert type(fam) is SEGMENT_KINDS[fam.tag]
    joined = concat_families(legs[1], legs[1].reversed())
    for fam in legs + [identity_family({gas.atom: start}), joined]:
        assert not hasattr(fam, "__dict__")
        for name in ("slice", "work_between", "heat_between"):
            assert getattr(type(fam), name) is getattr(QuasistaticFamily, name)
    with pytest.raises(ValueError, match="no derivative"):
        integrate_form(lambda point: (1.0, 0.0), joined, 0.0, 1.0)
