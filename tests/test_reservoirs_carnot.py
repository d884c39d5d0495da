import gc
import math
import random
import tracemalloc
import weakref

import pytest

from thermokernel.carnot import (
    absolute_temperature,
    build_carnot,
    build_degraded_carnot,
    machine_cyclic,
    same_temperature,
    temperature_ratio,
)
from thermokernel.energy import EnergyLedger, heat_of
from thermokernel.errors import PreconditionNotMet, SameReservoir
from thermokernel.gas import GasState, gas_T, reservoir_contact, type1
from thermokernel.processes import (
    classify,
    concatenate,
    eliminate_catalyst,
    make_process,
    reverse_of,
)
from thermokernel.reservoirs import (
    ReservoirModel, add_reservoir, check_second_law, heat_into, stir,
)
from thermokernel.systems import World, compose

LN2 = math.log(2.0)


@pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan, 10**400])
def test_reservoir_parameter_must_be_positive_and_finite(theta):
    """An int that no float holds is not finite either."""
    with pytest.raises(ValueError, match="^reservoir parameter theta must be positive and finite"):
        ReservoirModel(theta)


@pytest.mark.parametrize("build", [
    lambda r1, r2, rng: build_carnot(r1, r2, q_target=rng.uniform(-1.0, 1.0)),
    lambda r1, r2, rng: build_degraded_carnot(r1, r2, rng.uniform(1.2, 3.0)),
], ids=["carnot", "degraded"])
def test_heat_into_equals_the_ledger_heat(build):
    """A reservoir's heat read off its footprint entry equals the energy
    ledger's heat into its system, for both reservoirs of a seeded run."""
    rng = random.Random(11)
    for _ in range(8):
        world = World()
        r1 = add_reservoir(world, rng.uniform(1.5, 3.0))
        r2 = add_reservoir(world, rng.uniform(0.4, 1.2))
        run = build(r1, r2, rng)
        ledger = EnergyLedger(world)
        for r, q in ((r1, run.q1), (r2, run.q2)):
            assert heat_into(r, run.process) == heat_of(ledger, r.system, run.process) == q


class TestSecondLaw:
    def test_friction_then_dump_passes(self, world, gas):
        start = GasState(1, 1)
        res = add_reservoir(world, gas_T(gas.model, start))
        p1 = type1(gas, start, 2.0).slice(0.0, 1.0)
        hot = p1.final_of(gas.atom)
        q = gas.model.cv_R * hot.V * (hot.p - start.p)
        cycle = concatenate(p1, reservoir_contact(gas, hot, res, q))
        verdict = check_second_law(res, gas.system, cycle)
        assert verdict.passed
        assert verdict.work_on_machine == pytest.approx(1.5, abs=1e-12)
        assert verdict.heat_into_reservoir == pytest.approx(
            verdict.work_on_machine, abs=1e-12
        )

    def test_identity_passes_with_zero_work(self, world, gas):
        from thermokernel.processes import make_identity

        res = add_reservoir(world, 1.0)
        sigma = {gas.atom: GasState(1, 1), res.atom: 0.0}
        ident = make_identity(compose(gas.system, res.system), sigma)
        verdict = check_second_law(res, gas.system, ident)
        assert verdict.passed and verdict.work_on_machine == 0.0

    def test_synthetic_violation_fails(self, world, gas):
        res = add_reservoir(world, 1.0)
        bad = make_process(
            {
                gas.atom: (GasState(1, 1), GasState(1, 1), -1.0),
                res.atom: (0.0, -1.0, 0.0),
            }
        )
        verdict = check_second_law(res, gas.system, bad)
        assert not verdict.passed

    def test_preconditions(self, world, gas):
        res = add_reservoir(world, 1.0)
        open_gas = make_process(
            {
                gas.atom: (GasState(1, 1), GasState(2, 1), 1.5),
                res.atom: (0.0, 0.0, 0.0),
            }
        )
        with pytest.raises(PreconditionNotMet):
            check_second_law(res, gas.system, open_gas)  # not cyclic on the machine
        solo = make_process({gas.atom: (GasState(1, 1), GasState(1, 1), 0.0)})
        with pytest.raises(PreconditionNotMet):
            check_second_law(res, gas.system, solo)  # reservoir not involved

    def test_stir_rejects_extraction(self, world):
        res = add_reservoir(world, 1.0)
        p = stir(res, 2.5)
        assert p.work_on(res.atom) == 2.5
        for work in (-0.1, math.nan, math.inf):
            with pytest.raises(PreconditionNotMet, match=rf"finite and non-negative, got {work}$"):
                stir(res, work)


class TestBuildCarnot:
    def test_worked_example(self, world):
        hot = add_reservoir(world, 2.0)
        cold = add_reservoir(world, 1.0)
        run = build_carnot(hot, cold, q_target=-2.0)
        assert run.q1 == pytest.approx(-2.0, abs=1e-9)
        assert run.q2 == pytest.approx(1.0, abs=1e-9)
        assert run.w == pytest.approx(-1.0, abs=1e-9)
        assert run.process.reversible and machine_cyclic(run)
        assert run.w == pytest.approx(run.q1 + run.q2, abs=1e-9)

    def test_trivial_run(self, world):
        hot = add_reservoir(world, 2.0)
        cold = add_reservoir(world, 1.0)
        run = build_carnot(hot, cold, q_target=0.0)
        assert run.trivial and run.w == 0.0 and run.process.reversible

    @pytest.mark.parametrize("kwargs, message", [
        ({"volume_ratio": -5.0}, "volume ratio must be positive and != 1"),
        ({"volume_ratio": 1.0}, "volume ratio must be positive and != 1"),
        ({"volume_ratio": math.nan}, "volume ratio must be positive and != 1"),
        ({"n": -1.0}, "gas amount must be positive"),
        ({"n": math.nan}, "gas amount must be positive"),
        ({"volume_ratio": math.inf}, "volume ratio must be positive and != 1, and finite"),
        ({"n": math.inf}, "gas amount must be positive and finite"),
    ])
    def test_zero_heat_checks_its_arguments(self, world, kwargs, message):
        hot, cold = add_reservoir(world, 2.0), add_reservoir(world, 1.0)
        with pytest.raises(ValueError, match=message):
            build_carnot(hot, cold, 0.0, **kwargs)
        assert world.registry == {hot.atom, cold.atom}  # refused before a gas is minted

    @pytest.mark.parametrize("q_target, kwargs", [
        (math.nan, {"n": 1.0}),
        (math.inf, {}),
        (-math.inf, {"volume_ratio": math.nan}),
    ])
    def test_non_finite_heat_target_is_named_first(self, world, q_target, kwargs):
        hot, cold = add_reservoir(world, 2.0), add_reservoir(world, 1.0)
        with pytest.raises(ValueError, match="^heat target must be finite$"):
            build_carnot(hot, cold, q_target, **kwargs)
        assert world.registry == {hot.atom, cold.atom}

    def test_equivalent_reservoirs(self, world):
        r1 = add_reservoir(world, 1.7)
        r2 = add_reservoir(world, 1.7)
        run = build_carnot(r1, r2, q_target=-1.0)
        assert -run.q1 / run.q2 == pytest.approx(1.0, abs=1e-9)
        assert run.w == pytest.approx(0.0, abs=1e-9)

    def test_footprint_keeps_no_world_alive(self):
        """A reversible footprint holds states and works, not the legs that made it."""
        world = World()
        run = build_carnot(add_reservoir(world, 2.0), add_reservoir(world, 1.0), q_target=1.0)
        process, ref = run.process, weakref.ref(world)
        del world, run
        gc.collect()
        assert ref() is None
        assert process.reversible
        assert reverse_of(process).involved == process.involved

    def test_same_reservoir_rejected(self, world):
        r = add_reservoir(world, 1.0)
        with pytest.raises(SameReservoir):
            build_carnot(r, r, q_target=-1.0)

    def test_pumping_direction(self, world):
        hot = add_reservoir(world, 2.0)
        cold = add_reservoir(world, 1.0)
        run = build_carnot(hot, cold, q_target=+2.0)
        assert run.q1 == pytest.approx(2.0, abs=1e-9)
        assert run.q2 == pytest.approx(-1.0, abs=1e-9)
        assert run.w == pytest.approx(1.0, abs=1e-9)

    def test_explicit_gas_amount(self, world):
        hot = add_reservoir(world, 2.0)
        cold = add_reservoir(world, 1.0)
        run = build_carnot(hot, cold, q_target=-1.0, n=0.37)
        assert run.n == 0.37
        assert run.q1 == pytest.approx(-1.0, abs=1e-9)

    def test_serialization(self, world):
        hot = add_reservoir(world, 2.0)
        cold = add_reservoir(world, 1.0)
        blob = build_carnot(hot, cold, q_target=-2.0).to_json()
        assert blob["theta1"] == 2.0 and blob["theta2"] == 1.0
        assert blob["segments"] == ["type3", "type2", "type3", "type2"]
        assert blob["reversible"] is True

    def test_machine_is_catalytic_for_equivalent_reservoirs(self, world):
        """The cyclic zero-work machine can be elided, leaving a process on
        the reservoir pair alone: reversible heat transport at no work."""
        r1 = add_reservoir(world, 1.3)
        r2 = add_reservoir(world, 1.3)
        run = build_carnot(r1, r2, q_target=-0.8)
        assert classify(run.machine, run.process).catalytic
        pair = compose(r1.system, r2.system)
        reduced = eliminate_catalyst(pair, run.machine, run.process)
        assert reduced.involved == pair.atoms
        assert reduced.work_on(r1.atom) == pytest.approx(0.0, abs=1e-12)
        de1 = reduced.final_of(r1.atom) - reduced.initial_of(r1.atom)
        de2 = reduced.final_of(r2.atom) - reduced.initial_of(r2.atom)
        assert de1 == pytest.approx(-0.8, abs=1e-9)
        assert de2 == pytest.approx(+0.8, abs=1e-9)
        # elimination keeps the process reversible
        back = reverse_of(reduced)
        assert back.final_of(r1.atom) == pytest.approx(
            reduced.initial_of(r1.atom), abs=1e-9
        )


class TestTemperature:
    def test_ratio_worked_example(self, world):
        r1 = add_reservoir(world, 3.0)
        r2 = add_reservoir(world, 1.0)
        assert temperature_ratio(r1, r2) == pytest.approx(3.0, rel=1e-9)

    def test_ratio_self_is_one(self, world):
        r = add_reservoir(world, 1.7)
        assert temperature_ratio(r, r) == pytest.approx(1.0, abs=1e-8)

    def test_ratio_reciprocal(self, world):
        r1 = add_reservoir(world, 2.2)
        r2 = add_reservoir(world, 0.9)
        assert temperature_ratio(r2, r1) == pytest.approx(
            1.0 / temperature_ratio(r1, r2), rel=1e-8
        )

    def test_absolute_temperature_triple_point_style(self, world):
        ref = add_reservoir(world, 1.0)
        r = add_reservoir(world, 2.0)
        assert absolute_temperature(r, ref, 273.16) == pytest.approx(546.32, rel=1e-9)
        # a reservoir measured against itself sits at the reference value
        assert absolute_temperature(ref, ref, 273.16) == pytest.approx(273.16, rel=1e-9)

    @pytest.mark.parametrize("t_ref", [0.0, -273.16, math.nan])
    def test_absolute_temperature_needs_a_positive_reference(self, world, t_ref):
        ref, r = add_reservoir(world, 1.0), add_reservoir(world, 2.0)
        with pytest.raises(ValueError, match="^reference temperature must be positive$"):
            absolute_temperature(r, ref, t_ref)

    def test_reference_chaining(self, world):
        ref = add_reservoir(world, 1.0)
        mid = add_reservoir(world, 1.6)
        r = add_reservoir(world, 2.4)
        direct = absolute_temperature(r, ref, 273.16)
        t_mid = absolute_temperature(mid, ref, 273.16)
        chained = absolute_temperature(r, mid, t_mid)
        assert chained == pytest.approx(direct, rel=1e-6)

    def test_same_temperature_relation(self, world):
        a = add_reservoir(world, 1.7)
        b = add_reservoir(world, 1.7)
        c = add_reservoir(world, 1.7)
        d = add_reservoir(world, 2.0)
        assert same_temperature(a, b) and same_temperature(b, c)
        assert same_temperature(a, c)  # transitivity, the derived zeroth law
        assert same_temperature(a, a)
        assert not same_temperature(a, d)

    def test_universality_small(self, world):
        r1 = add_reservoir(world, 2.5)
        r2 = add_reservoir(world, 0.8)
        runs = [
            build_carnot(r1, r2, q_target=-1.0, volume_ratio=2.0),
            build_carnot(r1, r2, q_target=-0.3, volume_ratio=3.0),
            build_carnot(r1, r2, q_target=-2.0, n=0.5),
        ]
        ratios = [-r.q1 / r.q2 for r in runs]
        assert max(ratios) - min(ratios) < 1e-9
        assert ratios[0] == pytest.approx(2.5 / 0.8, rel=1e-9)


class TestTemperatureQueriesMintNothing:
    """The engine behind a temperature ratio runs in a scratch world, so the
    reservoirs' world is left as it was."""

    def test_queries_leave_the_registry_unchanged(self, world):
        a = add_reservoir(world, 1.7)
        b = add_reservoir(world, 0.6)
        before = len(world.registry)
        assert temperature_ratio(a, b) == pytest.approx(1.7 / 0.6, rel=1e-9)
        assert temperature_ratio(a, a) == pytest.approx(1.0, abs=1e-8)
        assert absolute_temperature(b, a, 300.0) == pytest.approx(300.0 * 0.6 / 1.7, rel=1e-9)
        assert absolute_temperature(a, a, 300.0) == pytest.approx(300.0, rel=1e-9)
        assert same_temperature(a, a) and not same_temperature(a, b)
        assert len(world.registry) == before

    def test_registry_and_memory_stay_flat_over_2000_ratios(self, world):
        rng = random.Random(17)
        reservoirs = [add_reservoir(world, rng.uniform(0.5, 3.0)) for _ in range(8)]
        before = len(world.registry)

        def ratios(n):
            for _ in range(n):
                r1, r2 = rng.choice(reservoirs), rng.choice(reservoirs)
                assert temperature_ratio(r1, r2) == pytest.approx(r1.theta / r2.theta, rel=1e-8)

        tracemalloc.start()
        try:
            ratios(200)
            warm = tracemalloc.get_traced_memory()[0]
            ratios(1800)
            grown = tracemalloc.get_traced_memory()[0] - warm
        finally:
            tracemalloc.stop()
        assert len(world.registry) == before
        # 1800 retained atoms with their bindings would take several hundred KB.
        assert grown < 64 * 1024


class TestSignsAndEfficiency:
    def test_sign_lemma_reversible(self, world):
        rng = random.Random(11)
        for _ in range(10):
            r1 = add_reservoir(world, rng.uniform(0.5, 3.0))
            r2 = add_reservoir(world, rng.uniform(0.5, 3.0))
            run = build_carnot(r1, r2, q_target=rng.choice([-1.0, 1.0]))
            assert run.q1 * run.q2 < 0

    def test_degraded_cycle_needs_two_reservoirs(self, world):
        r = add_reservoir(world, 2.0)
        with pytest.raises(SameReservoir,
                           match="^a Carnot engine needs two different reservoirs$"):
            build_degraded_carnot(r, r)

    @pytest.mark.parametrize("volume_ratio", [1.0, 0.5, -2.0, math.nan, -math.inf, math.inf])
    def test_degraded_cycle_needs_an_expansion(self, world, volume_ratio):
        """The ratio is named as the input before any gas is minted."""
        r1, r2 = add_reservoir(world, 2.0), add_reservoir(world, 1.0)
        before = len(world.registry)
        with pytest.raises(ValueError, match="^need a finite volume ratio > 1$"):
            build_degraded_carnot(r1, r2, volume_ratio=volume_ratio)
        assert len(world.registry) == before

    def test_degraded_cycle_is_suboptimal(self, world):
        r1 = add_reservoir(world, 2.0)
        r2 = add_reservoir(world, 1.0)
        bad = build_degraded_carnot(r1, r2, volume_ratio=2.0)
        assert not bad.process.reversible
        assert machine_cyclic(bad)
        ratio = -bad.q1 / bad.q2
        assert ratio < 2.0 - 1e-6
        # at least one heat flow is strictly positive even when irreversible
        assert max(bad.q1, bad.q2) > 0
        # and the analytic value of the degraded ratio checks out
        hop = 2.0 ** (1.0 / (5.0 / 3.0 - 1.0))
        expected = 2.0 * LN2 / (1.0 * math.log(2.0 * hop))
        assert ratio == pytest.approx(expected, rel=1e-9)

    def test_degraded_requires_hot_first(self, world):
        r1 = add_reservoir(world, 1.0)
        r2 = add_reservoir(world, 2.0)
        with pytest.raises(ValueError):
            build_degraded_carnot(r1, r2)
