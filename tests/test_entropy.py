import math
import random
import tracemalloc

import pytest

from thermokernel.energy import EnergyLedger
from thermokernel.entropy import (
    EntropyLedger,
    HeatFlowRecord,
    TemperatureInterval,
    assign_heat_temperature,
    check_entropy_theorem,
    clausius_sum,
    delta_entropy,
    records_from_legs,
)
from thermokernel.errors import (
    DomainError,
    NotCyclic,
    NotWorkProcess,
    NoTemperature,
    UnassignedTemperature,
    Unreachable,
    ZeroHeat,
)
from thermokernel.gas import (
    GasModel,
    GasState,
    add_ideal_gas,
    conduct,
    connect_forward,
    connect_reversible,
    gas_S,
    gas_T,
    isotherm_leg,
    reservoir_contact,
    type1,
    type2,
    type3,
)
from thermokernel.processes import AtomState, join, joint, make_identity, make_process, reverse_of
from thermokernel.reservoirs import add_reservoir, detached_reservoir
from thermokernel.systems import AtomId, compose

from conftest import grid_with_shared_columns

LN2 = math.log(2.0)


class TestAssignHeatTemperature:
    def test_reversible_contact_is_singleton(self, world):
        gas = add_ideal_gas(world)
        res = add_reservoir(world, 1.5)
        p = type3(gas, res, GasState(1.5, 1.0), 2.0).slice(0.0, 1.0)
        interval = assign_heat_temperature(world, gas.system, res.system, p)
        assert interval.is_singleton
        assert interval.lo == pytest.approx(1.5, abs=1e-12)

    def test_conduction_gives_band(self, world):
        g1 = add_ideal_gas(world)
        g2 = add_ideal_gas(world)
        p = conduct(g1, GasState(2, 1), g2, GasState(1, 1), 0.05)
        interval = assign_heat_temperature(world, g1.system, g2.system, p)
        assert interval.lo == pytest.approx(1.0, abs=1e-6)
        assert interval.hi == pytest.approx(2.0, abs=1e-6)
        assert 1.5 in interval

    def test_irreversible_reservoir_contact_band(self, world):
        gas = add_ideal_gas(world)
        res = add_reservoir(world, 1.0)
        p = reservoir_contact(gas, GasState(2, 1), res, q=0.5)
        interval = assign_heat_temperature(world, gas.system, res.system, p)
        assert interval.lo == pytest.approx(1.0, abs=1e-12)
        assert interval.hi == pytest.approx(2.0, abs=1e-12)

    def test_zero_heat_rejected(self, world):
        gas = add_ideal_gas(world)
        res = add_reservoir(world, 1.0)
        sigma = joint(AtomState(gas.atom, GasState(1, 1)), AtomState(res.atom, 0.0))
        ident = make_identity(compose(gas.system, res.system), sigma)
        with pytest.raises(ZeroHeat):
            assign_heat_temperature(world, gas.system, res.system, ident)

    def test_untagged_flow_has_no_temperature(self, world):
        g1 = add_ideal_gas(world)
        g2 = add_ideal_gas(world)
        synthetic = make_process(
            {
                g1.atom: (GasState(2, 1), GasState(1, 1), 0.0),
                g2.atom: (GasState(1, 1), GasState(2, 1), 0.0),
            }
        )
        with pytest.raises(NoTemperature):
            assign_heat_temperature(world, g1.system, g2.system, synthetic)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TemperatureInterval(2.0, 1.0)


class TestClausiusSum:
    def test_empty_is_zero(self):
        assert clausius_sum([]) == 0.0

    def test_reversible_carnot_cycle(self, world):
        from thermokernel.carnot import build_carnot

        hot = add_reservoir(world, 2.0)
        cold = add_reservoir(world, 1.0)
        run = build_carnot(hot, cold, q_target=-2.0)
        gas_atom = next(iter(run.machine.atoms))
        from thermokernel.gas import gas_handle

        records = records_from_legs(run.segments, gas_handle(world, gas_atom))
        total = clausius_sum(records, probe=run.machine)
        assert abs(total) <= 1e-8

    def test_friction_cycle_strictly_negative(self, world):
        gas = add_ideal_gas(world)
        start = GasState(1, 1)
        heated = type1(gas, start, 2.0)
        hot = heated.state_at(1.0)[gas.atom]
        legs = [heated] + connect_reversible(gas, hot, start, 1.0)
        records = records_from_legs(legs, gas)
        total = clausius_sum(records, probe=gas.system)
        assert total < -1e-8
        # the value is minus the entropy made by the friction leg
        assert total == pytest.approx(-1.5 * LN2, abs=1e-9)

    def test_not_cyclic_rejected(self, world):
        gas = add_ideal_gas(world)
        legs = [type2(gas, GasState(1, 1), 2.0)]
        records = records_from_legs(legs, gas)
        with pytest.raises(NotCyclic):
            clausius_sum(records, probe=gas.system)

    def test_unassigned_temperature_rejected(self, world):
        gas = add_ideal_gas(world)
        res = add_reservoir(world, 1.0)
        fam = type3(gas, res, GasState(1, 1), 2.0)
        out = fam.slice(0.0, 1.0)
        back = reverse_of(out)
        records = [
            HeatFlowRecord(out, q=LN2, temperature=None),
            HeatFlowRecord(back, q=-LN2, temperature=1.0),
        ]
        with pytest.raises(UnassignedTemperature):
            clausius_sum(records, probe=gas.system)


class TestEntropyFunction:
    def test_reference_and_worked_value(self, world):
        gas = add_ideal_gas(world)
        ledger = EntropyLedger(world)
        s0 = ledger.atom_entropy(gas.atom, GasState(1, 1))
        assert s0 == pytest.approx(0.0, abs=1e-12)
        got = ledger.atom_entropy(gas.atom, GasState(1, 2))
        assert got == pytest.approx(2.5 * LN2, abs=1e-9)

    def test_path_independence_three_routes(self, world):
        gas = add_ideal_gas(world)
        rng = random.Random(5)
        for _ in range(6):
            s1 = GasState(0.5 * 4 ** rng.random(), 0.5 * 4 ** rng.random())
            s2 = GasState(0.5 * 4 ** rng.random(), 0.5 * 4 ** rng.random())
            sums = []
            for _ in range(3):
                theta = 0.5 * 4 ** rng.random()
                legs = connect_reversible(gas, s1, s2, theta)
                q = legs[1].heat_between(gas.atom, 0.0, 1.0)
                sums.append(q / theta)
            assert max(sums) - min(sums) < 1e-8

    def test_joint_state_is_additive(self, world):
        """A joint process changes the entropy of the whole by the sum over its parts."""
        g1 = add_ideal_gas(world)
        g2 = add_ideal_gas(world)
        ledger = EntropyLedger(world)
        p1 = type1(g1, GasState(2, 1), 3.0).slice(0.0, 1.0)
        p2 = type1(g2, GasState(0.5, 3), 1.0).slice(0.0, 1.0)
        both = compose(g1.system, g2.system)
        total = delta_entropy(ledger, both, join(p1, p2))
        parts = delta_entropy(ledger, g1.system, p1) + delta_entropy(ledger, g2.system, p2)
        assert total == pytest.approx(parts, abs=1e-9)

    def test_reservoir_entropy(self, world):
        res = add_reservoir(world, 2.0)
        ledger = EntropyLedger(world)
        assert ledger.atom_entropy(res.atom, 3.0) == pytest.approx(1.5, abs=1e-12)


class TestEntropyTheorem:
    def test_friction_increases_entropy(self, world):
        gas = add_ideal_gas(world)
        ledger = EntropyLedger(world)
        p = type1(gas, GasState(1, 1), 2.0).slice(0.0, 1.0)
        verdict = check_entropy_theorem(gas.system, p, ledger)
        assert verdict.passed
        assert verdict.delta_s == pytest.approx(1.5 * LN2, abs=1e-9)

    def test_reversible_leg_keeps_entropy(self, world):
        gas = add_ideal_gas(world)
        ledger = EntropyLedger(world)
        p = type2(gas, GasState(1, 1), 2.0).slice(0.0, 1.0)
        verdict = check_entropy_theorem(gas.system, p, ledger)
        assert verdict.passed and verdict.reversible
        assert abs(verdict.delta_s) <= 1e-9

    def test_synthetic_decrease_fails(self, world):
        gas = add_ideal_gas(world)
        ledger = EntropyLedger(world)
        bad = make_process({gas.atom: (GasState(2, 1), GasState(1, 1), -1.5)})
        verdict = check_entropy_theorem(gas.system, bad, ledger)
        assert not verdict.passed
        assert verdict.delta_s < 0

    def test_requires_work_process(self, world):
        gas = add_ideal_gas(world)
        res = add_reservoir(world, 1.0)
        ledger = EntropyLedger(world)
        p = type3(gas, res, GasState(1, 1), 2.0).slice(0.0, 1.0)
        with pytest.raises(NotWorkProcess):
            check_entropy_theorem(gas.system, p, ledger)


class TestQueriesLeaveTheWorldAlone:
    """Entropy queries are read-only: they add no atom to the ledger's world."""

    def test_each_query_mints_nothing(self, world):
        gas = add_ideal_gas(world)
        res = add_reservoir(world, 1.5)
        ledger = EntropyLedger(world)
        friction = type1(gas, GasState(1, 1), 2.0).slice(0.0, 1.0)
        adiabat = type2(gas, GasState(0.7, 1.3), 2.0).slice(0.0, 1.0)
        before = len(world.registry)
        ledger.atom_entropy(gas.atom, GasState(2.0, 0.5))
        ledger.atom_entropy(res.atom, 4.0)
        delta_entropy(ledger, compose(gas.system, res.system), friction)
        for p in (friction, adiabat):
            assert check_entropy_theorem(gas.system, p, ledger).passed
        assert len(world.registry) == before

    def test_registry_and_memory_stay_flat_over_5000_queries(self, world):
        gas = add_ideal_gas(world)
        ledger = EntropyLedger(world)
        rng = random.Random(11)
        before = len(world.registry)

        def queries(n):
            for _ in range(n):
                start = GasState(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
                p = type1(gas, start, start.p * rng.uniform(1.1, 2.0)).slice(0.0, 1.0)
                assert check_entropy_theorem(gas.system, p, ledger).passed

        tracemalloc.start()
        try:
            queries(500)
            warm = tracemalloc.get_traced_memory()[0]
            queries(4500)
            grown = tracemalloc.get_traced_memory()[0] - warm
        finally:
            tracemalloc.stop()
        assert len(world.registry) == before
        # 4500 retained entries of any kind would take several hundred KB.
        assert grown < 64 * 1024


@pytest.mark.parametrize("kind", ["ideal-gas", "reservoir"])
def test_an_atom_the_world_does_not_hold_has_no_reference(world, kind):
    """Both ledgers read a missing binding as none: no bare ``KeyError``.

    A reservoir's energy is its payload whatever its world holds, so only
    the energy of a gas-kind atom has no reference.
    """
    add_ideal_gas(world)
    add_reservoir(world, 2.0)
    stranger = AtomId(5, kind)
    payload = GasState(1.0, 1.0) if kind == "ideal-gas" else 3.0
    with pytest.raises(NotWorkProcess, match=r"^no entropy reference for "):
        EntropyLedger(world).atom_entropy(stranger, payload)
    energy = EnergyLedger(world)
    if kind == "reservoir":
        assert energy.atom_energy(stranger, payload) == 3.0
    else:
        with pytest.raises(Unreachable, match=r"^no energy reference registered for "):
            energy.atom_energy(stranger, payload)


def test_zero_net_heat_still_moves_entropy(world):
    """Compress against a cold bath, expand against a hot one, so the net
    heat vanishes; the per-contact tally is negative and matches the closed
    form.  Entropy must never be computed from net heat."""
    gas = add_ideal_gas(world)
    th_cold, th_hot = 1.0, 2.0
    start = GasState(th_cold / 1.0, 1.0)  # on the cold isotherm
    cold = add_reservoir(world, th_cold)
    compress = type3(gas, cold, start, 0.5)
    q1 = compress.heat_between(gas.atom, 0.0, 1.0)
    mid = compress.state_at(1.0)[gas.atom]
    # isolated leg onto the hot isotherm
    v_on = (mid.p * mid.V ** gas.model.gamma / (gas.model.nR * th_hot)) ** (
        1.0 / (gas.model.gamma - 1.0)
    )
    climb = type2(gas, mid, v_on)
    on_hot = climb.state_at(1.0)[gas.atom]
    hot = add_reservoir(world, th_hot)
    ratio = math.exp(-q1 / (gas.model.nR * th_hot))
    expand = type3(gas, hot, on_hot, on_hot.V * ratio)
    q2 = expand.heat_between(gas.atom, 0.0, 1.0)
    assert q1 + q2 == pytest.approx(0.0, abs=1e-9)  # net heat zero by design
    per_segment = q1 / th_cold + q2 / th_hot
    assert per_segment < 0
    end = expand.state_at(1.0)[gas.atom]
    closed_form = gas_S(gas.model, end) - gas_S(gas.model, start)
    assert per_segment == pytest.approx(closed_form, abs=1e-9)
    assert abs(per_segment - (q1 + q2) / th_cold) > 0.1  # net-heat shortcut is wrong


def test_equal_state_change_heats_scale_with_temperature(world):
    """Two reversible routes inducing the same state change on the gas
    exchange different heats, but heat over temperature agrees."""
    gas = add_ideal_gas(world)
    start = GasState(1, 1)  # gas temperature 1
    # route 1: direct isothermal compression at the gas's own temperature
    r1 = add_reservoir(world, 1.0)
    direct = type3(gas, r1, start, 0.5)
    q1 = direct.heat_between(gas.atom, 0.0, 1.0)
    end = direct.state_at(1.0)[gas.atom]
    # route 2: isolated leg, isothermal leg at a different temperature, back
    legs = connect_reversible(gas, start, end, 2.0)
    q2 = legs[1].heat_between(gas.atom, 0.0, 1.0)
    assert abs(q1 - q2) > 0.1  # genuinely different heats
    assert q1 / 1.0 == pytest.approx(q2 / 2.0, rel=1e-6)


def test_delta_entropy_ignores_uninvolved_atoms(world):
    gas = add_ideal_gas(world)
    other = add_ideal_gas(world)
    ledger = EntropyLedger(world)
    p = type1(gas, GasState(1, 1), 2.0).slice(0.0, 1.0)
    both = compose(gas.system, other.system)
    assert delta_entropy(ledger, both, p) == pytest.approx(1.5 * LN2, abs=1e-9)


class TestBatchedEntropies:
    """``atom_entropies`` resolves its atom once per call; every value keeps
    the bits of a query on its own."""

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 7.0 / 5.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_batch_matches_one_at_a_time_to_the_bit(self, world, gamma, seed):
        gas = add_ideal_gas(world, GasModel(gamma=gamma, sigma0=GasState(1.3, 0.8), S0=0.25))
        states = grid_with_shared_columns(random.Random(seed), gas.model.sigma0)
        up = [connect_forward(gas.model, gas.model.sigma0, s) for s in states]
        assert any(up) and not all(up)
        ledger = EntropyLedger(world)
        batch = list(ledger.atom_entropies(gas.atom, states))
        assert [x.hex() for x in batch] == [
            ledger.atom_entropy(gas.atom, s).hex() for s in states]
        assert [x.hex() for x in batch] == [self._unbatched(gas, s).hex() for s in states]

    @staticmethod
    def _unbatched(gas, s):
        """``S0`` plus the heat over temperature of the one isotherm leg from ``sigma0``."""
        g = gas.model
        if s == g.sigma0:
            return g.S0 + 0.0
        theta = math.sqrt(gas_T(g, g.sigma0) * gas_T(g, s))
        leg = isotherm_leg(gas, detached_reservoir(theta), g.sigma0, s)
        return g.S0 + leg.heat_between(gas.atom, 0.0, 1.0) / theta

    def test_reservoir_atom_on_a_scale(self, world):
        res = add_reservoir(world, 1.5)
        ledger = EntropyLedger(world)
        payloads = [0.0, -2.5, 3, 0.0, 7.25]
        batch = list(ledger.atom_entropies(res.atom, payloads))
        assert [x.hex() for x in batch] == [
            ledger.atom_entropy(res.atom, x).hex() for x in payloads]

    def test_empty_batch(self, world):
        gas = add_ideal_gas(world)
        assert list(EntropyLedger(world).atom_entropies(gas.atom, [])) == []

    def test_values_are_computed_as_they_are_pulled(self, world):
        stiff = add_ideal_gas(world, GasModel(gamma=50.0))
        good = [GasState(1.0, 1.0), GasState(2.0, 1.1), GasState(0.5, 0.9)]
        bad = GasState(1.0, 1e7)  # p V^50 overflows
        pulled = []

        def payloads():
            for s in good[:2] + [bad] + good[2:]:
                pulled.append(s)
                yield s

        values = EntropyLedger(world).atom_entropies(stiff.atom, payloads())
        assert pulled == []
        assert next(values) == EntropyLedger(world).atom_entropy(stiff.atom, good[0])
        next(values)
        assert pulled == good[:2]
        with pytest.raises(DomainError, match=r"gamma=50\.0"):
            next(values)
        assert pulled == good[:2] + [bad]

    def test_batch_adds_no_atom_to_the_world(self, world):
        gas = add_ideal_gas(world)
        res = add_reservoir(world, 2.0)
        ledger = EntropyLedger(world)
        before = len(world.registry)
        states = grid_with_shared_columns(random.Random(5), gas.model.sigma0)
        list(ledger.atom_entropies(gas.atom, states))
        list(ledger.atom_entropies(res.atom, [1.0, 2.0]))
        assert len(world.registry) == before
