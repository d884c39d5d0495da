import math
import random
import tracemalloc

import pytest

from thermokernel.energy import (
    EnergyLedger,
    check_first_law,
    delta_u,
    heat_of,
    internal_energy,
)
from thermokernel.entropy import assign_heat_temperature
from thermokernel.errors import DomainError
from thermokernel.gas import (
    GasModel,
    GasPlanner,
    GasState,
    add_ideal_gas,
    connect_forward,
    gas_U,
    type1,
    type2,
    type3,
)
from thermokernel.processes import make_identity, reverse_of
from thermokernel.quasistatic import QuasistaticFamily
from thermokernel.systems import compose

from conftest import grid_with_shared_columns, orientation_edges

LN2 = math.log(2.0)


class TestReaches:
    """Single-gas reachability is decided by the planner's ``routes``."""

    def test_friction_raises_pressure(self, gas):
        planner = GasPlanner(gas)
        assert planner.routes(GasState(1, 1), GasState(2, 1))

    def test_friction_cannot_lower_pressure(self, gas):
        planner = GasPlanner(gas)
        assert planner.routes(GasState(2, 1), GasState(1, 1)) == []

    def test_reflexive(self, gas):
        planner = GasPlanner(gas)
        sigma = GasState(1.3, 0.9)
        ((leg,),) = planner.routes(sigma, sigma, count=1)
        p = leg.slice(0.0, 1.0)
        assert p.initial_of(gas.atom) == sigma
        assert p.final_of(gas.atom) == sigma


class TestInternalEnergy:
    def test_reference_value(self, world, gas):
        ledger = EnergyLedger(world)
        u0 = internal_energy(ledger, gas.system, {gas.atom: gas.model.sigma0})
        assert u0 == pytest.approx(1.5, abs=1e-12)

    def test_worked_example(self, world, gas):
        ledger = EnergyLedger(world)
        got = internal_energy(ledger, gas.system, {gas.atom: GasState(2, 3)})
        assert got == pytest.approx(9.0, rel=1e-9)

    def test_backward_direction(self, world, gas):
        # states below the reference invariant are reached by a process back
        # to the reference, with the sign flipped
        ledger = EnergyLedger(world)
        s = GasState(0.5, 1.0)
        got = internal_energy(ledger, gas.system, {gas.atom: s})
        assert got == pytest.approx(gas_U(gas.model, s), rel=1e-9)

    def test_grid_against_closed_form(self, world, gas):
        ledger = EnergyLedger(world)
        rng = random.Random(7)
        for _ in range(25):
            s = GasState(
                0.25 * 16 ** rng.random(), 0.25 * 16 ** rng.random()
            )
            got = internal_energy(ledger, gas.system, {gas.atom: s})
            assert got == pytest.approx(gas_U(gas.model, s), rel=1e-6)

    @pytest.mark.parametrize(
        "factor", [1 + 1e-6, 1 - 1e-6, 1 + 1e-5, 1 + 1e-9, 1 - 1e-9, 1 + 1e-10]
    )
    def test_states_just_off_a_small_reference_adiabat(self, world, factor):
        # the reference invariant is about 1e-8: a state 1e-10 to 1e-5 off its
        # adiabat lies on another one, in the planner as in ``connect_forward``
        gas = add_ideal_gas(world, GasModel(sigma0=GasState(1e-3, 1e-3)))
        s = GasState(1e-3 * factor, 1e-3)
        got = internal_energy(EnergyLedger(world), gas.system, {gas.atom: s})
        assert got == pytest.approx(gas_U(gas.model, s), rel=1e-12, abs=0.0)

    def test_additive_over_disjoint_gases(self, world):
        g1 = add_ideal_gas(world)
        g2 = add_ideal_gas(world)
        ledger = EnergyLedger(world)
        s1, s2 = GasState(2, 1), GasState(0.5, 3)
        sigma = {g1.atom: s1, g2.atom: s2}
        both = compose(g1.system, g2.system)
        total = internal_energy(ledger, both, sigma)
        parts = internal_energy(ledger, g1.system, {g1.atom: s1}) + internal_energy(
            ledger, g2.system, {g2.atom: s2}
        )
        assert total == pytest.approx(parts, rel=1e-12)


def test_state_function_delta_matches_ledger(world, gas):
    ledger = EnergyLedger(world)
    p = type2(gas, GasState(1, 1), 2.0).slice(0.0, 1.0)
    initial = {gas.atom: p.initial_of(gas.atom)}
    final = {gas.atom: p.final_of(gas.atom)}
    delta = internal_energy(ledger, gas.system, final) - internal_energy(
        ledger, gas.system, initial
    )
    assert delta == pytest.approx(p.work_on(gas.atom), abs=1e-9)
    assert initial[gas.atom] == GasState(1, 1)


class TestHeat:
    def test_work_process_has_zero_heat(self, world, gas):
        ledger = EnergyLedger(world)
        p = type2(gas, GasState(1, 1), 2.0).slice(0.0, 1.0)
        assert delta_u(ledger, gas.system, p) == pytest.approx(p.work_on(gas.atom), abs=1e-9)
        assert heat_of(ledger, gas.system, p) == pytest.approx(0.0, abs=1e-9)

    def test_isothermal_heat(self, world, gas, unit_reservoir):
        ledger = EnergyLedger(world)
        p = type3(gas, unit_reservoir, GasState(1, 1), 2.0).slice(0.0, 1.0)
        assert heat_of(ledger, gas.system, p) == pytest.approx(LN2, abs=1e-9)

    def test_identity_heat_zero(self, world, gas):
        ledger = EnergyLedger(world)
        ident = make_identity(gas.system, {gas.atom: GasState(1, 1)})
        assert heat_of(ledger, gas.system, ident) == 0.0

    def test_heat_sign_flips_under_reverse(self, world, gas, unit_reservoir):
        ledger = EnergyLedger(world)
        p = type3(gas, unit_reservoir, GasState(1, 1), 2.0).slice(0.0, 1.0)
        r = reverse_of(p)
        assert heat_of(ledger, gas.system, r) == pytest.approx(
            -heat_of(ledger, gas.system, p), abs=1e-9
        )

    def test_bipartite_heats_are_opposite(self, world, gas, unit_reservoir):
        ledger = EnergyLedger(world)
        p = type3(gas, unit_reservoir, GasState(1, 1), 2.0).slice(0.0, 1.0)
        q_gas = heat_of(ledger, gas.system, p)
        q_res = heat_of(ledger, unit_reservoir.system, p)
        assert q_gas == pytest.approx(-q_res, abs=1e-9)


class TestFirstLawCheck:
    def test_conformant_catalog(self, gas):
        rng = random.Random(3)
        pairs = [
            (
                GasState(0.25 * 16 ** rng.random(), 0.25 * 16 ** rng.random()),
                GasState(0.25 * 16 ** rng.random(), 0.25 * 16 ** rng.random()),
            )
            for _ in range(20)
        ]
        report = check_first_law(GasPlanner(gas), pairs)
        assert report.passed
        assert report.pairs_checked == 20
        assert report.violations == []

    def test_corrupted_work_is_reported(self, gas):
        class Corrupted:
            def __init__(self, inner):
                self.inner = inner
                self.gas = inner.gas

            def routes(self, a, b, count=3):
                plans = self.inner.routes(a, b, count)
                if len(plans) > 1:
                    # fault injection: damage one leg's work bookkeeping
                    bad = plans[-1][0]
                    plans[-1][0] = Damaged(bad, self.gas.atom)
                return plans

        class Damaged(QuasistaticFamily):
            """``inner``'s states with a work rate of 1e6 on ``atom``."""

            __slots__ = ("inner", "atom")

            def __init__(self, inner, atom):
                super().__init__(inner.atoms)
                self.inner, self.atom = inner, atom

            def evaluate(self, lam):
                return self.inner.evaluate(lam)

            def work_rate(self, atom):
                return (lambda lam: 1e6) if atom == self.atom else None

        report = check_first_law(
            Corrupted(GasPlanner(gas)), [(GasState(1, 1), GasState(2, 1.5))]
        )
        assert not report.passed
        assert report.violations

    def test_empty_sample(self, gas):
        report = check_first_law(GasPlanner(gas), [])
        assert report.passed and report.pairs_checked == 0

    def test_pair_without_a_plan_is_reported(self, gas):
        class Planless:
            def __init__(self, gas):
                self.gas = gas

            def routes(self, a, b, count=3):
                return []

        report = check_first_law(Planless(gas), [(GasState(1, 1), GasState(2, 1.5))])
        assert not report.passed
        assert report.violations == [{"sigma1": (1, 1), "sigma2": (2, 1.5), "works": [],
                                      "reason": "no plan constructed"}]


class TestQueriesKeepNothing:
    """Energy queries read the anchor off the model binding every time: they
    add no atom to the world and hold nothing between calls."""

    def test_queries_leave_the_registry_unchanged(self, world, gas, unit_reservoir):
        ledger = EnergyLedger(world)
        contact = type3(gas, unit_reservoir, GasState(1, 1), 2.0).slice(0.0, 1.0)
        friction = type1(gas, GasState(0.5, 1.5), 2.0).slice(0.0, 1.0)
        both = compose(gas.system, unit_reservoir.system)
        before = len(world.registry)
        internal_energy(ledger, gas.system, {gas.atom: GasState(0.3, 2.0)})
        for p in (contact, friction):
            delta_u(ledger, both, p)
            heat_of(ledger, gas.system, p)
        assign_heat_temperature(world, gas.system, unit_reservoir.system, contact)
        assert len(world.registry) == before

    def test_registry_and_memory_stay_flat_over_5000_queries(self, world, gas):
        ledger = EnergyLedger(world)
        rng = random.Random(13)
        before = len(world.registry)

        def queries(n):
            for _ in range(n):
                s = GasState(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
                assert internal_energy(ledger, gas.system, {gas.atom: s}) == pytest.approx(
                    gas_U(gas.model, s), rel=1e-6)

        tracemalloc.start()
        try:
            queries(500)
            warm = tracemalloc.get_traced_memory()[0]
            queries(4500)
            grown = tracemalloc.get_traced_memory()[0] - warm
        finally:
            tracemalloc.stop()
        assert len(world.registry) == before
        # 4500 retained states of any kind would take several hundred KB.
        assert grown < 64 * 1024


def _hexes(values):
    return [float(v).hex() for v in values]


class TestBatchedEnergies:
    """``atom_energies`` shares each isolated leg among its own payloads only;
    every value keeps the bits of a query on its own."""

    @staticmethod
    def _unshared(gas, s):
        """The first route's energy, integrated leg by leg with nothing shared."""
        g = gas.model
        u0, planner = gas_U(g, g.sigma0), GasPlanner(gas)
        for plan in planner.routes(g.sigma0, s, count=1):
            return u0 + sum(f.work_between(gas.atom, 0.0, 1.0) for f in plan)
        (plan,) = planner.routes(s, g.sigma0, count=1)
        return u0 - sum(f.work_between(gas.atom, 0.0, 1.0) for f in plan)

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 7.0 / 5.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_matches_one_at_a_time_to_the_bit(self, world, gamma, seed):
        gas = add_ideal_gas(world, GasModel(gamma=gamma, sigma0=GasState(1.3, 0.8)))
        states = grid_with_shared_columns(random.Random(seed), gas.model.sigma0)
        up = [connect_forward(gas.model, gas.model.sigma0, s) for s in states]
        assert any(up) and not all(up)
        ledger = EnergyLedger(world)
        batch = list(ledger.atom_energies(gas.atom, states))
        assert _hexes(batch) == _hexes(ledger.atom_energy(gas.atom, s) for s in states)
        assert _hexes(batch) == _hexes(self._unshared(gas, s) for s in states)

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 7.0 / 5.0])
    def test_orientation_edges_match_one_at_a_time_to_the_bit(self, world, gamma, monkeypatch):
        gas = add_ideal_gas(world, GasModel(gamma=gamma, sigma0=GasState(1.3, 0.8)))
        g = gas.model
        states = orientation_edges(g)
        up = [connect_forward(g, g.sigma0, s) for s in states]
        down = [connect_forward(g, s, g.sigma0) for s in states]
        assert up[:4] + down[:3] == [True] * 7 and not up[4] and any(up[5:]) and not all(up[5:])
        calls, routes = [], GasPlanner.routes

        def spy(planner, a, b, count=3):
            calls.append((a, b, count))
            return routes(planner, a, b, count)

        ledger = EnergyLedger(world)
        with monkeypatch.context() as m:
            m.setattr(GasPlanner, "routes", spy)
            batch = list(ledger.atom_energies(gas.atom, states))
        # one route per payload, from the anchor whenever that way is forward
        assert calls == [(g.sigma0, s, 1) if u else (s, g.sigma0, 1) for s, u in zip(states, up)]
        assert _hexes(batch) == _hexes(ledger.atom_energy(gas.atom, s) for s in states)
        assert _hexes(batch) == _hexes(self._unshared(gas, s) for s in states)
        u0 = gas_U(g, g.sigma0)
        assert batch[0] == batch[1] == u0
        assert batch[2] == u0 + type2(gas, g.sigma0, states[2].V).work_between(gas.atom, 0.0, 1.0)

    def test_reservoir_atom(self, world, unit_reservoir):
        ledger = EnergyLedger(world)
        payloads = [0.0, -2.5, 3, 0.0, 1e300]
        batch = list(ledger.atom_energies(unit_reservoir.atom, payloads))
        assert _hexes(batch) == _hexes(ledger.atom_energy(unit_reservoir.atom, x)
                                       for x in payloads)

    def test_empty_batch(self, world, gas):
        assert list(EnergyLedger(world).atom_energies(gas.atom, [])) == []

    def test_values_are_computed_as_they_are_pulled(self, world):
        stiff = add_ideal_gas(world, GasModel(gamma=50.0))
        # the orientation edges come first
        good = orientation_edges(stiff.model) + [GasState(2.0, 1.1), GasState(0.5, 0.9)]
        bad = GasState(1.0, 1e7)  # p V^50 overflows
        pulled = []

        def payloads():
            for s in good[:-1] + [bad] + good[-1:]:
                pulled.append(s)
                yield s

        values = EnergyLedger(world).atom_energies(stiff.atom, payloads())
        assert pulled == []
        assert next(values) == EnergyLedger(world).atom_energy(stiff.atom, good[0])
        for _ in good[1:-1]:
            next(values)
        assert pulled == good[:-1]
        with pytest.raises(DomainError, match=r"gamma=50\.0"):
            next(values)
        assert pulled == good[:-1] + [bad]

    def test_batch_adds_no_atom_to_the_world(self, world, gas, unit_reservoir):
        ledger = EnergyLedger(world)
        before = len(world.registry)
        states = grid_with_shared_columns(random.Random(5), gas.model.sigma0)
        list(ledger.atom_energies(gas.atom, states + orientation_edges(gas.model)))
        list(ledger.atom_energies(unit_reservoir.atom, [1.0, 2.0]))
        assert len(world.registry) == before
