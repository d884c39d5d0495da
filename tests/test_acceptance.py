"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import random

from thermokernel.carnot import build_carnot, temperature_ratio
from thermokernel.energy import EnergyLedger, internal_energy
from thermokernel.entropy import assign_heat_temperature, clausius_sum, records_from_legs
from thermokernel.gas import (
    GasState,
    add_ideal_gas,
    conduct,
    connect_reversible,
    gas_S,
    gas_T,
    gas_U,
    gas_U_sv,
    gas_handle,
    type2,
    type3,
)
from thermokernel.processes import (
    concatenate,
    make_process,
    reverse_of,
    work_of,
)
from thermokernel.reservoirs import add_reservoir
from thermokernel.scaling import UVState, check_concavity, entropy_uv, max_entropy_split
from thermokernel.suites import (
    random_friction_cycle,
    random_gas_state,
    random_reversible_legs,
    random_reversible_work_process,
    random_work_process,
)
from thermokernel.systems import World, clone_system, compose, system
from thermokernel.entropy import EntropyLedger, check_entropy_theorem
from thermokernel.gas import GasModel

GRID = [0.25 * 16.0 ** (i / 19.0) for i in range(20)]


def criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


def test_01_internal_energy_grid():
    world = World()
    gas = add_ideal_gas(world)
    ledger = EnergyLedger(world)
    worst = 0.0
    for p in GRID:
        for v in GRID:
            s = GasState(p, v)
            got = internal_energy(ledger, gas.system, {gas.atom: s})
            want = gas_U(gas.model, s)
            worst = max(worst, abs(got - want) / abs(want))
    criterion(1, "internal energy via constructed paths", worst <= 1e-6,
              f"400 states, worst rel err {worst:.2e}")


def test_02_entropy_grid_and_path_independence():
    world = World()
    gas = add_ideal_gas(world)
    rng = random.Random(42)
    worst_abs = 0.0
    worst_spread = 0.0
    for p in GRID:
        for v in GRID:
            s = GasState(p, v)
            want = gas_S(gas.model, s)
            values = []
            for _ in range(3):
                theta = 0.3 * 10.0 ** rng.random()
                legs = connect_reversible(gas, gas.model.sigma0, s, theta)
                q = legs[1].heat_between(gas.atom, 0.0, 1.0)
                values.append(q / theta)
            worst_abs = max(worst_abs, max(abs(x - want) for x in values))
            worst_spread = max(worst_spread, max(values) - min(values))
    ok = worst_abs <= 1e-6 and worst_spread <= 1e-8
    criterion(2, "entropy via reversible reservoir sequences", ok,
              f"1200 routes, worst abs err {worst_abs:.2e}, "
              f"worst theta-dependence {worst_spread:.2e}")


def test_03_carnot_universality():
    rng = random.Random(42)
    specs = [
        {"q_target": -1.0, "volume_ratio": 2.0},
        {"q_target": -0.7, "volume_ratio": 1.5},
        {"q_target": -1.3, "n": 0.8},
    ]
    worst_univ = 0.0
    worst_ideal = 0.0
    for _ in range(20):
        th1 = rng.uniform(0.5, 3.0)
        th2 = rng.uniform(0.5, 3.0)
        if abs(th1 - th2) < 1e-3:
            th2 += 0.3
        world = World()
        r1, r2 = add_reservoir(world, th1), add_reservoir(world, th2)
        ratios = [-(run := build_carnot(r1, r2, **spec)).q1 / run.q2 for spec in specs]
        worst_univ = max(worst_univ, (max(ratios) - min(ratios)) / max(ratios))
        worst_ideal = max(
            worst_ideal, max(abs(r - th1 / th2) / (th1 / th2) for r in ratios)
        )
    ok = worst_univ <= 1e-6 and worst_ideal <= 1e-6
    criterion(3, "Carnot ratio universality", ok,
              f"20 pairs x 3 configs, spread {worst_univ:.2e}, "
              f"vs parameter ratio {worst_ideal:.2e}")


def test_04_temperature_ratio_algebra():
    rng = random.Random(42)
    world = World()
    r = add_reservoir(world, 1.7)
    clone_err = abs(temperature_ratio(r, r) - 1.0)
    worst_recip = 0.0
    worst_chain = 0.0
    for _ in range(50):
        world = World()
        rs = [add_reservoir(world, rng.uniform(0.4, 3.5)) for _ in range(3)]
        t12 = temperature_ratio(rs[0], rs[1])
        t21 = temperature_ratio(rs[1], rs[0])
        t23 = temperature_ratio(rs[1], rs[2])
        t13 = temperature_ratio(rs[0], rs[2])
        worst_recip = max(worst_recip, abs(t12 - 1.0 / t21))
        worst_chain = max(worst_chain, abs(t12 * t23 - t13) / abs(t13))
    ok = clone_err <= 1e-8 and worst_recip <= 1e-8 and worst_chain <= 1e-6
    criterion(4, "temperature ratio algebra", ok,
              f"clone {clone_err:.2e}, reciprocal {worst_recip:.2e}, "
              f"50 chains {worst_chain:.2e}")


def test_05_clausius_cycles():
    rng = random.Random(42)
    worst_rev = 0.0
    worst_fric = -math.inf
    for i in range(500):
        world = World()
        gas = add_ideal_gas(world)
        start = random_gas_state(rng)
        if i % 2 == 0:
            legs = random_reversible_legs(gas, rng, start, moves=1 + rng.randrange(3))
            worst_rev = max(
                worst_rev,
                abs(clausius_sum(records_from_legs(legs, gas), probe=gas.system)),
            )
        else:
            legs = random_friction_cycle(gas, rng, start, moves=rng.randrange(3))
            worst_fric = max(
                worst_fric,
                clausius_sum(records_from_legs(legs, gas), probe=gas.system),
            )
    ok = worst_rev <= 1e-8 and worst_fric < -1e-8
    criterion(5, "Clausius sums over 500 cycles", ok,
              f"reversible worst |sum| {worst_rev:.2e}, "
              f"friction max sum {worst_fric:.2e}")


def test_06_entropy_theorem_monotone():
    rng = random.Random(42)
    world = World()
    gas = add_ideal_gas(world)
    ledger = EntropyLedger(world)
    worst = math.inf
    worst_rev = 0.0
    for i in range(1000):
        start = random_gas_state(rng)
        if i % 4 == 0:
            p = random_reversible_work_process(gas, rng, start)
            worst_rev = max(
                worst_rev, abs(check_entropy_theorem(gas.system, p, ledger).delta_s)
            )
        else:
            p = random_work_process(gas, rng, start, segments=1 + rng.randrange(3))
            worst = min(worst, check_entropy_theorem(gas.system, p, ledger).delta_s)
    ok = worst >= -1e-9 and worst_rev <= 1e-9
    criterion(6, "entropy monotone over 1000 work processes", ok,
              f"min dS {worst:.2e}, reversible worst |dS| {worst_rev:.2e}")


def test_07_heat_flow_signs():
    rng = random.Random(42)
    ok = True
    detail = ""
    for _ in range(30):
        th1 = rng.uniform(0.4, 3.0)
        th2 = rng.uniform(0.4, 3.0)
        if abs(th1 - th2) < 1e-3:
            th2 *= 1.5
        world = World()
        r1, r2 = add_reservoir(world, th1), add_reservoir(world, th2)
        run = build_carnot(r1, r2, q_target=rng.choice([-1.0, 0.6]))
        if run.process.reversible and not run.trivial and not run.q1 * run.q2 < 0:
            ok = False
            detail = f"thetas ({th1}, {th2}) gave q1={run.q1}, q2={run.q2}"
            break
    criterion(7, "reversible runs move heat in opposite directions", ok, detail)


def test_08_conduction_temperature_interval():
    world = World()
    g1 = add_ideal_gas(world)
    g2 = add_ideal_gas(world)
    hot, cold = GasState(2.0, 1.0), GasState(1.0, 1.0)  # gas temperatures 2 and 1
    p = conduct(g1, hot, g2, cold, q=0.05)
    interval = assign_heat_temperature(world, g1.system, g2.system, p)
    err = max(abs(interval.lo - 1.0), abs(interval.hi - 2.0))
    criterion(8, "direct conduction admits the whole band", err <= 1e-6,
              f"interval [{interval.lo:.9f}, {interval.hi:.9f}]")


def test_09_maximum_entropy():
    rng = random.Random(42)
    base = GasModel()
    worst_arg = 0.0
    worst_val = 0.0
    for _ in range(100):
        lam = rng.uniform(0.1, 0.9)
        total = UVState(rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0))
        res = max_entropy_split(base, lam, total)
        span = max(abs(total.U), total.V)
        worst_arg = max(
            worst_arg,
            abs(res.split[0].U - lam * total.U) / span,
            abs(res.split[0].V - lam * total.V) / span,
        )
        worst_val = max(
            worst_val, abs(res.s_max - entropy_uv(base, total.U, total.V))
        )
    pairs = [
        (
            UVState(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)),
            UVState(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)),
        )
        for _ in range(1000)
    ]
    rep = check_concavity(base, pairs)
    ok = worst_arg <= 1e-6 and worst_val <= 1e-8 and rep.min_slack >= -1e-10
    criterion(9, "maximum entropy at the proportional split", ok,
              f"100 draws argmax {worst_arg:.2e}, value {worst_val:.2e}, "
              f"concavity slack {rep.min_slack:.2e}")


def test_10_algebra_laws():
    rng = random.Random(42)
    world = World()
    atoms = [world.new_atom("abstract") for _ in range(6)]
    ok = True
    detail = ""
    # work additivity under concatenation and disjoint composition, exactly
    for _ in range(200):
        shared = atoms[2]
        p = make_process(
            {atoms[0]: (0.0, 1.0, rng.uniform(-5, 5)),
             shared: (0.0, 1.0, rng.uniform(-5, 5))}
        )
        q = make_process(
            {shared: (1.0, 2.0, rng.uniform(-5, 5)),
             atoms[3]: (7.0, 8.0, rng.uniform(-5, 5))}
        )
        r = concatenate(p, q)
        for a in atoms[:4]:
            if r.work_on(a) != p.work_on(a) + q.work_on(a):
                ok, detail = False, "per-atom concatenation additivity broke"
        s1, s2 = system(atoms[0], shared), system(atoms[3])
        lhs = work_of(compose(s1, s2), r)
        if abs(lhs - (work_of(s1, r) + work_of(s2, r))) > 1e-12:
            ok, detail = False, "composition additivity broke"
        # concatenation state rule: solo atoms keep their own endpoint states
        if r.initial_of(atoms[3]) != 7.0 or r.final_of(atoms[0]) != 1.0:
            ok, detail = False, "concatenation state rule broke"
    # reverse negation on constructors flagged reversible
    world2 = World()
    gas = add_ideal_gas(world2)
    res = add_reservoir(world2, 1.0)
    for fam in (type2(gas, GasState(1, 1), 2.0), type3(gas, res, GasState(1, 1), 2.0)):
        p = fam.slice(0.0, 1.0)
        r = reverse_of(p)
        for atom in p.involved:
            if abs(r.work_on(atom) + p.work_on(atom)) > 1e-12:
                ok, detail = False, "reverse negation beyond 1e-12"
    # clone invariance of work and heat footprints
    copy, mapping = clone_system(world2, compose(gas.system, res.system))
    gas2 = gas_handle(world2, mapping[gas.atom])
    from thermokernel.reservoirs import reservoir_handle

    res2 = reservoir_handle(world2, mapping[res.atom])
    fam1 = type3(gas, res, GasState(1, 1), 2.0)
    fam2 = type3(gas2, res2, GasState(1, 1), 2.0)
    if abs(fam1.slice(0, 1).work_on(gas.atom) - fam2.slice(0, 1).work_on(gas2.atom)) > 1e-12:
        ok, detail = False, "clone work footprint differs"
    if abs(
        fam1.heat_between(gas.atom, 0, 1) - fam2.heat_between(gas2.atom, 0, 1)
    ) > 1e-12:
        ok, detail = False, "clone heat footprint differs"
    criterion(10, "footprint algebra laws", ok, detail)


def test_11_temperature_as_energy_entropy_slope():
    g = GasModel()
    worst = 0.0
    h = 1e-6
    for p in (0.3, 1.0, 2.5):
        for v in (0.4, 1.0, 3.0):
            s = GasState(p, v)
            s_val = gas_S(g, s)
            slope = (gas_U_sv(g, s_val + h, v) - gas_U_sv(g, s_val - h, v)) / (2 * h)
            worst = max(worst, abs(slope - gas_T(g, s)) / gas_T(g, s))
    criterion(11, "temperature equals dU/dS at fixed volume", worst <= 1e-4,
              f"9 states, worst rel err {worst:.2e}")
