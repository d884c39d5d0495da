"""Write a full-precision digest of seeded footprints, heats, ratios and ledger values.

    python tests/tools/footprint_digest.py CHECKOUT OUT_FILE

Runs ``CHECKOUT/src`` in a fresh interpreter with ``THERMOKERNEL_TOL`` unset
and ``PYTHONHASHSEED=0`` and writes one line per value, every float as its
``repr``: footprints of seeded ``random_work_process`` runs and of
``connect``; ``records_from_legs`` and ``clausius_sum`` of reversible and
friction cycles; ``build_carnot`` runs and ``temperature_ratio``; energy
and entropy ledger values; ledger values over p x V grids at four exponents;
``build_degraded_carnot`` runs, ``reservoir_contact`` and ``stir``
footprints, and the ``classify_variable`` verdicts that ``suite_scaling``
reports.  The suite lines of ``verify`` print three digits, so a last-bit
drift shows only here:

    python tests/tools/footprint_digest.py BASE digest-base.txt
    python tests/tools/footprint_digest.py . digest-head.txt
    diff digest-base.txt digest-head.txt
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

SEED = 20240601
ROUNDS = 40


def _process(p) -> str:
    parts = []
    for atom, e in sorted(p.entries.items()):
        ini, fin = e.initial.value, e.final.value
        ini = ini.as_tuple() if hasattr(ini, "as_tuple") else ini
        fin = fin.as_tuple() if hasattr(fin, "as_tuple") else fin
        parts.append(f"{atom.id}:{atom.kind} {ini!r} -> {fin!r} w={e.work!r}")
    return f"[{'; '.join(parts)}] tags={sorted(p.tags)} rev={p.reversible}"


def emit(out) -> None:
    """The digest lines of the ``thermokernel`` on ``sys.path``."""
    import math
    import random

    from thermokernel.carnot import build_carnot, build_degraded_carnot, temperature_ratio
    from thermokernel.energy import EnergyLedger
    from thermokernel.entropy import EntropyLedger, clausius_sum, records_from_legs
    from thermokernel.gas import (GasModel, GasState, add_ideal_gas, connect, gas_T,
                                  reservoir_contact)
    from thermokernel.reservoirs import add_reservoir, stir
    from thermokernel.suites import (random_friction_cycle, random_gas_state,
                                     random_reversible_legs, random_work_process,
                                     suite_scaling)
    from thermokernel.systems import World

    def line(label, value):
        out.write(f"{label}: {value}\n")

    rng = random.Random(SEED)
    world = World()
    gas = add_ideal_gas(world)
    energy, entropy = EnergyLedger(world), EntropyLedger(world)
    for i in range(ROUNDS):
        start = random_gas_state(rng, 0.25, 4.0)
        p = random_work_process(gas, rng, start, segments=1 + i % 4)
        line(f"work-process {i}", _process(p))
        end = p.final_of(gas.atom).value
        line(f"energy {i}", f"{energy.atom_energy(gas.atom, start)!r} "
                            f"{energy.atom_energy(gas.atom, end)!r}")
        line(f"entropy {i}", f"{entropy.atom_entropy(gas.atom, start)!r} "
                             f"{entropy.atom_entropy(gas.atom, end)!r}")
        other = random_gas_state(rng, 0.25, 4.0)
        line(f"connect {i}", _process(connect(gas, start, other)))

        # four spare draws, so that the lines below keep their seeded inputs
        rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.random(), rng.random()

        cyc_world = World()
        cyc_gas = add_ideal_gas(cyc_world)
        cyc_start = random_gas_state(rng)
        if i % 2:
            legs = random_friction_cycle(cyc_gas, rng, cyc_start, moves=rng.randrange(3))
        else:
            legs = random_reversible_legs(cyc_gas, rng, cyc_start, moves=1 + rng.randrange(3))
        records = records_from_legs(legs, cyc_gas)
        for k, r in enumerate(records):
            line(f"record {i}.{k}", f"q={r.q!r} T={r.temperature!r} {_process(r.process)}")
        line(f"clausius-sum {i}", repr(clausius_sum(records, probe=cyc_gas.system)))

        run_world = World()
        th1, th2 = sorted(math.exp(rng.uniform(-1.5, 1.5)) for _ in range(2))
        r1, r2 = add_reservoir(run_world, th1), add_reservoir(run_world, th2)
        q = rng.uniform(-2.0, 2.0)
        run = build_carnot(r1, r2, q, volume_ratio=math.exp(rng.uniform(0.1, 1.0)))
        line(f"carnot {i}", f"q1={run.q1!r} q2={run.q2!r} w={run.w!r} n={run.n!r} "
                            f"{_process(run.process)}")
        line(f"temperature-ratio {i}", repr(temperature_ratio(r1, r2)))

    # ledger values over p x V grids: each V-column shares its volume, and
    # the rows lie on both sides of the reference adiabat
    rng = random.Random(SEED + 1)
    for gamma in (5.0 / 3.0, 7.0 / 5.0, 1.1, 3.0):
        grid_world = World()
        sigma0 = random_gas_state(rng, 0.5, 2.0)
        grid_gas = add_ideal_gas(grid_world, GasModel(gamma=gamma, sigma0=sigma0))
        energy, entropy = EnergyLedger(grid_world), EntropyLedger(grid_world)
        ps = sorted(sigma0.p * math.exp(rng.uniform(-3.0, 3.0)) for _ in range(4))
        vs = sorted(sigma0.V * math.exp(rng.uniform(-2.0, 2.0)) for _ in range(4))
        for p in ps:
            for v in vs:
                s = GasState(p, v)
                line(f"grid {gamma!r} {s.as_tuple()!r}",
                     f"U={energy.atom_energy(grid_gas.atom, s)!r} "
                     f"S={entropy.atom_entropy(grid_gas.atom, s)!r}")

    # friction-degraded cycles, irreversible contacts and stirring; every
    # reservoir starts at energy 0.0
    rng = random.Random(SEED + 2)
    for i in range(ROUNDS):
        run_world = World()
        th2 = math.exp(rng.uniform(-1.5, 1.5))
        r1 = add_reservoir(run_world, th2 * rng.uniform(1.2, 4.0))
        r2 = add_reservoir(run_world, th2)
        run = build_degraded_carnot(r1, r2, volume_ratio=math.exp(rng.uniform(0.1, 1.5)))
        line(f"degraded-carnot {i}", f"q1={run.q1!r} q2={run.q2!r} w={run.w!r} n={run.n!r} "
                                     f"{_process(run.process)}")

        contact_world = World()
        contact_gas = add_ideal_gas(contact_world)
        start = random_gas_state(rng, 0.25, 4.0)
        t = gas_T(contact_gas.model, start)
        hot_bath = add_reservoir(contact_world, t * rng.uniform(0.3, 0.9))
        cold_bath = add_reservoir(contact_world, t * rng.uniform(1.1, 3.0))
        give = rng.uniform(0.05, 0.5) * (t - hot_bath.theta) * contact_gas.model.cv_R
        take = -rng.uniform(0.05, 0.5) * (cold_bath.theta - t) * contact_gas.model.cv_R
        line(f"contact {i} out", _process(reservoir_contact(contact_gas, start, hot_bath, give)))
        line(f"contact {i} in", _process(reservoir_contact(contact_gas, start, cold_bath, take)))

        rng.uniform(-5.0, 5.0)  # a spare draw: the stirring work keeps its seeded value
        line(f"stir {i}", _process(stir(add_reservoir(contact_world, t), rng.uniform(0.0, 3.0))))

    for seed in range(8):
        for k, text in enumerate(suite_scaling(seed=SEED + seed, samples=2 + seed).lines()):
            line(f"scaling {seed}.{k}", text)


def main(argv: list[str] | None = None) -> int:
    if argv is None and sys.argv[1:] == ["--emit"]:
        emit(sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="root of the checkout whose src/ is digested")
    parser.add_argument("out_file", help="file the digest lines are written to")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isdir(os.path.join(src, "thermokernel")):
        parser.error(f"{src} holds no thermokernel package")
    env = {k: v for k, v in os.environ.items() if k != "THERMOKERNEL_TOL"}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    with open(args.out_file, "w", encoding="utf-8") as fh:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--emit"],
                       env=env, stdout=fh, check=True)
    with open(args.out_file, encoding="utf-8") as fh:
        print(f"{sum(1 for _ in fh)} digest lines from {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
