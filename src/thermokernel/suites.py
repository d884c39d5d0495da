"""Randomized invariant suites behind ``thermokernel verify``.

Each suite draws its own seeded RNG, runs one family of checks (first law,
second law, Carnot universality and the temperature-ratio algebra, Clausius
sums, the entropy monotone, maximum entropy, scaling) and reports pass/fail
lines with counterexamples.  The same builders are reused by the acceptance
tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .carnot import build_carnot, build_degraded_carnot, machine_cyclic, temperature_ratio
from .config import fold_worst
from .energy import check_first_law
from .entropy import (
    EntropyLedger,
    check_entropy_theorem,
    clausius_sum,
    records_from_legs,
)
from .gas import (
    GasAtom,
    GasModel,
    GasPlanner,
    GasState,
    IsothermSegment,
    add_ideal_gas,
    connect_reversible,
    gas_S,
    gas_T,
    gas_U,
    reservoir_contact,
    type1,
    type2,
)
from .processes import Process, concatenate
from .quasistatic import QuasistaticFamily
from .reservoirs import add_reservoir, check_second_law
from .scaling import (
    UVState,
    check_concavity,
    classify_variable,
    entropy_uv,
    max_entropy_split,
    scale,
    scaled_state,
)
from .systems import World


@dataclass
class SuiteCheck:
    label: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        text = f"{self.label}: {mark}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class SuiteReport:
    name: str
    checks: list[SuiteCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(SuiteCheck(label, passed, detail))

    def lines(self) -> list[str]:
        return [f"[{self.name}] {c.line()}" for c in self.checks]

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


# --- random builders ---------------------------------------------------------

def random_gas_state(rng: random.Random, lo: float = 0.5, hi: float = 2.0) -> GasState:
    span = math.log(hi / lo)
    return GasState(
        lo * math.exp(rng.random() * span), lo * math.exp(rng.random() * span)
    )


def _isolated_or_contact(
    gas: GasAtom, state: GasState, isolated: bool, factor: float
) -> QuasistaticFamily:
    """An isolated leg, or an isothermal contact with a fresh reservoir, to ``factor`` times V."""
    if isolated:
        return type2(gas, state, state.V * factor)
    return IsothermSegment.build(gas, state, gas_T(gas.model, state), state.V * factor)


def random_reversible_legs(
    gas: GasAtom, rng: random.Random, start: GasState, moves: int = 2
) -> list[QuasistaticFamily]:
    """Random reversible walk that returns to its starting state.

    Moves alternate freely between isolated legs and isothermal contacts
    (each with a fresh reservoir); the closing template brings the state
    home through an intermediate isotherm of random parameter.
    """
    legs: list[QuasistaticFamily] = []
    state = start
    for _ in range(moves):
        factor = math.exp(rng.uniform(-0.5, 0.5))
        fam = _isolated_or_contact(gas, state, rng.random() < 0.5, factor)
        legs.append(fam)
        state = fam.state_at(1.0)[gas.atom]
    theta_home = math.sqrt(
        gas_T(gas.model, state) * gas_T(gas.model, start)
    ) * math.exp(rng.uniform(-0.3, 0.3))
    legs.extend(connect_reversible(gas, state, start, theta_home))
    return legs


def random_friction_cycle(
    gas: GasAtom, rng: random.Random, start: GasState, moves: int = 2
) -> list[QuasistaticFamily]:
    """Like the reversible walk, but with at least one friction leg inside."""
    legs: list[QuasistaticFamily] = []
    state = start
    frictions = 1 + rng.randrange(2)
    for i in range(moves + frictions):
        if i < frictions:
            fam = type1(gas, state, state.p * (1.0 + rng.uniform(0.1, 1.0)))
        else:
            isolated = rng.random() < 0.5
            fam = _isolated_or_contact(gas, state, isolated, math.exp(rng.uniform(-0.5, 0.5)))
        legs.append(fam)
        state = fam.state_at(1.0)[gas.atom]
    theta_home = math.sqrt(
        gas_T(gas.model, state) * gas_T(gas.model, start)
    )
    legs.extend(connect_reversible(gas, state, start, theta_home))
    return legs


def random_work_process(
    gas: GasAtom, rng: random.Random, start: GasState, segments: int = 3
) -> Process:
    """Random alternating friction/isolated sequence: a work process on the gas."""
    state = start
    pieces = []
    for i in range(segments):
        if i % 2 == 0 and rng.random() < 0.7:
            fam = type1(gas, state, state.p * (1.0 + rng.uniform(0.05, 0.8)))
        else:
            fam = type2(gas, state, state.V * math.exp(rng.uniform(-0.6, 0.6)))
        pieces.append(fam.slice(0.0, 1.0))
        state = pieces[-1].final_of(gas.atom)
    return concatenate(*pieces)


def random_reversible_work_process(gas: GasAtom, rng: random.Random, start: GasState) -> Process:
    """Two random isolated legs in a row: a reversible work process on the gas."""
    state = start
    pieces = []
    for _ in range(2):
        pieces.append(type2(gas, state, state.V * math.exp(rng.uniform(-0.6, 0.6))).slice(0.0, 1.0))
        state = pieces[-1].final_of(gas.atom)
    return concatenate(*pieces)


def random_splits(rng: random.Random, n: int) -> Iterator[tuple[float, UVState]]:
    """``n`` draws of a split fraction in [0.1, 0.9] and a total (U, V) in [1, 5]^2, as pulled."""
    for _ in range(n):
        lam = rng.uniform(0.1, 0.9)
        yield lam, UVState(rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0))


def random_uv_pairs(rng: random.Random, n: int) -> list[tuple[UVState, UVState]]:
    """``n`` pairs of (U, V) states in [0.5, 5]^2."""
    def draw() -> UVState:
        return UVState(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))

    return [(draw(), draw()) for _ in range(n)]


# --- suites -------------------------------------------------------------------

def suite_first_law(seed: int = 42, pairs: int = 40) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("first-law")
    world = World()
    gas = add_ideal_gas(world)
    planner = GasPlanner(gas)
    sample = [
        (random_gas_state(rng, 0.25, 4.0), random_gas_state(rng, 0.25, 4.0))
        for _ in range(pairs)
    ]
    result = check_first_law(planner, sample)
    report.add(
        "path-independent work totals",
        result.passed,
        f"pairs={result.pairs_checked} violations={len(result.violations)}",
    )
    return report


def suite_second_law(seed: int = 42, n: int = 25) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("second-law")
    worst = math.inf
    all_passed = True
    for _ in range(n):
        world = World()
        gas = add_ideal_gas(world)
        start = random_gas_state(rng)
        res = add_reservoir(world, gas_T(gas.model, start))
        heated = type1(gas, start, start.p * (1.0 + rng.uniform(0.1, 1.5)))
        p1 = heated.slice(0.0, 1.0)
        hot = p1.final_of(gas.atom)
        q = gas.model.cv_R * hot.V * (hot.p - start.p)
        p2 = reservoir_contact(gas, hot, res, q)
        cycle = concatenate(p1, p2)
        verdict = check_second_law(res, gas.system, cycle)
        worst = fold_worst(min, worst, verdict.work_on_machine)
        all_passed = all_passed and verdict.passed
    report.add(
        "cyclic machines next to one bath never output work",
        all_passed,
        f"n={n} min W_S={worst:.3e}",
    )
    return report


def suite_carnot(seed: int = 42, pairs: int = 20, triples: int = 50) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("carnot")
    cfg_specs = [
        {"q_target": -1.0, "volume_ratio": 2.0},
        {"q_target": -0.7, "volume_ratio": 1.5},
        {"q_target": -1.3, "n": 0.8},
    ]
    worst_univ = 0.0
    worst_ideal = 0.0
    signs_ok = True
    cyclic_ok = True
    for _ in range(pairs):
        th1 = rng.uniform(0.5, 3.0)
        th2 = rng.uniform(0.5, 3.0)
        if abs(th1 - th2) < 1e-3:
            th2 += 0.25
        world = World()
        r1 = add_reservoir(world, th1)
        r2 = add_reservoir(world, th2)
        ratios = []
        for spec in cfg_specs:
            run = build_carnot(r1, r2, **spec)
            ratios.append(-run.q1 / run.q2)
            signs_ok = signs_ok and run.q1 * run.q2 < 0
            cyclic_ok = cyclic_ok and machine_cyclic(run)
        top, bottom = fold_worst(max, *ratios), fold_worst(min, *ratios)
        spread = (top - bottom) / max(abs(top), abs(bottom))
        worst_univ = fold_worst(max, worst_univ, spread)
        worst_ideal = fold_worst(
            max, worst_ideal, *(abs(r - th1 / th2) / (th1 / th2) for r in ratios)
        )
    report.add(
        "universality across working-gas configurations",
        worst_univ <= 1e-6,
        f"pairs={pairs} worst rel spread={worst_univ:.2e}",
    )
    report.add(
        "ratio equals the reservoir parameter ratio",
        worst_ideal <= 1e-6,
        f"worst rel err={worst_ideal:.2e}",
    )
    report.add("reversible heats have opposite signs", signs_ok)
    report.add("machines exactly cyclic", cyclic_ok)

    world = World()
    r = add_reservoir(world, 1.7)
    tau_clone = temperature_ratio(r, r)
    report.add(
        "ratio against a fresh copy is one",
        abs(tau_clone - 1.0) <= 1e-8,
        f"|tau-1|={abs(tau_clone - 1.0):.2e}",
    )
    worst_recip = 0.0
    worst_chain = 0.0
    for _ in range(triples):
        world = World()
        rs = [add_reservoir(world, rng.uniform(0.4, 3.5)) for _ in range(3)]
        t12 = temperature_ratio(rs[0], rs[1])
        t21 = temperature_ratio(rs[1], rs[0])
        t23 = temperature_ratio(rs[1], rs[2])
        t13 = temperature_ratio(rs[0], rs[2])
        worst_recip = fold_worst(max, worst_recip, abs(t12 * t21 - 1.0))
        worst_chain = fold_worst(max, worst_chain, abs(t12 * t23 - t13) / abs(t13))
    report.add(
        "swapping arguments inverts the ratio",
        worst_recip <= 1e-8,
        f"worst={worst_recip:.2e}",
    )
    report.add(
        "ratios chain multiplicatively",
        worst_chain <= 1e-6,
        f"triples={triples} worst rel={worst_chain:.2e}",
    )

    degraded_ok = True
    for _ in range(10):
        th2 = rng.uniform(0.4, 1.5)
        th1 = th2 * rng.uniform(1.3, 3.0)
        world = World()
        r1 = add_reservoir(world, th1)
        r2 = add_reservoir(world, th2)
        bad = build_degraded_carnot(r1, r2, volume_ratio=rng.uniform(1.5, 3.0))
        good = th1 / th2
        degraded_ok = degraded_ok and (-bad.q1 / bad.q2) < good - 1e-9
        degraded_ok = degraded_ok and max(bad.q1, bad.q2) > 0
    report.add("friction-degraded cycles are strictly less efficient", degraded_ok)
    return report


def suite_clausius(seed: int = 42, cycles: int = 500) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("clausius")
    worst_rev = 0.0
    worst_fric = -math.inf
    for i in range(cycles):
        world = World()
        gas = add_ideal_gas(world)
        start = random_gas_state(rng)
        if i % 2 == 0:
            legs = random_reversible_legs(gas, rng, start, moves=1 + rng.randrange(3))
            total = clausius_sum(records_from_legs(legs, gas), probe=gas.system)
            worst_rev = fold_worst(max, worst_rev, abs(total))
        else:
            legs = random_friction_cycle(gas, rng, start, moves=rng.randrange(3))
            total = clausius_sum(records_from_legs(legs, gas), probe=gas.system)
            worst_fric = fold_worst(max, worst_fric, total)
    report.add(
        "all-reversible cycles sum to zero",
        worst_rev <= 1e-8,
        f"cycles={cycles // 2} worst |sum|={worst_rev:.2e}",
    )
    report.add(
        "friction makes the sum strictly negative",
        worst_fric < -1e-8,
        f"cycles={cycles - cycles // 2} max sum={worst_fric:.2e}",
    )
    return report


def suite_entropy_theorem(seed: int = 42, n: int = 1000) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("entropy-theorem")
    world = World()
    gas = add_ideal_gas(world)
    ledger = EntropyLedger(world)
    worst = math.inf
    worst_rev = 0.0
    for i in range(n):
        start = random_gas_state(rng)
        if i % 4 == 0:
            p = random_reversible_work_process(gas, rng, start)
            verdict = check_entropy_theorem(gas.system, p, ledger)
            worst_rev = fold_worst(max, worst_rev, abs(verdict.delta_s))
        else:
            p = random_work_process(gas, rng, start, segments=1 + rng.randrange(3))
            verdict = check_entropy_theorem(gas.system, p, ledger)
            worst = fold_worst(min, worst, verdict.delta_s)
    report.add(
        "work processes never lower entropy",
        worst >= -1e-9,
        f"n={n} min dS={worst:.3e}",
    )
    report.add(
        "reversible work processes keep entropy fixed",
        worst_rev <= 1e-9,
        f"worst |dS|={worst_rev:.2e}",
    )
    return report


def suite_max_entropy(seed: int = 42, draws: int = 100, pairs: int = 1000) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("max-entropy")
    base = GasModel()
    worst_arg = 0.0
    worst_val = 0.0
    for lam, total in random_splits(rng, draws):
        result = max_entropy_split(base, lam, total)
        span = max(abs(total.U), total.V)
        worst_arg = fold_worst(
            max,
            worst_arg,
            abs(result.split[0].U - lam * total.U) / span,
            abs(result.split[0].V - lam * total.V) / span,
        )
        worst_val = fold_worst(
            max, worst_val, abs(result.s_max - entropy_uv(base, total.U, total.V))
        )
    report.add(
        "maximizer is the proportional split",
        worst_arg <= 1e-6,
        f"draws={draws} worst rel dev={worst_arg:.2e}",
    )
    report.add(
        "maximum equals the unconstrained entropy",
        worst_val <= 1e-8,
        f"worst |dS|={worst_val:.2e}",
    )
    rep = check_concavity(base, random_uv_pairs(rng, pairs))
    report.add(
        "entropy is midpoint concave in (U, V)",
        rep.passed,
        f"checked={rep.checked} min slack={rep.min_slack:.2e}",
    )
    return report


def suite_scaling(seed: int = 42, samples: int = 12) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("scaling")
    base = GasModel()
    states = [random_gas_state(rng, 0.4, 3.0) for _ in range(samples)]
    expected = {
        "volume": ("extensive", lambda m, s: s.V),
        "pressure": ("intensive", lambda m, s: s.p),
        "internal-energy": ("extensive", gas_U),
        "entropy": ("extensive", gas_S),
        "gas-temperature": ("intensive", gas_T),
    }
    for name, (want, probe) in expected.items():
        got = classify_variable(probe, base, states)
        report.add(f"{name} classifies {want}", got == want, f"got {got}")

    worst = 0.0
    factors = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)]
    for lam in factors:
        f = float(lam)
        scaled = scale(base, lam).model
        for s in states[:6]:
            world = World()
            gas0 = add_ideal_gas(world, base)
            gas1 = add_ideal_gas(world, scaled)
            w0 = type2(gas0, s, s.V * 1.7).slice(0.0, 1.0).work_on(gas0.atom)
            w1 = (
                type2(gas1, scaled_state(s, lam), s.V * 1.7 * f)
                .slice(0.0, 1.0)
                .work_on(gas1.atom)
            )
            worst = fold_worst(max, worst, abs(w1 - f * w0) / max(1e-30, abs(f * w0)))
    report.add(
        "work footprints scale linearly",
        worst <= 1e-9,
        f"factors={len(factors)} worst rel={worst:.2e}",
    )
    return report


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "first-law": suite_first_law,
    "second-law": suite_second_law,
    "carnot": suite_carnot,
    "clausius": suite_clausius,
    "entropy-theorem": suite_entropy_theorem,
    "max-entropy": suite_max_entropy,
    "scaling": suite_scaling,
}


def run_suites(selector: str, seed: int = 42, **sizes) -> list[SuiteReport]:
    """Run one named suite, or all of them for the selector ``all``."""
    if selector == "all":
        return [fn(seed=seed) for fn in SUITES.values()]
    return [SUITES[selector](seed=seed, **sizes)]
