"""The three workloads: their inputs, one item's run, and its checks.

Each workload makes a fixed batch of items from the benchmark seed.  ``run``
is the only timed call; ``check`` compares its result with the benchmark's
own oracles and returns a list of problems (empty when correct).  Engine
functions are looked up on their modules at call time, so the traced run's
hooks see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re

import scenarios
from oracles import IdealGas, close, proportional_split

# Suite sizes of one theorem-suites item (the ``verify`` defaults are 40, 25,
# 20/50, 500, 1000 and 12).
SUITE_SIZES = {
    "first-law": {"pairs": 5},
    "second-law": {"n": 5},
    "carnot": {"pairs": 2, "triples": 5},
    "clausius": {"cycles": 30},
    "entropy-theorem": {"n": 60},
    "scaling": {"samples": 6},
}

_NUMBER = re.compile(r"=\s*" + scenarios.NUMBER)


class TheoremSuites:
    """One item: the six suites at one derived seed, through ``run_suites``."""

    batch = 100

    def __init__(self, seed: int, work_dir: str) -> None:
        from thermokernel import suites

        self.suites = suites
        rng = random.Random(seed)
        self.items = [rng.randrange(2**31) for _ in range(self.batch)]

    def prepare(self, item) -> None:
        pass

    def run(self, item):
        run_suites = self.suites.run_suites
        return [run_suites(name, seed=item, **sizes)[0] for name, sizes in SUITE_SIZES.items()]

    def check(self, item, reports) -> list[str]:
        problems = []
        if [r.name for r in reports] != list(SUITE_SIZES):
            problems.append(f"suites {[r.name for r in reports]}")
        for report in reports:
            if not report.checks or not report.passed:
                problems.append(f"seed {item}: {report.lines()}")
            for chk in report.checks:
                for value in _NUMBER.findall(chk.detail):
                    if not math.isfinite(float(value)):
                        problems.append(f"seed {item}: non-finite {chk.line()}")
        return problems


class MaxEntropy:
    """One item: one ``max_entropy_split`` plus ``check_concavity`` over 10 pairs."""

    batch = 256
    pairs = 10

    def __init__(self, seed: int, work_dir: str) -> None:
        from thermokernel import scaling
        from thermokernel.gas import GasModel

        self.scaling = scaling
        self.base = GasModel()
        self.oracle = IdealGas()
        uv = scaling.UVState
        rng = random.Random(seed)
        self.items = []
        for _ in range(self.batch):
            lam = rng.uniform(0.1, 0.9)
            total = uv(rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0))
            pairs = [(uv(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)),
                      uv(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)))
                     for _ in range(self.pairs)]
            self.items.append((lam, total, pairs))

    def prepare(self, item) -> None:
        pass

    def run(self, item):
        lam, total, pairs = item
        split = self.scaling.max_entropy_split(self.base, lam, total)
        return split, self.scaling.check_concavity(self.base, pairs)

    def check(self, item, result) -> list[str]:
        lam, total, pairs = item
        split, conc = result
        problems = []
        span = max(abs(total.U), total.V)
        u1, v1 = proportional_split(lam, total.U, total.V)
        a, b = split.split
        for label, got, want in (("U1", a.U, u1), ("V1", a.V, v1),
                                 ("U2", b.U, total.U - u1), ("V2", b.V, total.V - v1)):
            if not close(got, want, 0.0, 1e-6 * span):
                problems.append(f"split {label}={got!r}, oracle {want!r}")
        s_oracle = self.oracle.S_uv(total.U, total.V)
        if not close(split.s_max, s_oracle, 0.0, 1e-8):
            problems.append(f"s_max={split.s_max!r}, oracle {s_oracle!r}")
        # Concavity: the engine's smallest gap against the oracle's.
        gaps = []
        S = self.oracle.S_uv
        for x, y in pairs:
            sx, sy = S(x.U, x.V), S(y.U, y.V)
            for w in (0.25, 0.5, 0.75):
                mix = S(w * x.U + (1 - w) * y.U, w * x.V + (1 - w) * y.V)
                gaps.append(mix - (w * sx + (1 - w) * sy))
        if conc.checked != 3 * len(pairs) or not conc.passed:
            problems.append(f"concavity checked={conc.checked} violations={conc.violations}")
        if not close(conc.min_slack, min(gaps), 0.0, 1e-9) or min(gaps) < -1e-10:
            problems.append(f"min_slack={conc.min_slack!r}, oracle {min(gaps)!r}")
        return problems


class ScenarioFiles:
    """One item: one seeded scenario file through ``cli.main(["run", ...])``."""

    batch = 128

    def __init__(self, seed: int, work_dir: str) -> None:
        from thermokernel import cli

        self.cli = cli
        rng = random.Random(seed)
        os.makedirs(work_dir, exist_ok=True)
        self.items = []
        for k in range(self.batch):
            scenario = scenarios.generate(rng.randrange(2**31))
            path = os.path.join(work_dir, f"scenario-{k:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh, indent=1)
            self.items.append((path, os.path.join(work_dir, f"out-{k:03d}"), scenario))

    def prepare(self, item) -> None:
        # Empty last round's artifacts in place rather than deleting them:
        # an artifact the run fails to write then reads empty, and the
        # rounds reuse the same files instead of creating new ones.
        out_dir = item[1]
        if os.path.isdir(out_dir):
            for name in os.listdir(out_dir):
                os.truncate(os.path.join(out_dir, name), 0)

    def run(self, item):
        path, out_dir, _ = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["run", path, "--out", out_dir])
        return code, buf.getvalue()

    def check(self, item, result) -> list[str]:
        _, out_dir, scenario = item
        code, stdout = result
        return scenarios.check(scenario, code, stdout, out_dir)


WORKLOADS = {
    "theorem-suites": TheoremSuites,
    "max-entropy": MaxEntropy,
    "scenario-files": ScenarioFiles,
}
