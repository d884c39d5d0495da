"""Host speed, measured with a fixed piece of reference work.

This benchmark runs on a shared host whose speed drifts: the same code in
fresh processes ran 1.5 to 2 times slower for minutes at a time, and CPU
time moved with wall time, so neither clock alone repeats from run to run.
The benchmark therefore times a fixed piece of pure-Python work (float
arithmetic, ``math`` calls, small objects and a dict, like the engine's own
inner loops) next to the program and scales every wall time by
``REF_S / (median reference time)``.  The result reads as the wall time at
the speed where the reference work takes ``REF_S``.

The work stays in the first-level cache on purpose: a variant that read a
4 MB table tracked the program's slowdowns worse, because its own time moved
with other tenants' cache use.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

REF_S = 0.5e-3   # the reference work's time at the reference speed
EVERY_S = 0.01   # timed program work between two samples
WINDOW = 51      # samples in the rolling median


def reference_work() -> float:
    acc = 0.0
    table = {}
    for i in range(1000):
        v = complex(i * 0.5, math.log(i + 1.0))
        acc += v.real * v.imag ** 1.5
        table[i & 127] = (v, acc)
    return acc


def sample() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def factor_of(samples: list[float]) -> float:
    """Scale factor for wall times taken while ``samples`` were measured."""
    return REF_S / statistics.median(samples)


class HostSpeed:
    """Rolling host-speed factor, sampled between the timed items."""

    def __init__(self) -> None:
        self.samples: list[float] = [sample() for _ in range(WINDOW)]
        self.since = 0.0

    def factor(self, busy_s: float) -> float:
        """Factor for an item that just took ``busy_s``; samples when due."""
        self.since += busy_s
        if self.since >= EVERY_S:
            self.samples.append(sample())
            del self.samples[:-WINDOW]
            self.since = 0.0
        return factor_of(self.samples)
