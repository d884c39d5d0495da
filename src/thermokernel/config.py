"""Tolerance tiers used across the engine.

The environment variable THERMOKERNEL_TOL, when set, is one finite number
> 0 that multiplies every tier.  It is read on the first ``tolerances()``
call, which raises ``ValueError`` when it is malformed or takes a tier to 0
or infinity.  ``fold_worst`` folds a check's observations into the worst
case that is compared with its tier.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields
from typing import Callable, Iterable


@dataclass(frozen=True)
class Tolerances:
    state_atol: float = 1e-12          # payload equality for concatenation/cyclicity
    work_atol: float = 1e-12           # zero work (catalytic, identity, first-law spread near 0)
    first_law_rtol: float = 1e-9       # path-independence of total work
    quad_tol: float = 1e-10            # absolute quadrature target, floored at rounding
    tangent_det_min: float = 1e-8      # normalized 2x2 determinant threshold
    same_temperature: float = 1e-6     # |tau - 1| bound for thermal equilibrium
    isotherm_rtol: float = 1e-9        # on the isotherm: p·V within rtol·nR·θ, T within rtol·θ


def _from_env(raw: str | None) -> Tolerances:
    if not raw:
        return Tolerances()
    raw = raw.strip()
    try:
        factor = float(raw)
    except ValueError:
        factor = math.nan
    if not 0 < factor < math.inf:
        raise ValueError(f"the multiplier must be a finite number > 0, got {raw!r}")
    scaled = {f.name: f.default * factor for f in fields(Tolerances)}
    if not all(0 < v < math.inf for v in scaled.values()):
        raise ValueError(f"the multiplier {raw!r} takes a tier to 0 or infinity")
    return Tolerances(**scaled)


@functools.cache
def tolerances() -> Tolerances:
    """The tiers, with THERMOKERNEL_TOL applied; read once, on the first call."""
    return _from_env(os.environ.get("THERMOKERNEL_TOL"))


def fold_worst(pick: Callable[[Iterable[float]], float], *values: float) -> float:
    """``pick(values)`` (``min`` or ``max``), or NaN when any value is NaN.

    ``min`` and ``max`` alone drop a NaN, since every comparison with it is
    false, so a worst case folded by them could hide a failed observation.
    A NaN folded here stays NaN and fails every bound it is compared with.
    """
    for v in values:
        if v != v:
            return math.nan
    return pick(values)
