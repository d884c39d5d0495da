"""Tolerance tiers used across the engine.

The environment variable THERMOKERNEL_TOL overrides the defaults.  It accepts
either a single float, applied as a multiplier to every tier, or a
comma-separated list of ``name=value`` pairs naming individual tiers, e.g.
``THERMOKERNEL_TOL="quad_tol=1e-12,state_atol=1e-13"``.  Every tier must be
finite and > 0, and ``quad_max_depth`` a positive integer.  The variable is
read on the first ``tolerances()`` call, which raises ``ValueError`` when it
is malformed.  ``fold_worst`` folds a check's observations into the worst
case that is compared with its tier.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable


@dataclass(frozen=True)
class Tolerances:
    state_atol: float = 1e-12          # payload equality for concatenation/cyclicity
    work_atol: float = 1e-12           # zero-work tests (catalytic, identity)
    first_law_rtol: float = 1e-9       # path-independence of total work
    first_law_atol: float = 1e-12
    quad_tol: float = 1e-10            # absolute quadrature target, floored at rounding
    quad_max_depth: int = 30           # bisections of one quadrature panel
    tangent_det_min: float = 1e-8      # normalized 2x2 determinant threshold
    same_temperature: float = 1e-6     # |tau - 1| bound for thermal equilibrium
    isotherm_rtol: float = 1e-9        # on the isotherm: p·V within rtol·nR·θ, T within rtol·θ
    numeric_floor: float = 1e-12       # open-quadrant floor for p and V


def _value(name: str, text: str) -> float:
    """``text`` as the value of tier ``name``; ``ValueError`` if out of range."""
    depth = name == "quad_max_depth"
    try:
        value = int(text) if depth else float(text)
    except ValueError:
        value = math.nan
    if not (value >= 1 if depth else 0 < value < math.inf):
        kind = "a positive integer" if depth else "a finite number > 0"
        raise ValueError(f"{name} must be {kind}, got {text.strip()!r}")
    return value


def _from_env(raw: str | None) -> Tolerances:
    base = Tolerances()
    if not raw:
        return base
    raw = raw.strip()
    names = {f.name for f in fields(Tolerances)}
    if "=" in raw:
        updates = {}
        for piece in raw.split(","):
            name, _, value = piece.partition("=")
            name = name.strip()
            if name not in names:
                raise ValueError(f"unknown tolerance tier {name!r}")
            updates[name] = _value(name, value)
        return replace(base, **updates)
    factor = _value("the multiplier", raw)
    scaled = {
        f.name: f.default * factor
        for f in fields(Tolerances)
        if f.name != "quad_max_depth"
    }
    if not all(0 < v < math.inf for v in scaled.values()):
        raise ValueError(f"the multiplier {raw!r} takes a tier to 0 or infinity")
    return replace(base, **scaled)


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
