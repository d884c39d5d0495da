"""Scaled systems, extensive/intensive classification, maximum entropy.

Scaling a gas by a rational factor multiplies its amount of substance,
volume-like quantities and the additive reference constants; pressure and
temperature are untouched.  In the extensive variables (U, V) the entropy
of a pair of scaled parts is maximized exactly at the proportional split,
and the unconstrained entropy is concave; both facts are checked here
numerically.  The maximizer comes from a small damped Newton iteration on
finite differences of the entropy, cross-checked against a plain grid
search in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .config import fold_worst
from .errors import IncompatibleBases, NonPositiveScale, OptimizerFailed
from .gas import GasModel, GasState, add_ideal_gas, gas_S
from .processes import Process, make_process
from .systems import World


@dataclass(frozen=True)
class UVState:
    """A gas state in the extensive variables (internal energy, volume)."""

    U: float
    V: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.U, self.V)


@dataclass(frozen=True)
class ScaledGas:
    """A gas model scaled by a positive rational factor."""

    base: GasModel
    lam: Fraction
    model: GasModel


def _scaled_model(base: GasModel, factor: float) -> GasModel:
    return replace(
        base,
        n=base.n * factor,
        sigma0=GasState(base.sigma0.p, base.sigma0.V * factor),
        U0=base.U0 * factor,
        S0=base.S0 * factor,
    )


def scale(g: GasModel, lam) -> ScaledGas:
    """Scale a gas model by a positive rational factor."""
    lam = Fraction(lam)
    if lam <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {lam}")
    return ScaledGas(base=g, lam=lam, model=_scaled_model(g, float(lam)))


def scaled_state(s: GasState, lam) -> GasState:
    """Pressure is intensive, volume extensive: (p, V) -> (p, lam V)."""
    factor = float(Fraction(lam))
    if factor <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {lam}")
    return GasState(s.p, s.V * factor)


def classify_variable(
    probe: Callable[[GasModel, GasState], float],
    base: GasModel,
    states: Sequence[GasState],
) -> str:
    """Classify a state map as extensive, intensive or neither.

    Samples the probe on the base model and on models scaled by 1/2, 2 and 3
    at scaled states; extensive means the value scales linearly, intensive
    means it is invariant, both to 1e-9 relative.
    """
    extensive = intensive = True
    for lam in (Fraction(1, 2), Fraction(2), Fraction(3)):
        scaled = scale(base, lam)
        f = float(lam)
        for s in states:
            v0 = probe(base, s)
            v1 = probe(scaled.model, scaled_state(s, lam))
            tol = 1e-9 * max(1.0, abs(v0), abs(v1))
            if not abs(v1 - f * v0) <= tol:  # a NaN or infinite probe scales neither way
                extensive = False
            if not abs(v1 - v0) <= tol:
                intensive = False
    if extensive:  # also intensive only for an identically zero probe
        return "extensive"
    return "intensive" if intensive else "neither"


def uv_to_gas(model: GasModel, s: UVState) -> GasState:
    """Convert (U, V) to (p, V); requires U above the model's offset."""
    p = (s.U - model.U0) / (model.cv_R * s.V)
    return GasState(p, s.V)


def entropy_uv(model: GasModel, U: float, V: float) -> float:
    """Entropy closed form in the extensive variables."""
    return gas_S(model, uv_to_gas(model, UVState(U, V)))


def remove_constraint(
    g1: ScaledGas,
    g2: ScaledGas,
    s1: UVState,
    s2: UVState,
    world: World | None = None,
) -> tuple[Process, UVState]:
    """Let two scaled parts of one base exchange energy and volume freely.

    The final state gives each part its size-proportional share of the
    totals, at zero work on both; the returned total is the unconstrained
    state.  Already-proportional inputs yield an identity (the reversible
    case).
    """
    if g1.base != g2.base:
        raise IncompatibleBases("parts must be scalings of one common base model")
    lam1, lam2 = float(g1.lam), float(g2.lam)
    f1 = lam1 / (lam1 + lam2)
    f2 = lam2 / (lam1 + lam2)
    total = UVState(s1.U + s2.U, s1.V + s2.V)
    t1 = UVState(f1 * total.U, f1 * total.V)
    t2 = UVState(f2 * total.U, f2 * total.V)
    if world is None:
        world = World()
    a1 = add_ideal_gas(world, g1.model)
    a2 = add_ideal_gas(world, g2.model)
    start1, end1 = uv_to_gas(g1.model, s1), uv_to_gas(g1.model, t1)
    start2, end2 = uv_to_gas(g2.model, s2), uv_to_gas(g2.model, t2)
    proportional = start1 == end1 and start2 == end2
    entries = {
        a1.atom: (start1, end1, 0.0),
        a2.atom: (start2, end2, 0.0),
    }
    p = make_process(entries, reversible=proportional, tags=("constraint-removal",))
    return p, total


# Settings of max_entropy_split.  The central-difference step is eps**(1/3)
# of each variable's scale, which balances truncation against rounding.  A
# trial step counts as not descending when S drops by less than _ROUNDING
# relative to max(1, |S|): near the maximum the gain of a Newton step is
# below the rounding of S, so a strict test would stall there.
XATOL = 1e-10
_DIFF_STEP = 6e-6
_ROUNDING = 1e-14
_MAX_ITER = 50
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class MaxEntropyResult:
    split: tuple[UVState, UVState]
    s_max: float
    iterations: int


def max_entropy_split(base: GasModel, lam: float, total: UVState) -> MaxEntropyResult:
    """Maximize the joint entropy of a lam / (1-lam) pair over all splits.

    Damped Newton ascent on the split (U1, V1), with central-difference
    gradient and Hessian of ``entropy_uv``, from the middle of the
    rectangle where both parts keep U above their offset and V above a
    small floor.  Each step is halved until it does not descend and stays
    inside that rectangle.
    The objective is strictly concave there, so the iteration converges to
    the unique maximizer, the proportional split; it stops once the Newton
    step is at most ``XATOL`` times max(|U|, V).  ``OptimizerFailed`` is
    raised when the Hessian is not negative definite, the line search
    stalls, or the iterations run out.

    The difference steps are ``_DIFF_STEP`` times each total, not times the
    smaller part, so the accuracy falls with m = min(lam, 1 - lam): the
    argmax lies about 1.2e-11 / m of the totals off the proportional split
    (1.2e-8 at m = 1e-3, against 1e-10 at m = 0.1), and from m = 1e-4 down
    the iteration fails.  The accurate range is m >= 1e-3.
    """
    if not 0.0 < lam < 1.0:
        raise NonPositiveScale("the split fraction must lie strictly inside (0, 1)")
    m1 = _scaled_model(base, lam)
    m2 = _scaled_model(base, 1.0 - lam)
    floor_u = 1e-9 * abs(total.U)
    floor_v = 1e-9 * total.V

    def objective(u1: float, v1: float) -> float:
        u2, v2 = total.U - u1, total.V - v1
        if (
            u1 - lam * base.U0 <= floor_u
            or u2 - (1.0 - lam) * base.U0 <= floor_u
            or v1 <= floor_v
            or v2 <= floor_v
        ):
            return -math.inf
        return entropy_uv(m1, u1, v1) + entropy_uv(m2, u2, v2)

    # Start at the middle of the rectangle; with U0 = 0 that is half the totals.
    u, v = 0.5 * (total.U + (2.0 * lam - 1.0) * base.U0), 0.5 * total.V
    f = objective(u, v)
    if not math.isfinite(f):
        raise OptimizerFailed(f"no split of {total} lies inside the domain")
    hu, hv = _DIFF_STEP * (total.U - base.U0), _DIFF_STEP * total.V
    tol = XATOL * max(abs(total.U), total.V)
    for iteration in range(1, _MAX_ITER + 1):
        fu_hi, fu_lo = objective(u + hu, v), objective(u - hu, v)
        fv_hi, fv_lo = objective(u, v + hv), objective(u, v - hv)
        gu, gv = (fu_hi - fu_lo) / (2 * hu), (fv_hi - fv_lo) / (2 * hv)
        huu = (fu_hi - 2 * f + fu_lo) / (hu * hu)
        hvv = (fv_hi - 2 * f + fv_lo) / (hv * hv)
        huv = (
            objective(u + hu, v + hv) - objective(u + hu, v - hv)
            - objective(u - hu, v + hv) + objective(u - hu, v - hv)
        ) / (4 * hu * hv)
        det = huu * hvv - huv * huv
        if not (huu < 0 and det > 0):
            raise OptimizerFailed(f"Hessian not negative definite at ({u!r}, {v!r})")
        du = (huv * gv - hvv * gu) / det
        dv = (huv * gu - huu * gv) / det
        if max(abs(du), abs(dv)) <= tol:
            split = (UVState(u, v), UVState(total.U - u, total.V - v))
            return MaxEntropyResult(split=split, s_max=f, iterations=iteration)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            f_new = objective(u + t * du, v + t * dv)
            if f_new >= f - _ROUNDING * max(1.0, abs(f)):
                break
            t *= 0.5
        else:
            raise OptimizerFailed(f"line search stalled at ({u!r}, {v!r})")
        u, v, f = u + t * du, v + t * dv, f_new
    raise OptimizerFailed(f"no convergence in {_MAX_ITER} Newton iterations")


@dataclass
class ConcavityReport:
    checked: int
    violations: list[dict]
    min_slack: float

    @property
    def passed(self) -> bool:
        return not self.violations


def check_concavity(
    base: GasModel,
    pairs: Iterable[tuple[UVState, UVState]],
    entropy_fn: Callable[[GasModel, float, float], float] | None = None,
) -> ConcavityReport:
    """Midpoint concavity of the entropy in the extensive variables.

    For every pair and mixing weight 1/4, 1/2 and 3/4, the entropy of the
    mixture must not fall below the mixed entropies by more than 1e-10.  A
    different ``entropy_fn`` can be injected, which makes convexified fakes
    fail.
    """
    fn = entropy_fn if entropy_fn is not None else entropy_uv
    violations = []
    gaps = []
    for a, b in pairs:
        sa = fn(base, a.U, a.V)
        sb = fn(base, b.U, b.V)
        for lam in (0.25, 0.5, 0.75):
            mix = fn(base, lam * a.U + (1 - lam) * b.U, lam * a.V + (1 - lam) * b.V)
            gap = mix - (lam * sa + (1 - lam) * sb)
            gaps.append(gap)
            if not gap >= -1e-10:
                violations.append(
                    {"a": a.as_tuple(), "b": b.as_tuple(), "lambda": lam, "gap": gap}
                )
    return ConcavityReport(checked=len(gaps), violations=violations,
                           min_slack=fold_worst(min, math.inf, *gaps))
