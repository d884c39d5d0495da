"""Two-parameter quasistatic families over piecewise-C1 curves.

A family realizes a continuous curve of joint states together with per-atom
work and heat rates (the one-forms pulled back through the parametrization).
Slicing a family at ``(lo, hi)`` produces the process with endpoints on the
curve and per-atom work equal to the path integral of the work rate; slices
compose exactly, ``slice(x, x)`` is an identity, and a reversible family
marks every slice reversible, so ``reverse_of`` builds its reverse from the
footprint.

A family is a slotted ``QuasistaticFamily`` subclass that computes its
states in ``evaluate`` and its rates in ``work_rate`` and ``heat_rate``:
the gas segment kinds, ``identity_family`` and ``concat_families``.  Every
family slices and integrates through the code here.  A rate that does not
depend on the parameter is a ``ConstantRate`` and is integrated exactly, as
its value times the parameter span; every other rate goes through the
adaptive quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .errors import OutOfDomain, StateMismatch, ToleranceNotMet
from .processes import (AtomState, Process, ProcessEntry, make_process, value_components,
                        values_close)  # make_process: perfbench/tests/test_spans.py reads it
from .quadrature import adaptive_simpson
from .systems import AtomId


Rate = Callable[[float], float]
# the tags of a slice of a family tagged ``tag``: one shared set per recent tag
_tag_set = functools.lru_cache(maxsize=64)(lambda tag: frozenset((tag,) if tag else ()))


class ConstantRate:
    """A rate with the same ``value`` at every parameter.

    The families integrate it exactly, as ``value * (hi - lo)``; a value
    that is not finite raises ``ToleranceNotMet``, as the quadrature does.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def __call__(self, lam: float) -> float:
        return self.value


def _integral(rate: Rate | None, lo: float, hi: float, knots) -> float:
    """Integral of ``rate`` over ``[lo, hi]``; zero for no rate."""
    if rate is None or lo == hi:
        return 0.0
    if type(rate) is ConstantRate:
        out = rate.value * (hi - lo)
        if not math.isfinite(out):
            raise ToleranceNotMet(f"constant rate {rate.value} on [{lo}, {hi}] is not finite")
        return out
    return adaptive_simpson(rate, lo, hi, knots=knots)


class QuasistaticFamily:
    """Two-parameter family of work processes along a curve.

    Subclasses compute the joint state at a parameter in ``evaluate`` and
    may override ``knots`` (interior breakpoints where C1 smoothness may
    fail, so quadratures split there), ``derivative`` (per-atom component
    derivatives away from the knots), ``work_rate`` and ``heat_rate``;
    never ``slice``, ``work_between`` or ``heat_between``.
    An atom without a work (heat) rate takes no work (heat).
    """

    __slots__ = ("atoms", "tag", "reversible")
    knots: tuple[float, ...] = ()
    derivative: Callable[[float], dict[AtomId, tuple[float, ...]]] | None = None

    def __init__(self, atoms: tuple[AtomId, ...], tag: str = "", reversible: bool = False):
        self.atoms, self.tag, self.reversible = atoms, tag, reversible

    def evaluate(self, lam: float) -> dict[AtomId, Any]:
        """Joint state at ``lam``, which the caller has checked."""
        raise NotImplementedError

    def state_at(self, lam: float) -> dict[AtomId, Any]:
        if not 0.0 <= lam <= 1.0:
            raise OutOfDomain(f"curve parameter {lam} outside [0, 1]")
        return self.evaluate(lam)

    def work_rate(self, atom: AtomId) -> Rate | None:
        return None

    def heat_rate(self, atom: AtomId) -> Rate | None:
        return None

    def work_between(self, atom: AtomId, lo: float, hi: float) -> float:
        return _integral(self.work_rate(atom), lo, hi, self.knots)

    def heat_between(self, atom: AtomId, lo: float, hi: float) -> float:
        return _integral(self.heat_rate(atom), lo, hi, self.knots)

    def slice(self, lo: float, hi: float) -> Process:
        """The member process from ``state_at(lo)`` to ``state_at(hi)``."""
        if not 0.0 <= lo <= hi <= 1.0:
            raise OutOfDomain(f"slice bounds ({lo}, {hi}) outside 0 <= lo <= hi <= 1")
        start = self.evaluate(lo)
        end = self.evaluate(hi)
        work_rate, knots = self.work_rate, self.knots  # read once, not per ``work_between``
        entries = {}  # a loop: before Python 3.12 a comprehension is a call of its own
        for a in self.atoms:
            entries[a] = ProcessEntry(AtomState(a, start[a]), AtomState(a, end[a]),
                                      float(_integral(work_rate(a), lo, hi, knots)))
        return Process(entries, self.reversible, _tag_set(self.tag))


class _Identity(QuasistaticFamily):
    """Constant family at ``payloads``; every slice is reversible."""

    __slots__ = ("payloads",)

    def __init__(self, payloads: Mapping[AtomId, Any], tag: str):
        super().__init__(tuple(sorted(payloads)), tag, True)
        self.payloads = dict(payloads)

    def evaluate(self, lam: float) -> dict[AtomId, Any]:
        return dict(self.payloads)


def identity_family(payloads: Mapping[AtomId, Any], tag: str = "identity") -> QuasistaticFamily:
    """Constant family: every slice is an identity process."""
    return _Identity(payloads, tag)


def _joined(rate_f: Rate | None, rate_g: Rate | None) -> Rate | None:
    """``rate_f`` then ``rate_g``, each run at twice the speed; no rate for neither."""
    if rate_f is None and rate_g is None:
        return None

    def rate(lam: float) -> float:
        if lam <= 0.5:
            return 2.0 * rate_f(2.0 * lam) if rate_f is not None else 0.0
        return 2.0 * rate_g(2.0 * lam - 1.0) if rate_g is not None else 0.0

    return rate


class _Concat(QuasistaticFamily):
    """``f`` over [0, 1/2] then ``g`` over [1/2, 1]; see ``concat_families``."""

    __slots__ = ("f", "g", "end_f", "start_g", "knots")

    def __init__(self, f: QuasistaticFamily, g: QuasistaticFamily, end_f: dict, start_g: dict):
        tag = f"{f.tag}+{g.tag}" if f.tag or g.tag else ""
        super().__init__(tuple(sorted(set(f.atoms) | set(g.atoms))), tag,
                         f.reversible and g.reversible)
        self.f, self.g, self.end_f, self.start_g = f, g, end_f, start_g
        self.knots = tuple(sorted({0.5} | {k * 0.5 for k in f.knots}
                                  | {0.5 + k * 0.5 for k in g.knots}))

    def evaluate(self, lam: float) -> dict[AtomId, Any]:
        if lam <= 0.5:
            state = dict(self.f.state_at(min(1.0, 2.0 * lam)))
            for a in self.g.atoms:
                state.setdefault(a, self.start_g[a])
        else:
            state = dict(self.g.state_at(2.0 * lam - 1.0))
            for a in self.f.atoms:
                state.setdefault(a, self.end_f[a])
        return state

    def work_rate(self, atom: AtomId) -> Rate | None:
        return _joined(self.f.work_rate(atom), self.g.work_rate(atom))

    def heat_rate(self, atom: AtomId) -> Rate | None:
        return _joined(self.f.heat_rate(atom), self.g.heat_rate(atom))


def concat_families(f: QuasistaticFamily, g: QuasistaticFamily) -> QuasistaticFamily:
    """Reparametrize ``f`` then ``g`` over [0, 1] with a knot at 1/2.

    Endpoint states must match on shared atoms; atoms appearing in only one
    part stay at their resting payload during the other half.
    """
    end_f = f.state_at(1.0)
    start_g = g.state_at(0.0)
    for atom in set(f.atoms) & set(g.atoms):
        if not values_close(end_f[atom], start_g[atom]):
            raise StateMismatch(atom, end_f[atom], start_g[atom])
    return _Concat(f, g, end_f, start_g)


def integrate_form(
    form: Callable[[tuple[float, ...]], tuple[float, ...]],
    fam: QuasistaticFamily,
    lo: float,
    hi: float,
    atom: AtomId | None = None,
) -> float:
    """Path integral of a one-form along a stretch of a family's curve.

    ``form`` maps a state point (component tuple) to coefficient values; the
    integrand is the pairing with the family's component derivatives.  Works
    on single-atom families unless ``atom`` selects the component to follow.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise OutOfDomain(f"integration bounds ({lo}, {hi}) invalid")
    if fam.derivative is None:
        raise ValueError("family carries no derivative; cannot pull back the form")
    def pick(mapping):
        if atom is not None:
            return mapping[atom]
        if len(mapping) != 1:
            raise ValueError("ambiguous curve; pass the atom to follow")
        return next(iter(mapping.values()))

    def integrand(lam: float) -> float:
        point = value_components(pick(fam.evaluate(lam)))
        velocity = pick(fam.derivative(lam))
        coeffs = form(point)
        return sum(c * v for c, v in zip(coeffs, velocity))

    return adaptive_simpson(integrand, lo, hi, knots=fam.knots)

@dataclass(frozen=True)
class PiecewiseConstantProfile:
    """Temperature profile that is constant between its breakpoints."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("need one value per interval between breaks")
        if any(v <= 0 for v in self.values):
            raise ValueError("temperatures must be positive")

    def __call__(self, lam: float) -> float:
        for b, v in zip(self.breaks, self.values):
            if lam < b:
                return v
        return self.values[-1]


def entropy_integral(f: QuasistaticFamily, heat_rate: Rate | None, temp_profile) -> float:
    """Integral of (heat rate)/T over the family's full parameter range.

    ``heat_rate`` defaults to the summed heat rates of the family's
    non-reservoir atoms.  ``temp_profile`` is a positive callable of the
    parameter, a constant, or a ``PiecewiseConstantProfile``; integration
    splits at profile breakpoints so the piecewise-constant case reproduces
    the discrete sum of per-segment heat over temperature.
    """
    if heat_rate is None:
        rates = [r for a in f.atoms
                 if a.kind != "reservoir" and (r := f.heat_rate(a)) is not None]
        heat_rate = lambda lam: sum(r(lam) for r in rates)
    if isinstance(temp_profile, (int, float)):
        value = float(temp_profile)
        if value <= 0:
            raise ValueError("temperature must be positive")
        profile = lambda lam: value
        breaks: tuple[float, ...] = ()
    elif isinstance(temp_profile, PiecewiseConstantProfile):
        profile = temp_profile
        breaks = temp_profile.breaks
    else:
        profile = temp_profile
        breaks = ()
    knots = tuple(sorted(set(f.knots) | set(breaks)))

    def integrand(lam: float) -> float:
        return heat_rate(lam) / profile(lam)

    return adaptive_simpson(integrand, 0.0, 1.0, knots=knots)
