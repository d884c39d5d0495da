"""Two-parameter quasistatic families over piecewise-C1 curves.

A family realizes a continuous curve of joint states together with per-atom
work and heat rates (the one-forms pulled back through the parametrization).
Slicing a family at ``(lo, hi)`` produces the process with endpoints on the
curve and per-atom work equal to the path integral of the work rate; slices
compose exactly, ``slice(x, x)`` is an identity, and a reversible family
hands every slice a reverse witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from .config import tolerances
from .errors import OutOfDomain, StateMismatch
from .processes import Process, make_process, values_close
from .quadrature import adaptive_simpson
from .systems import AtomId, System


@dataclass(frozen=True)
class Curve:
    """Curve in a joint state space, parameterized on [0, 1].

    ``eval`` maps the parameter to per-atom payloads.  ``knots`` are interior
    breakpoints where C1 smoothness may fail (quadratures split there).
    ``derivative`` maps the parameter to per-atom component derivatives and
    is defined away from the knots.
    """

    eval: Callable[[float], dict[AtomId, Any]]
    knots: tuple[float, ...] = ()
    derivative: Callable[[float], dict[AtomId, tuple[float, ...]]] | None = None

    def __call__(self, lam: float) -> dict[AtomId, Any]:
        if not 0.0 <= lam <= 1.0:
            raise OutOfDomain(f"curve parameter {lam} outside [0, 1]")
        return self.eval(lam)


Rate = Callable[[float], float]


ZERO_RATE: Rate = lambda lam: 0.0


@dataclass(frozen=True)
class QuasistaticFamily:
    """Two-parameter family of work processes along a curve."""

    atoms: tuple[AtomId, ...]
    curve: Curve
    work_rates: Mapping[AtomId, Rate]
    heat_rates: Mapping[AtomId, Rate]
    reversible: bool = False
    reverse_factory: Callable[[], "QuasistaticFamily"] | None = None
    tag: str = ""
    meta: Mapping[str, Any] = field(default_factory=dict)

    @property
    def system(self) -> System:
        return System(frozenset(self.atoms))

    def state_at(self, lam: float) -> dict[AtomId, Any]:
        return self.curve(lam)

    def work_between(self, atom: AtomId, lo: float, hi: float, tol=None) -> float:
        rate = self.work_rates.get(atom, ZERO_RATE)
        if rate is ZERO_RATE:
            return 0.0
        return adaptive_simpson(rate, lo, hi, tol=tol, knots=self.curve.knots)

    def heat_between(self, atom: AtomId, lo: float, hi: float, tol=None) -> float:
        rate = self.heat_rates.get(atom, ZERO_RATE)
        if rate is ZERO_RATE:
            return 0.0
        return adaptive_simpson(rate, lo, hi, tol=tol, knots=self.curve.knots)

    def slice(self, lo: float, hi: float, tol: float | None = None) -> Process:
        """The member process from ``curve(lo)`` to ``curve(hi)``."""
        if not 0.0 <= lo <= hi <= 1.0:
            raise OutOfDomain(f"slice bounds ({lo}, {hi}) outside 0 <= lo <= hi <= 1")
        start = self.curve(lo)
        end = self.curve(hi)
        entries = {
            a: (start[a], end[a], self.work_between(a, lo, hi, tol)) for a in self.atoms
        }
        witness = None
        if self.reversible:
            witness = lambda: self.reversed().slice(1.0 - hi, 1.0 - lo, tol)
        tags = (self.tag,) if self.tag else ()
        return make_process(entries, reverse_witness=witness, tags=tags)

    def process(self, tol: float | None = None) -> Process:
        return self.slice(0.0, 1.0, tol)

    def reversed(self) -> "QuasistaticFamily":
        if self.reverse_factory is None:
            raise OutOfDomain("family carries no reverse constructor")
        return self.reverse_factory()

    def concat(self, other: "QuasistaticFamily", atol: float | None = None):
        return concat_families(self, other, atol)


def identity_family(payloads: Mapping[AtomId, Any], tag: str = "identity") -> QuasistaticFamily:
    """Constant family: every slice is an identity process."""
    atoms = tuple(sorted(payloads))
    frozen = dict(payloads)
    curve = Curve(eval=lambda lam: dict(frozen))
    fam = QuasistaticFamily(
        atoms=atoms,
        curve=curve,
        work_rates={},
        heat_rates={},
        reversible=True,
        tag=tag,
    )
    object.__setattr__(fam, "reverse_factory", lambda: fam)
    return fam


def _shift_knots(knots: Iterable[float], lo: float, hi: float) -> tuple[float, ...]:
    return tuple(lo + k * (hi - lo) for k in knots)


def concat_families(
    f: QuasistaticFamily, g: QuasistaticFamily, atol: float | None = None
) -> QuasistaticFamily:
    """Reparametrize ``f`` then ``g`` over [0, 1] with a knot at 1/2.

    Endpoint states must match on shared atoms; atoms appearing in only one
    part stay at their resting payload during the other half.
    """
    end_f = f.curve(1.0)
    start_g = g.curve(0.0)
    for atom in set(f.atoms) & set(g.atoms):
        if not values_close(end_f[atom], start_g[atom], atol):
            raise StateMismatch(atom, end_f[atom], start_g[atom])
    atoms = tuple(sorted(set(f.atoms) | set(g.atoms)))

    def evaluate(lam: float) -> dict[AtomId, Any]:
        if lam <= 0.5:
            state = dict(f.curve(min(1.0, 2.0 * lam)))
            for a in g.atoms:
                state.setdefault(a, start_g[a])
        else:
            state = dict(g.curve(2.0 * lam - 1.0))
            for a in f.atoms:
                state.setdefault(a, end_f[a])
        return state

    def make_rate(rates_f: Rate | None, rates_g: Rate | None) -> Rate:
        def rate(lam: float) -> float:
            if lam <= 0.5:
                return 2.0 * rates_f(2.0 * lam) if rates_f is not None else 0.0
            return 2.0 * rates_g(2.0 * lam - 1.0) if rates_g is not None else 0.0

        return rate

    work_rates = {
        a: make_rate(f.work_rates.get(a), g.work_rates.get(a))
        for a in atoms
        if a in f.work_rates or a in g.work_rates
    }
    heat_rates = {
        a: make_rate(f.heat_rates.get(a), g.heat_rates.get(a))
        for a in atoms
        if a in f.heat_rates or a in g.heat_rates
    }
    knots = tuple(
        sorted(
            {0.5}
            | set(_shift_knots(f.curve.knots, 0.0, 0.5))
            | set(_shift_knots(g.curve.knots, 0.5, 1.0))
        )
    )
    reversible = f.reversible and g.reversible
    reverse = None
    if reversible:
        reverse = lambda: concat_families(g.reversed(), f.reversed(), atol)
    tag = f"{f.tag}+{g.tag}" if f.tag or g.tag else ""
    return QuasistaticFamily(
        atoms=atoms,
        curve=Curve(eval=evaluate, knots=knots),
        work_rates=work_rates,
        heat_rates=heat_rates,
        reversible=reversible,
        reverse_factory=reverse,
        tag=tag,
        meta={"parts": (f, g)},
    )


def integrate_form(
    form: Callable[[tuple[float, ...]], tuple[float, ...]],
    curve: Curve,
    lo: float,
    hi: float,
    tol: float | None = None,
    atom: AtomId | None = None,
) -> float:
    """Path integral of a one-form along a curve segment.

    ``form`` maps a state point (component tuple) to coefficient values; the
    integrand is the pairing with the curve's component derivatives.  Works
    on single-atom curves unless ``atom`` selects the component to follow.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise OutOfDomain(f"integration bounds ({lo}, {hi}) invalid")
    if curve.derivative is None:
        raise ValueError("curve carries no derivative; cannot pull back the form")
    from .processes import value_components

    def pick(mapping):
        if atom is not None:
            return mapping[atom]
        if len(mapping) != 1:
            raise ValueError("ambiguous curve; pass the atom to follow")
        return next(iter(mapping.values()))

    def integrand(lam: float) -> float:
        point = value_components(pick(curve.eval(lam)))
        velocity = pick(curve.derivative(lam))
        coeffs = form(point)
        return sum(c * v for c, v in zip(coeffs, velocity))

    return adaptive_simpson(integrand, lo, hi, tol=tol, knots=curve.knots)


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


def entropy_integral(
    f: QuasistaticFamily,
    heat_rate: Rate | None,
    temp_profile,
    tol: float | None = None,
) -> float:
    """Integral of (heat rate)/T over the family's full parameter range.

    ``heat_rate`` defaults to the summed heat rates of the family's
    non-reservoir atoms.  ``temp_profile`` is a positive callable of the
    parameter, a constant, or a ``PiecewiseConstantProfile``; integration
    splits at profile breakpoints so the piecewise-constant case reproduces
    the discrete sum of per-segment heat over temperature.
    """
    if heat_rate is None:
        rates = [
            f.heat_rates[a]
            for a in f.atoms
            if a.kind != "reservoir" and a in f.heat_rates
        ]
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
    knots = tuple(sorted(set(f.curve.knots) | set(breaks)))

    def integrand(lam: float) -> float:
        return heat_rate(lam) / profile(lam)

    return adaptive_simpson(integrand, 0.0, 1.0, tol=tol, knots=knots)


def check_qs_postulates(gas, states, pairs=None, tangent_sets=None, rng=None) -> dict:
    """Verify the quasistatic structure of the shipped gas model.

    At each sampled state the two constructor directions must be linearly
    independent (normalized determinant above the configured threshold), for
    both the work-process pair (isochore/adiabat) and the reversible pair
    (adiabat/isotherm).  Additionally the connection templates must succeed
    for the sampled state pairs.  Returns a report dict; injected
    ``tangent_sets`` (state -> iterable of 2x2 tangent pairs) replace the
    analytic tangents, which lets degenerate constructors be flagged.
    """
    from .gas import connect, connect_reversible, gas_T, qs_tangent_sets

    det_min = tolerances().tangent_det_min
    failures = []
    checked = 0
    for sigma in states:
        sets = tangent_sets(sigma) if tangent_sets else qs_tangent_sets(gas.model, sigma)
        for label, (t1, t2) in sets:
            checked += 1
            n1 = (t1[0] ** 2 + t1[1] ** 2) ** 0.5
            n2 = (t2[0] ** 2 + t2[1] ** 2) ** 0.5
            det = (t1[0] * t2[1] - t1[1] * t2[0]) / (n1 * n2)
            if abs(det) < det_min:
                failures.append(
                    {"state": (sigma.p, sigma.V), "pair": label, "det": det}
                )
    connected = 0
    for s1, s2 in pairs or ():
        p = connect(gas, s1, s2)
        fams = connect_reversible(gas, s1, s2, gas_T(gas.model, s1))
        if p is not None and fams:
            connected += 1
        else:  # pragma: no cover - constructors raise instead of returning None
            failures.append({"pair_states": ((s1.p, s1.V), (s2.p, s2.V))})
    return {
        "tangent_checks": checked,
        "pairs_connected": connected,
        "failures": failures,
        "passed": not failures,
    }
