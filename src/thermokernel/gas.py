"""Ideal-gas model: segment constructors, closed forms, connection templates,
and the check of its quasistatic postulates.

The gas lives on the open positive quadrant (p, V).  A ``GasState`` is a
frozen slotted value, checked whenever one is built, computed ones included.
Three segment kinds generate its processes:

* friction heating at constant volume (irreversible, pressure only rises),
* isolated compression/expansion along p V^gamma = const (reversible),
* isothermal reservoir contact along p V = const (reversible, on gas + bath).

``type1``, ``type2`` and ``type3`` validate a leg and build it as a slotted
``QuasistaticFamily`` subclass that computes states and rates in methods
from the precomputed parameters that it reads; the friction and isotherm
rates do not vary along the leg and are plain floats, which the family
integrates exactly.  ``SEGMENT_KINDS`` maps each name to its class.
Work processes on the gas alone are finite alternating sequences of the
first two kinds; adjacent same-kind segments merge, degenerate legs drop.
Isolated legs keep the adiabat invariant p V^gamma and friction raises it;
``connect_forward`` asks which way a work process runs, and
``GasPlanner.routes`` answers that and plans the process in the one call
that ``connect``, the energy ledger and the first-law check make per pair.
The closed forms for internal energy, entropy and gas temperature are the
oracles that the path-integrating engine is tested against; the engine never
calls them as shortcuts.
"""

from __future__ import annotations

import math
import sys
from math import exp
from dataclasses import dataclass
from typing import Sequence

from .config import tolerances
from .errors import DomainError, OffIsotherm, PreconditionNotMet, PressureDecrease
from .processes import Process, ProcessEntry, concatenate, make_identity, make_process
from .quasistatic import QuasistaticFamily, Rate, _integral, identity_family
from .reservoirs import Reservoir, add_reservoir
from .systems import AtomId, Handle, World

GAS_KIND = "ideal-gas"
# every ``GasState`` and leg built compares against this global; an int past it is not finite
_MAX = sys.float_info.max
# the open quadrant's edge: p and V must exceed it.  An absolute bound, not a
# tolerance tier, so ``THERMOKERNEL_TOL`` does not move the gas's domain.
FLOOR = 1e-12


@dataclass(frozen=True, slots=True, init=False)
class GasState:
    """A point (p, V) in the open positive quadrant, finite, and checked whenever one is built."""

    p: float
    V: float

    def __init__(self, p: float, V: float):
        if not (FLOOR < p <= _MAX and FLOOR < V <= _MAX):
            if not (-_MAX <= p <= _MAX and -_MAX <= V <= _MAX):
                raise DomainError(f"gas state ({p}, {V}) is not finite")
            raise DomainError(f"gas state ({p}, {V}) below the positive floor")
        _set_p(self, p)
        _set_V(self, V)

    def as_tuple(self) -> tuple[float, float]:
        return (self.p, self.V)


_set_p, _set_V = GasState.p.__set__, GasState.V.__set__


@dataclass(frozen=True)
class GasModel:
    """Constants of one gas atom.

    ``n`` is a characteristic constant, not a state variable.  ``gamma``
    defaults to the monoatomic value 5/3; every derived quantity is written
    in terms of it so other exponents work too.  ``U0`` and ``S0`` are the
    additive reference constants of the closed forms; ``sigma0`` is the
    reference state for entropy (and the default energy reference).
    """

    n: float = 1.0
    R: float = 1.0
    gamma: float = 5.0 / 3.0
    sigma0: GasState = GasState(1.0, 1.0)
    U0: float = 0.0
    S0: float = 0.0

    def __post_init__(self):
        if not (0 < self.n <= _MAX and 0 < self.R <= _MAX and 1 < self.gamma <= _MAX):
            raise ValueError(f"need finite n > 0, R > 0, gamma > 1; got n={self.n} "
                             f"R={self.R} gamma={self.gamma}")
        if not (-_MAX <= self.U0 <= _MAX and -_MAX <= self.S0 <= _MAX):
            raise ValueError(f"need finite U0 and S0; got U0={self.U0} S0={self.S0}")

    @property
    def nR(self) -> float:
        return self.n * self.R

    @property
    def cv_R(self) -> float:
        """Isochoric heat capacity over nR: 1/(gamma - 1), i.e. 3/2 monoatomic."""
        return 1.0 / (self.gamma - 1.0)

    @property
    def cp_R(self) -> float:
        return self.gamma / (self.gamma - 1.0)


class GasAtom(Handle):
    """Handle binding a gas atom to its model and world."""

    __slots__ = ()


def add_ideal_gas(world: World, model: GasModel | None = None) -> GasAtom:
    model = model if model is not None else GasModel()
    atom = world.new_atom(GAS_KIND, model)
    return GasAtom(atom=atom, model=model, world=world)


def gas_handle(world: World, atom: AtomId) -> GasAtom:
    model = world.binding(atom)
    if not isinstance(model, GasModel):
        raise TypeError(f"{atom} is not bound to a gas model")
    return GasAtom(atom=atom, model=model, world=world)


# --- closed forms (oracles) -------------------------------------------------

def gas_U(g: GasModel, s: GasState) -> float:
    """Internal energy closed form: pV/(gamma-1) + U0."""
    return g.cv_R * s.p * s.V + g.U0


def gas_S(g: GasModel, s: GasState) -> float:
    """Entropy closed form relative to the reference state."""
    return (
        g.nR
        * (g.cv_R * math.log(s.p / g.sigma0.p) + g.cp_R * math.log(s.V / g.sigma0.V))
        + g.S0
    )


def gas_T(g: GasModel, s: GasState) -> float:
    """Gas temperature pV/(nR); the equation of state.

    Read as a reservoir parameter, it is the theta of the reservoir a state
    couples to along its isotherm.
    """
    return s.p * s.V / g.nR


def gas_U_sv(g: GasModel, s_value: float, V: float) -> float:
    """Internal energy as a function of entropy and volume."""
    p = (
        g.sigma0.p
        * (V / g.sigma0.V) ** (-g.gamma)
        * math.exp((s_value - g.S0) / (g.nR * g.cv_R))
    )
    return g.cv_R * p * V + g.U0


def adiabat_invariant(g: GasModel, s: GasState) -> float:
    """p V^gamma, conserved on isolated segments and raised by friction; positive and finite."""
    try:
        inv = s.p * s.V**g.gamma
    except OverflowError:
        inv = math.inf
    if not 0.0 < inv <= _MAX:
        what = "no finite p V^gamma" if inv else "a p V^gamma that underflows to 0"
        raise DomainError(f"gas state ({s.p}, {s.V}) has {what} at gamma={g.gamma}")
    return inv


# --- segment kinds -----------------------------------------------------------

def _bad_target(kind: str, key: str, value: float) -> DomainError:
    """The error for a leg target that is not finite or not above the positive floor."""
    why = "is not finite" if not -_MAX <= value <= _MAX else "below the positive floor"
    return DomainError(f"{kind} leg: target {key}={value} {why}")


def type1(gas: GasAtom, start: GasState, p2: float) -> QuasistaticFamily:
    """Friction heating at constant volume from ``start.p`` up to ``p2``.

    Irreversible; a work process on the gas alone, so its heat rate is zero.
    """
    if not -_MAX <= p2 <= _MAX:
        raise _bad_target("type1", "p2", p2)
    if p2 < start.p:
        raise PressureDecrease(f"friction cannot lower pressure: {p2} < {start.p}")
    if p2 == start.p:
        return identity_family({gas.atom: start}, tag="type1")
    return FrictionSegment(gas, start, p2)


def type2(gas: GasAtom, start: GasState, V2: float) -> QuasistaticFamily:
    """Isolated compression/expansion along p V^gamma = const (reversible)."""
    if not FLOOR < V2 <= _MAX:
        raise _bad_target("type2", "V2", V2)
    if V2 == start.V:
        return identity_family({gas.atom: start}, tag="type2")
    return AdiabatSegment(gas, start, V2)


def type3(gas: GasAtom, res: Reservoir, start: GasState, V2: float) -> QuasistaticFamily:
    """Isothermal reservoir contact along p V = nR theta (reversible).

    The gas must already sit on the reservoir's isotherm.  The reservoir
    does zero work and its energy moves opposite to the heat taken up by the
    gas; only the energy difference matters, so the bath starts at 0.0.
    """
    g = gas.model
    if not FLOOR < V2 <= _MAX:
        raise _bad_target("type3", "V2", V2)
    c = g.nR * res.theta
    if abs(start.p * start.V - c) > tolerances().isotherm_rtol * c:
        raise OffIsotherm(f"state ({start.p}, {start.V}) is not on the theta={res.theta} isotherm")
    if V2 == start.V:
        return identity_family({gas.atom: start, res.atom: 0.0}, tag="type3")
    return IsothermSegment(gas, res, start, V2)


class _Segment(QuasistaticFamily):
    """A leg whose states and rates come from its own parameters.

    ``keys`` are its numeric spec keys, in the order ``build`` takes them
    after ``(gas, start)``; ``gas_only`` kinds are work processes on the gas
    alone.  Each kind fills all its slots itself, so a leg costs no extra call.
    Its gas state at ``lam`` is the one formula ``_at``; ``evaluate`` and the
    slice entries both read it, so a slice builds no ``evaluate`` dicts.
    """

    __slots__ = ("atom", "start")

    def evaluate(self, lam: float):
        return {self.atom: self._at(lam)}

    def _entries(self, lo: float, hi: float):
        return {self.atom: ProcessEntry(self._at(lo), self._at(hi), _integral(self._work, lo, hi))}

    def work_rate(self, atom: AtomId) -> Rate | None:
        return self._work if atom is self.atom or atom == self.atom else None


class FrictionSegment(_Segment):
    """``type1``: the pressure rises by ``dp`` at constant volume.

    The work on the gas runs at the constant rate ``cv_R V dp``.
    """

    __slots__ = ("dp", "_work")
    keys, gas_only, build = ("p2",), True, staticmethod(type1)

    def __init__(self, gas: GasAtom, start: GasState, p2: float):
        self.atom, self.start = gas.atom, start
        self.atoms, self.tag, self.reversible = (gas.atom,), "type1", False
        self.dp = p2 - start.p
        self._work = gas.model.cv_R * start.V * self.dp

    def _at(self, lam: float) -> GasState:
        return GasState(self.start.p + lam * self.dp, self.start.V)


class AdiabatSegment(_Segment):
    """``type2``: the volume runs geometrically to ``V2`` at constant p V^gamma."""

    __slots__ = ("V2", "inv", "gamma", "log_r", "_work")
    keys, gas_only, build = ("V2",), True, staticmethod(type2)

    def __init__(self, gas: GasAtom, start: GasState, V2: float):
        self.atom, self.start, self.V2 = gas.atom, start, V2
        self.atoms, self.tag, self.reversible = (gas.atom,), "type2", True
        self.gamma = gas.model.gamma
        self.inv = adiabat_invariant(gas.model, start)
        self.log_r = math.log(V2 / start.V)
        try:  # the target state must lie in the quadrant; ``_at`` builds the end
            GasState(self.inv * V2**-self.gamma, V2)
        except OverflowError:
            raise DomainError(f"type2 leg from gas state ({start.p}, {start.V}) has no finite "
                              f"end state at V2={V2}, gamma={self.gamma}") from None
        v0, log_r, neg_inv, k = start.V, self.log_r, -self.inv, 1.0 - self.gamma
        self._work = lambda lam: neg_inv * (v0 * exp(lam * log_r)) ** k * log_r

    def _at(self, lam: float) -> GasState:
        v = self.start.V * exp(lam * self.log_r)
        return GasState(self.inv * v**-self.gamma, v)


class IsothermSegment(_Segment):
    """``type3``: the volume runs geometrically to ``V2`` at constant p V = c.

    The gas takes up the heat ``q_total = c log r`` at a constant rate; the
    work on it and the reservoir's heat both run at the constant ``-c log r``.
    """

    __slots__ = ("res", "bath", "c", "log_r", "q_total", "_work")
    keys, gas_only = ("theta", "V2"), False

    def __init__(self, gas: GasAtom, res: Reservoir, start: GasState, V2: float):
        self.atom, self.start = gas.atom, start
        self.atoms, self.tag, self.reversible = (gas.atom, res.atom), "type3", True
        self.res, self.bath = res, res.atom
        self.c = gas.model.nR * res.theta
        self.log_r = math.log(V2 / start.V)
        self.q_total = self.c * self.log_r
        GasState(self.c / V2, V2)  # the target state must lie in the quadrant
        self._work = -self.q_total

    @staticmethod
    def build(gas: GasAtom, start: GasState, theta: float, V2: float) -> QuasistaticFamily:
        """The leg on a reservoir at ``theta`` minted for it."""
        return type3(gas, add_reservoir(gas.world, theta), start, V2)

    def _at(self, lam: float) -> GasState:
        v = self.start.V * exp(lam * self.log_r)
        return GasState(self.c / v, v)

    def evaluate(self, lam: float):
        return {self.atom: self._at(lam), self.bath: 0.0 - lam * self.q_total}

    def _entries(self, lo: float, hi: float):
        entries = _Segment._entries(self, lo, hi)  # the bath does no work, and comes second
        entries[self.bath] = ProcessEntry(0.0 - lo * self.q_total, 0.0 - hi * self.q_total, 0.0)
        return entries

    def heat_rate(self, atom: AtomId) -> Rate | None:
        if atom is self.atom or atom == self.atom:
            return self.q_total
        return self._work if atom is self.bath or atom == self.bath else None


def conduct(
    hot: GasAtom, hot_state: GasState, cold: GasAtom, cold_state: GasState, q: float
) -> Process:
    """Direct thermal conduction between two gases at constant volumes.

    Heat ``q > 0`` flows from the hotter gas to the colder one with zero
    work on both; the transfer must not overshoot temperature equality.
    Irreversible.
    """
    if hot.atom == cold.atom:
        raise PreconditionNotMet("conduction needs two distinct gases")
    if not q > 0:
        raise PreconditionNotMet("conduction transfers a positive amount of heat")
    gh, gc = hot.model, cold.model
    t_hot = gas_T(gh, hot_state)
    t_cold = gas_T(gc, cold_state)
    if not t_hot > t_cold:
        raise PreconditionNotMet("heat conducts from the hotter gas to the colder one")
    p_hot = hot_state.p - q / (gh.cv_R * hot_state.V)
    p_cold = cold_state.p + q / (gc.cv_R * cold_state.V)
    if p_hot <= FLOOR or p_hot * hot_state.V / gh.nR < (
        p_cold * cold_state.V / gc.nR
    ):
        raise PreconditionNotMet("transfer overshoots temperature equality")
    hot_final = GasState(p_hot, hot_state.V)
    cold_final = GasState(p_cold, cold_state.V)
    return make_process(
        {
            hot.atom: (hot_state, hot_final, 0.0),
            cold.atom: (cold_state, cold_final, 0.0),
        },
        tags=("conduction",),
    )


def reservoir_contact(gas: GasAtom, start: GasState, res: Reservoir, q: float) -> Process:
    """Irreversible heat exchange with a reservoir at constant gas volume.

    ``q > 0`` sends heat from the gas into the reservoir and requires the
    gas to stay at or above the reservoir's isotherm; ``q < 0`` is the
    opposite.  Only the energy difference matters, so the reservoir starts
    at 0.0.  Zero work on both sides.
    """
    if q == 0:
        raise PreconditionNotMet("contact must exchange a non-zero heat")
    g = gas.model
    final = GasState(start.p - q / (g.cv_R * start.V), start.V)
    t0, t1, theta = gas_T(g, start), gas_T(g, final), res.theta
    slack = tolerances().isotherm_rtol * theta
    if q > 0 and (t0 < theta - slack or t1 < theta - slack):
        raise PreconditionNotMet("gas must stay at least as hot as the reservoir")
    if q < 0 and (t0 > theta + slack or t1 > theta + slack):
        raise PreconditionNotMet("gas must stay at most as hot as the reservoir")
    return make_process(
        {
            gas.atom: (start, final, 0.0),
            res.atom: (0.0, 0.0 + q, 0.0),
        },
        tags=("reservoir-contact",),
    )


# --- connection templates ---------------------------------------------------

def connect_forward(g: GasModel, s1: GasState, s2: GasState) -> bool:
    """Whether a work process on the gas can run from ``s1`` to ``s2``.

    Isolated legs keep the adiabat invariant p V^gamma and friction raises
    it, so a work process runs the way the invariant does not decrease;
    invariants equal to 1e-12 relative count as equal and run either way.
    Its ``_forward`` is the one place that compares invariants:
    ``GasPlanner.routes`` reads the direction as ``_forward(inv_a, inv_b)``
    and "one adiabat" as that in both directions.
    """
    return _forward(adiabat_invariant(g, s1), adiabat_invariant(g, s2))


def _forward(inv1: float, inv2: float) -> bool:
    """``connect_forward`` on the two states' adiabat invariants."""
    return inv1 - inv2 <= 1e-12 * max(abs(inv1), abs(inv2))


def connect(gas: GasAtom, s1: GasState, s2: GasState) -> Process:
    """A work process on the gas between the two states.

    Runs the first plan of ``GasPlanner.routes``, the way a work process
    runs: an isolated leg to the target volume, then friction
    up to the target's adiabat (a single isolated leg when both states lie
    on one adiabat).  The returned footprint may therefore run from ``s2``
    to ``s1``; both directions determine the same energy difference.
    States at one volume and on one adiabat, both to 1e-12 relative (equal
    states included), get the planner's zero-work identity plan.
    """
    plan = GasPlanner(gas).routes(s1, s2, count=1)[1][0]
    return concatenate(*[leg.slice(0.0, 1.0) for leg in plan])


def connect_reversible(
    gas: GasAtom, s1: GasState, s2: GasState, theta_prime: float
) -> list[QuasistaticFamily]:
    """Reversible three-leg route: adiabat, isotherm at ``theta_prime``, adiabat.

    Heat is exchanged only on the middle leg, with a reservoir that may have
    any positive parameter; a fresh reservoir is minted for it in the gas's
    world.  The middle leg is ``isotherm_leg``, and the two adiabats run from
    ``s1`` to its start and from its end to ``s2``.  The Clausius cycles and
    ``check_qs_postulates`` run all three legs; an entropy query needs only
    the heat of the middle one and builds it alone, minting nothing.
    """
    if not theta_prime > 0:
        raise DomainError("isotherm parameter must be positive")
    middle = isotherm_leg(gas, add_reservoir(gas.world, theta_prime), s1, s2)
    on_state, off_state = middle.state_at(0.0)[gas.atom], middle.state_at(1.0)[gas.atom]
    return [type2(gas, s1, on_state.V), middle, type2(gas, off_state, s2.V)]


def isotherm_leg(gas: GasAtom, res: Reservoir, s1: GasState, s2: GasState) -> QuasistaticFamily:
    """The ``type3`` leg on ``res`` from the adiabat through ``s1`` to the one through ``s2``.

    It starts where the adiabat of ``s1`` meets the reservoir's isotherm
    p V = nR theta, at the volume (p V^gamma / (nR theta))^(1/(gamma-1)),
    so ``type3`` checks that meeting point.  It is the middle leg of
    ``connect_reversible``, the one place where an adiabat meets an isotherm.
    """
    g = gas.model
    c = g.nR * res.theta
    inv_on = adiabat_invariant(g, s1)
    s = s1  # the state whose meeting volume is taken next
    try:
        v_on = (inv_on / c) ** g.cv_R
        s = s2
        v_off = (adiabat_invariant(g, s2) / c) ** g.cv_R
    except OverflowError:
        raise DomainError(f"the adiabat of gas state ({s.p}, {s.V}) meets the theta={res.theta} "
                          f"isotherm at no finite volume at gamma={g.gamma}") from None
    try:
        p_on = inv_on * v_on**-g.gamma
    except (OverflowError, ZeroDivisionError):  # v_on subnormal or 0.0
        raise DomainError(f"the adiabat of gas state ({s1.p}, {s1.V}) meets the theta={res.theta} "
                          f"isotherm at V={v_on} with no finite pressure at gamma={g.gamma}") from None
    return type3(gas, res, GasState(p_on, v_on), v_off)


SEGMENT_KINDS = {"type1": FrictionSegment, "type2": AdiabatSegment, "type3": IsothermSegment}


def segment_family(gas: GasAtom, start: GasState, spec: dict) -> QuasistaticFamily:
    """The family of one segment spec ``{"type": kind, **keys}`` from ``start``."""
    kind = SEGMENT_KINDS.get(spec["type"])
    if kind is None:
        raise ValueError(f"unknown segment type {spec['type']!r}")
    return kind.build(gas, start, *(float(spec[k]) for k in kind.keys))


def run_segments(gas: GasAtom, start: GasState, specs: Sequence[dict]) -> Process:
    """Execute a declarative list of segment specs from ``start``."""
    pieces, state = [], start
    for spec in specs:
        pieces.append(segment_family(gas, state, spec).slice(0.0, 1.0))
        state = pieces[-1].final_of(gas.atom)
    return concatenate(*pieces) if pieces else make_identity(gas.system, {gas.atom: start})


def qs_tangent_sets(g: GasModel, s: GasState):
    """Tangent pairs of the segment curves through a state, in (p, V) components."""
    isochore = (1.0, 0.0)
    adiabat = (-g.gamma * s.p, s.V)
    isotherm = (-s.p, s.V)
    return [
        ("work-pair", (isochore, adiabat)),
        ("reversible-pair", (adiabat, isotherm)),
    ]


def check_qs_postulates(gas, states, pairs=None, tangent_sets=None) -> dict:
    """Verify the quasistatic structure of the shipped gas model.

    At each sampled state the two constructor directions must be linearly
    independent (normalized determinant above the configured threshold), for
    both the work-process pair (isochore/adiabat) and the reversible pair
    (adiabat/isotherm).  Additionally the connection templates must succeed
    for the sampled state pairs.  Returns a report dict; injected
    ``tangent_sets`` (state -> iterable of 2x2 tangent pairs) replace the
    analytic tangents, which lets degenerate constructors be flagged.
    """
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
    for s1, s2 in pairs or ():  # both templates raise on a pair they cannot connect
        connect(gas, s1, s2)
        connect_reversible(gas, s1, s2, gas_T(gas.model, s1))
        connected += 1
    return {
        "tangent_checks": checked,
        "pairs_connected": connected,
        "failures": failures,
        "passed": not failures,
    }


# --- reachability planning --------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class GasPlanner:
    """Plans work processes on a single gas atom from its segment vocabulary.

    Reachability on the gas is governed by the adiabat invariant: isolated
    legs preserve it, friction raises it, and ``_forward`` is the one
    comparison of it, which ``routes`` makes itself.  A plan uses at most
    three legs: isolated, friction, isolated.
    """

    gas: GasAtom

    def __init__(self, gas: GasAtom):
        _set_gas(self, gas)

    def routes(
        self, a: GasState, b: GasState, count: int = 3
    ) -> tuple[bool, list[list[QuasistaticFamily]]]:
        """``(forward, plans)``: up to ``count`` distinct plans, never none.

        ``forward`` is ``_forward`` on the two invariants; the plans run
        from ``a`` to ``b`` when it holds and from ``b`` to ``a`` otherwise.
        One identity plan when the states agree in volume and adiabat to
        1e-12 relative; one isolated leg when they lie on one adiabat.
        Otherwise plans differ in the volume ``vm`` at which the friction
        leg runs, and an isolated leg closes a plan only when ``vm`` is not
        the end's volume; the first plan runs friction at the end's volume:
        an isolated leg there, then friction up to the end's adiabat.
        """
        gas = self.gas
        g = gas.model
        inv_a, inv_b = adiabat_invariant(g, a), adiabat_invariant(g, b)
        forward = _forward(inv_a, inv_b)
        if not forward:
            a, b, inv_b = b, a, inv_a
        elif _forward(inv_b, inv_a):
            if abs(a.V - b.V) <= 1e-12 * max(a.V, b.V):
                return forward, [[identity_family({gas.atom: a}, tag="identity")]]
            return forward, [[type2(gas, a, b.V)]]
        # friction-leg volumes: geometric interpolants between the endpoints
        fractions = [1.0, 0.0, 0.5, 0.25, 0.75, 0.375, 0.625]
        plans: list[list[QuasistaticFamily]] = []
        seen: set[float] = set()
        for t in fractions:
            if len(plans) >= count:
                break
            vm = a.V ** (1.0 - t) * b.V**t
            if vm in seen:
                continue
            seen.add(vm)
            plan: list[QuasistaticFamily] = []
            state = a
            if vm != a.V:
                leg = type2(gas, state, vm)
                plan.append(leg)
                state = leg.state_at(1.0)[gas.atom]
            leg = type1(gas, state, inv_b * vm**-g.gamma)
            plan.append(leg)
            if vm != b.V:  # a leg's evaluated end may be an ulp off vm
                plan.append(type2(gas, leg.state_at(1.0)[gas.atom], b.V))
            plans.append(plan)
        return forward, plans


_set_gas = GasPlanner.gas.__set__
