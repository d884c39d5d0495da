"""Reversible engines between reservoir pairs; temperature from heat ratios.

A run is a four-leg cycle on a fresh working gas, assembled in one place
(``_cycle``): isotherm at the first reservoir, isolated leg, isotherm at
the second reservoir, isolated leg back to the start; a friction-closed
run differs in its last two legs.  The machine is exactly cyclic, heats
are read off the reservoir footprints, and the heat-flow ratio -q1/q2 is
universal: it depends on the reservoirs only, never on the working gas.
That ratio defines the temperature ratio and, against a fixed reference,
absolute temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import tolerances
from .errors import SameReservoir
from .gas import GasAtom, GasModel, GasState, add_ideal_gas, type1, type2, type3
from .processes import (
    Process,
    classify,
    concatenate,
    make_identity,
    work_of,
)
from .quasistatic import QuasistaticFamily
from .reservoirs import Reservoir, add_reservoir, heat_into
from .systems import System, World, compose


@dataclass(frozen=True)
class CarnotRun:
    """One cycle between two reservoirs: footprint plus its heat bookkeeping.

    ``q1``/``q2`` are the heats into the first/second reservoir, ``w`` the
    work done on the machine; energy balance forces w = q1 + q2.  Reversible
    non-trivial runs always push heat into exactly one reservoir.
    """

    r1: Reservoir
    r2: Reservoir
    machine: System
    process: Process
    q1: float
    q2: float
    w: float
    segments: tuple[QuasistaticFamily, ...]
    n: float

    @property
    def trivial(self) -> bool:
        return self.q1 == 0.0 and self.q2 == 0.0

    def to_json(self) -> dict:
        return {
            "theta1": self.r1.theta,
            "theta2": self.r2.theta,
            "q1": self.q1,
            "q2": self.q2,
            "w": self.w,
            "reversible": self.process.reversible,
            "segments": [f.tag for f in self.segments],
            "n": self.n,
        }


def _working_gas(r1: Reservoir, n: float) -> tuple[GasAtom, GasState]:
    """A fresh γ = 5/3, R = 1 gas of amount ``n`` in ``r1``'s world, and its start at V = 1."""
    gas = add_ideal_gas(r1.world, GasModel(n=n))
    return gas, GasState(gas.model.nR * r1.theta, 1.0)


def _cycle(r1: Reservoir, r2: Reservoir, n: float, v_b: float, *, friction: bool) -> CarnotRun:
    """The one Carnot assembly: four legs on a fresh gas of amount ``n``, heats off the footprint.

    ``r1``'s isotherm from V = 1 to ``v_b``, isolated leg to ``r2``'s isotherm, then ``r2``'s
    isotherm to ``hop`` and an isolated leg home, or, with ``friction``, to V = 1 and a friction
    leg up to the start.  Leg 2 targets ``hop`` times the volume where leg 1 ended, exp(log v_b):
    for ``build_carnot``'s ``v_b``, itself an ``exp`` output, that is ``v_b`` to the bit.
    """
    gas, a = _working_gas(r1, n)
    hop = (r1.theta / r2.theta) ** (1.0 / (gas.model.gamma - 1.0))
    seg1 = type3(gas, r1, a, v_b)
    b = seg1.state_at(1.0)[gas.atom]
    seg2 = type2(gas, b, b.V * hop)
    seg3 = type3(gas, r2, seg2.state_at(1.0)[gas.atom], 1.0 if friction else hop)
    d = seg3.state_at(1.0)[gas.atom]
    segments = (seg1, seg2, seg3, type1(gas, d, a.p) if friction else type2(gas, d, 1.0))
    process = concatenate(*[fam.slice(0.0, 1.0) for fam in segments])
    q1, q2 = heat_into(r1, process), heat_into(r2, process)
    machine = gas.system
    return CarnotRun(r1, r2, machine, process, q1, q2, work_of(machine, process), segments, n)


def build_carnot(
    r1: Reservoir,
    r2: Reservoir,
    q_target: float,
    volume_ratio: float = 2.0,
    n: float | None = None,
) -> CarnotRun:
    """Construct a reversible cycle whose heat into ``r1`` equals ``q_target``.

    The working gas is a fresh γ = 5/3, R = 1 gas minted in ``r1``'s world,
    and the cycle starts at V = 1 on ``r1``'s isotherm; to leave a world
    alone, pass reservoirs of a scratch ``World``, as ``temperature_ratio``
    does.  Heats scale linearly with the gas amount, so with the volume
    ratio fixed ``n`` is solved from the target; passing ``n`` solves the
    volume ratio instead.  A positive target runs the cycle in the pumping
    direction (compression on the first isotherm).
    """
    if r1.atom == r2.atom:
        raise SameReservoir("a Carnot engine needs two different reservoirs")
    if not math.isfinite(q_target):
        raise ValueError("heat target must be finite")
    if n is None:
        if not (math.isfinite(volume_ratio) and volume_ratio > 0 and volume_ratio != 1.0):
            raise ValueError("volume ratio must be positive and != 1, and finite")
    elif not (math.isfinite(n) and n > 0):
        raise ValueError("gas amount must be positive and finite")
    if q_target == 0.0:
        gas, a = _working_gas(r1, 1.0)
        everything = compose(gas.system, compose(r1.system, r2.system))
        p = make_identity(everything, {gas.atom: a, r1.atom: 0.0, r2.atom: 0.0})
        return CarnotRun(r1, r2, gas.system, p, 0.0, 0.0, 0.0, (), 1.0)

    if n is None:
        n = abs(q_target) / (r1.theta * abs(math.log(volume_ratio)))
        log_r = math.log(volume_ratio)
    else:
        log_r = abs(q_target) / (n * r1.theta)
    # Expansion on the first isotherm pulls heat out of r1 (q1 < 0).
    return _cycle(r1, r2, n, math.exp(math.copysign(log_r, -q_target)), friction=False)


def temperature_ratio(r1: Reservoir, r2: Reservoir) -> float:
    """The universal ratio -q1/q2 of a reversible engine, with q2 > 0.

    The ratio depends on the two reservoirs' parameters only, so the engine
    runs between copies of them in a scratch ``World``: the query adds no
    atom to the reservoirs' world, and a reservoir paired with itself meets
    its copy, with which it exchanges heat one-to-one.
    """
    scratch = World()
    run = build_carnot(add_reservoir(scratch, r1.theta), add_reservoir(scratch, r2.theta),
                       q_target=-r1.theta * math.log(2.0))
    tau = -run.q1 / run.q2
    if tau <= 0:
        raise AssertionError(f"temperature ratio must be positive, got {tau}")
    return tau


def absolute_temperature(r: Reservoir, ref: Reservoir, t_ref: float) -> float:
    """Temperature of ``r`` on the scale fixed by ``ref`` at ``t_ref``."""
    if not t_ref > 0:
        raise ValueError("reference temperature must be positive")
    return temperature_ratio(r, ref) * t_ref


def same_temperature(r1: Reservoir, r2: Reservoir) -> bool:
    """Thermal equilibrium: the temperature ratio is one, to the ``same_temperature`` tier.

    The relation comes out reflexive, symmetric and transitive, so equal
    temperature is derived here rather than assumed.
    """
    return abs(temperature_ratio(r1, r2) - 1.0) <= tolerances().same_temperature


def build_degraded_carnot(r1: Reservoir, r2: Reservoir, volume_ratio: float = 2.0) -> CarnotRun:
    """The Carnot cycle closed by friction: one unit of gas, ``r1`` the hotter.

    The first two legs are ``build_carnot``'s, expanding by ``volume_ratio``
    on ``r1``'s isotherm; ``r2``'s isotherm then runs back to V = 1 and a
    friction leg climbs to the start pressure.  That makes the cycle
    irreversible and strictly lowers -q1/q2 below the reversible ratio: some
    heat drawn from the hot side re-heats the gas instead of being pumped.
    A ratio that is not finite and > 1 is refused before the gas is minted; a
    huge finite one (1e300) fails the first leg's state check after, as in
    ``build_carnot``.
    """
    if r1.atom == r2.atom:
        raise SameReservoir("a Carnot engine needs two different reservoirs")
    if not r1.theta > r2.theta:
        raise ValueError("the degraded cycle needs the first reservoir hotter")
    if not 1.0 < volume_ratio < math.inf:
        raise ValueError("need a finite volume ratio > 1")
    return _cycle(r1, r2, 1.0, float(volume_ratio), friction=True)


def machine_cyclic(run: CarnotRun) -> bool:
    return classify(run.machine, run.process).cyclic
