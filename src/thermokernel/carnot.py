"""Reversible engines between reservoir pairs; temperature from heat ratios.

A run is a four-leg cycle on a fresh working gas: isotherm at the first
reservoir, isolated leg, isotherm at the second reservoir, isolated leg
back to the start.  The machine is exactly cyclic, heats are read off the
reservoir footprints, and the heat-flow ratio -q1/q2 is universal: it
depends on the reservoirs only, never on the working gas.  That ratio
defines the temperature ratio and, against a fixed reference, absolute
temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import tolerances
from .errors import SameReservoir
from .gas import GasAtom, GasModel, GasState, add_ideal_gas, type1, type2, type3
from .processes import (
    AtomState,
    Process,
    classify,
    concatenate,
    joint,
    make_identity,
    work_of,
)
from .quasistatic import QuasistaticFamily
from .reservoirs import Reservoir, add_reservoir
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
    reversible: bool
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
            "reversible": self.reversible,
            "segments": [f.tag for f in self.segments],
            "n": self.n,
        }


def _assemble(
    r1: Reservoir, r2: Reservoir, machine: System, segments: tuple[QuasistaticFamily, ...], n: float
) -> CarnotRun:
    """Run the legs in order and read each reservoir's heat off the footprint."""
    process = segments[0].slice(0.0, 1.0)
    for fam in segments[1:]:
        process = concatenate(process, fam.slice(0.0, 1.0))

    def reservoir_heat(res: Reservoir) -> float:
        entry = process.entries[res.atom]
        return (entry.final.value - entry.initial.value) - entry.work

    q1, q2 = reservoir_heat(r1), reservoir_heat(r2)
    w = work_of(machine, process)
    return CarnotRun(r1, r2, machine, process, q1, q2, w, process.reversible, segments, n)


def _working_gas(r1: Reservoir, r2: Reservoir, n: float) -> tuple[GasAtom, GasState, float]:
    """A fresh γ = 5/3, R = 1 gas of amount ``n`` in ``r1``'s world, its start at V = 1 on
    ``r1``'s isotherm, and ``hop``, the volume factor of an isolated leg to ``r2``'s isotherm."""
    gas = add_ideal_gas(r1.world, GasModel(n=n))
    g = gas.model
    return gas, GasState(g.nR * r1.theta, 1.0), (r1.theta / r2.theta) ** (1.0 / (g.gamma - 1.0))


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
    th1 = r1.theta
    if q_target == 0.0:
        # not ``_working_gas``: its hop overflows past a ratio of about 1e205
        gas = add_ideal_gas(r1.world, GasModel())
        sigma = joint(
            AtomState(gas.atom, GasState(gas.model.nR * th1, 1.0)),
            AtomState(r1.atom, 0.0),
            AtomState(r2.atom, 0.0),
        )
        everything = compose(gas.system, compose(r1.system, r2.system))
        p = make_identity(everything, sigma)
        return CarnotRun(r1, r2, gas.system, p, 0.0, 0.0, 0.0, True, (), 1.0)

    if n is None:
        if volume_ratio <= 0 or volume_ratio == 1.0:
            raise ValueError("volume ratio must be positive and != 1")
        n = abs(q_target) / (th1 * abs(math.log(volume_ratio)))
        log_r = math.log(volume_ratio)
    else:
        if n <= 0:
            raise ValueError("gas amount must be positive")
        log_r = abs(q_target) / (n * th1)
    # Expansion on the first isotherm pulls heat out of r1 (q1 < 0).
    if q_target < 0:
        log_r = abs(log_r)
    else:
        log_r = -abs(log_r)

    gas, a, hop = _working_gas(r1, r2, n)
    v_b = math.exp(log_r)
    seg1 = type3(gas, r1, a, v_b)
    b = seg1.state_at(1.0)[gas.atom]
    seg2 = type2(gas, b, v_b * hop)
    c = seg2.state_at(1.0)[gas.atom]
    seg3 = type3(gas, r2, c, hop)
    d = seg3.state_at(1.0)[gas.atom]
    seg4 = type2(gas, d, 1.0)
    return _assemble(r1, r2, gas.system, (seg1, seg2, seg3, seg4), n)


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
    """A cycle closed by a friction leg instead of the second isolated leg.

    One unit of a γ = 5/3, R = 1 gas starts at V = 1 on ``r1``'s isotherm
    and expands there by ``volume_ratio``; ``r1`` must be the hotter.  The
    friction leg makes the cycle irreversible and strictly lowers -q1/q2
    below the reversible ratio: some of the heat drawn from the hot side is
    wasted re-heating the gas instead of being pumped.
    """
    if r1.atom == r2.atom:
        raise SameReservoir("a Carnot engine needs two different reservoirs")
    if not r1.theta > r2.theta:
        raise ValueError("the degraded cycle needs the first reservoir hotter")
    if not volume_ratio > 1.0:
        raise ValueError("need an expansion ratio > 1")
    gas, a, hop = _working_gas(r1, r2, 1.0)
    seg1 = type3(gas, r1, a, float(volume_ratio))
    b = seg1.state_at(1.0)[gas.atom]
    seg2 = type2(gas, b, b.V * hop)
    c = seg2.state_at(1.0)[gas.atom]
    seg3 = type3(gas, r2, c, 1.0)
    d = seg3.state_at(1.0)[gas.atom]
    seg4 = type1(gas, d, a.p)
    return _assemble(r1, r2, gas.system, (seg1, seg2, seg3, seg4), 1.0)


def machine_cyclic(run: CarnotRun) -> bool:
    return classify(run.machine, run.process).cyclic
