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
from .gas import GasModel, GasState, add_ideal_gas, type1, type2, type3
from .processes import (
    AtomState,
    Process,
    classify,
    concatenate,
    is_reversible,
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
    return CarnotRun(r1, r2, machine, process, q1, q2, w, is_reversible(process), segments, n)


def build_carnot(
    r1: Reservoir,
    r2: Reservoir,
    q_target: float,
    volume_ratio: float = 2.0,
    n: float | None = None,
    v_start: float = 1.0,
    gamma: float = 5.0 / 3.0,
    R: float = 1.0,
) -> CarnotRun:
    """Construct a reversible cycle whose heat into ``r1`` equals ``q_target``.

    Heats scale linearly with the gas amount, so with the volume ratio fixed
    the machine's ``n`` is solved from the target; passing ``n`` explicitly
    solves the volume ratio instead.  A positive target runs the cycle in
    the pumping direction (compression on the first isotherm).  The working
    gas is a fresh atom minted in the first reservoir's world; to leave a
    world alone, pass reservoirs of a scratch ``World``, as
    ``temperature_ratio`` does.
    """
    if r1.atom == r2.atom:
        raise SameReservoir("a Carnot engine needs two different reservoirs")
    world = r1.world
    th1, th2 = r1.theta, r2.theta
    if q_target == 0.0:
        gas = add_ideal_gas(world, GasModel(n=1.0, R=R, gamma=gamma))
        start = GasState(1.0 * R * th1 / v_start, v_start)
        sigma = joint(
            AtomState(gas.atom, start),
            AtomState(r1.atom, 0.0),
            AtomState(r2.atom, 0.0),
        )
        everything = compose(gas.system, compose(r1.system, r2.system))
        p = make_identity(everything, sigma)
        return CarnotRun(r1, r2, gas.system, p, 0.0, 0.0, 0.0, True, (), 1.0)

    if n is None:
        if volume_ratio <= 0 or volume_ratio == 1.0:
            raise ValueError("volume ratio must be positive and != 1")
        n = abs(q_target) / (R * th1 * abs(math.log(volume_ratio)))
        log_r = math.log(volume_ratio)
    else:
        if n <= 0:
            raise ValueError("gas amount must be positive")
        log_r = abs(q_target) / (n * R * th1)
    # Expansion on the first isotherm pulls heat out of r1 (q1 < 0).
    if q_target < 0:
        log_r = abs(log_r)
    else:
        log_r = -abs(log_r)

    gas = add_ideal_gas(world, GasModel(n=n, R=R, gamma=gamma))
    g = gas.model
    a = GasState(g.nR * th1 / v_start, v_start)
    v_b = v_start * math.exp(log_r)
    hop = (th1 / th2) ** (1.0 / (g.gamma - 1.0))
    seg1 = type3(gas, r1, a, v_b)
    b = seg1.state_at(1.0)[gas.atom]
    seg2 = type2(gas, b, v_b * hop)
    c = seg2.state_at(1.0)[gas.atom]
    seg3 = type3(gas, r2, c, v_start * hop)
    d = seg3.state_at(1.0)[gas.atom]
    seg4 = type2(gas, d, v_start)
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


def build_degraded_carnot(
    r1: Reservoir,
    r2: Reservoir,
    volume_ratio: float = 2.0,
    n: float = 1.0,
    v_start: float = 1.0,
    gamma: float = 5.0 / 3.0,
    R: float = 1.0,
) -> CarnotRun:
    """A cycle closed by a friction leg instead of the second isolated leg.

    Requires the first reservoir to be hotter.  The friction leg makes the
    cycle irreversible and strictly lowers -q1/q2 below the reversible
    ratio: some of the heat drawn from the hot side is wasted re-heating
    the gas instead of being pumped.
    """
    if r1.atom == r2.atom:
        raise SameReservoir("a Carnot engine needs two different reservoirs")
    th1, th2 = r1.theta, r2.theta
    if not th1 > th2:
        raise ValueError("the degraded cycle needs the first reservoir hotter")
    if not (volume_ratio > 1.0 and n > 0):
        raise ValueError("need an expansion ratio > 1 and positive gas amount")
    gas = add_ideal_gas(r1.world, GasModel(n=n, R=R, gamma=gamma))
    g = gas.model
    a = GasState(g.nR * th1 / v_start, v_start)
    hop = (th1 / th2) ** (1.0 / (g.gamma - 1.0))
    seg1 = type3(gas, r1, a, v_start * volume_ratio)
    b = seg1.state_at(1.0)[gas.atom]
    seg2 = type2(gas, b, b.V * hop)
    c = seg2.state_at(1.0)[gas.atom]
    seg3 = type3(gas, r2, c, v_start)
    d = seg3.state_at(1.0)[gas.atom]
    seg4 = type1(gas, d, a.p)
    return _assemble(r1, r2, gas.system, (seg1, seg2, seg3, seg4), n)


def machine_cyclic(run: CarnotRun) -> bool:
    return classify(run.machine, run.process).cyclic
