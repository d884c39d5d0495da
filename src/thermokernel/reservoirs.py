"""Heat reservoirs and the Kelvin-Planck second-law check.

A reservoir is an atomic system whose state is a single energy value.  Its
internal energy function is the identity on that value (injective), no
generated process ever extracts work from it, and every constructor depends
only on energy differences, never on the absolute energy, which realizes
translation invariance.

The model parameter ``theta`` is the gas-side isotherm invariant pV/(nR) at
which the reservoir exchanges heat reversibly with an ideal gas.  Absolute
temperature is never assumed from ``theta``; it is derived from heat-flow
ratios of reversible engines (see the carnot module) and only the verified
linear scale is then used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import tolerances
from .errors import PreconditionNotMet
from .processes import Process, classify, is_work_process, make_process, work_of
from .systems import AtomId, System, World, compose, system

RESERVOIR_KIND = "reservoir"


@dataclass(frozen=True)
class ReservoirModel:
    theta: float

    def __post_init__(self):
        if not 0 < self.theta < math.inf:
            raise ValueError(
                f"reservoir parameter theta must be positive and finite, got {self.theta}")


@dataclass(frozen=True)
class Reservoir:
    """Handle binding a reservoir atom to its model and world."""

    atom: AtomId
    model: ReservoirModel
    world: World
    energy: float = 0.0

    @property
    def theta(self) -> float:
        return self.model.theta

    @property
    def system(self) -> System:
        return system(self.atom)


def add_reservoir(world: World, theta: float, energy: float = 0.0) -> Reservoir:
    model = ReservoirModel(theta)
    atom = world.new_atom(RESERVOIR_KIND, model)
    return Reservoir(atom=atom, model=model, world=world, energy=energy)


def detached_reservoir(theta: float) -> Reservoir:
    """A reservoir at ``theta`` that belongs to no caller's world.

    Read-only queries build legs on it so that they mint nothing.  Its atom
    has id -1, which no ``World`` hands out, and its world is empty.
    """
    return Reservoir(atom=AtomId(-1, RESERVOIR_KIND), model=ReservoirModel(theta), world=World())


def reservoir_handle(world: World, atom: AtomId, energy: float = 0.0) -> Reservoir:
    model = world.binding(atom)
    if not isinstance(model, ReservoirModel):
        raise TypeError(f"{atom} is not bound to a reservoir model")
    return Reservoir(atom=atom, model=model, world=world, energy=energy)


@dataclass(frozen=True)
class TemperatureScale:
    """Linear map from reservoir parameter to absolute temperature.

    Fixing a reference reservoir and a reference temperature pins the scale;
    the default is the natural scale T = theta.
    """

    theta_ref: float = 1.0
    t_ref: float = 1.0

    def absolute(self, theta: float) -> float:
        return theta * self.t_ref / self.theta_ref


NATURAL_SCALE = TemperatureScale()


def stir(res: Reservoir, work: float, energy: float | None = None) -> Process:
    """Dump work into a reservoir, raising its energy by the same amount.

    Work on a reservoir is finite and never negative; the constructor
    depends only on the energy difference.
    """
    if not 0 <= work < math.inf:
        raise PreconditionNotMet(f"stirring work must be finite and non-negative, got {work}")
    e0 = res.energy if energy is None else energy
    return make_process(
        {res.atom: (e0, e0 + work, float(work))},
        tags=("stir",),
    )


@dataclass(frozen=True)
class SecondLawVerdict:
    passed: bool
    work_on_machine: float
    heat_into_reservoir: float

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "W_S": self.work_on_machine,
            "Q_R": self.heat_into_reservoir,
        }


def check_second_law(res: Reservoir, s: System, p: Process) -> SecondLawVerdict:
    """Kelvin-Planck check: cyclic machines next to one reservoir cannot output work.

    Requires ``p`` to be a work process on the reservoir together with ``s``
    and cyclic on ``s``.  Passes iff the work done on ``s`` is non-negative
    (up to the ``work_atol`` tier); that work equals the heat pushed into
    the reservoir.
    """
    if not is_work_process(compose(res.system, s), p):
        raise PreconditionNotMet("process must be a work process on reservoir + machine")
    if not classify(s, p).cyclic:
        raise PreconditionNotMet("process must be cyclic on the machine")
    w_s = work_of(s, p)
    entry = p.entries[res.atom]
    q_r = (entry.final.value - entry.initial.value) - entry.work
    return SecondLawVerdict(passed=w_s >= -tolerances().work_atol, work_on_machine=w_s,
                            heat_into_reservoir=q_r)
