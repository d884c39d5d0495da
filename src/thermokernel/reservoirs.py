"""Heat reservoirs and the Kelvin-Planck second-law check.

A reservoir is an atomic system whose state is a single energy value.  Its
internal energy function is the identity on that value (injective), so
``heat_into`` reads its heat off its own footprint entry, with no ledger.
No generated process ever extracts work from it, and every constructor
depends only on energy differences, never on the absolute energy, which
realizes translation invariance.

The model parameter ``theta`` is the gas-side isotherm invariant pV/(nR) at
which the reservoir exchanges heat reversibly with an ideal gas.  Absolute
temperature is never assumed from ``theta``; it is derived from heat-flow
ratios of reversible engines (see the carnot module), whose
``absolute_temperature`` fixes a unit, and only the verified natural unit
T = theta is then used elsewhere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .config import tolerances
from .errors import PreconditionNotMet
from .processes import Process, classify, is_work_process, make_process, work_of
from .systems import AtomId, Handle, System, World, compose

RESERVOIR_KIND = "reservoir"


@dataclass(frozen=True, slots=True, init=False)
class ReservoirModel:
    theta: float

    def __init__(self, theta: float):
        if not 0 < theta <= sys.float_info.max:  # an int past it is not finite either
            raise ValueError(f"reservoir parameter theta must be positive and finite, got {theta}")
        _set_theta(self, theta)


_set_theta = ReservoirModel.theta.__set__


class Reservoir(Handle):
    """Handle binding a reservoir atom to its model and world."""

    __slots__ = ()

    @property
    def theta(self) -> float:
        return self.model.theta


def add_reservoir(world: World, theta: float) -> Reservoir:
    model = ReservoirModel(theta)
    atom = world.new_atom(RESERVOIR_KIND, model)
    return Reservoir(atom=atom, model=model, world=world)


def reservoir_handle(world: World, atom: AtomId) -> Reservoir:
    model = world.binding(atom)
    if not isinstance(model, ReservoirModel):
        raise TypeError(f"{atom} is not bound to a reservoir model")
    return Reservoir(atom=atom, model=model, world=world)


def stir(res: Reservoir, work: float) -> Process:
    """Dump work into a reservoir, raising its energy from 0.0 by the same amount.

    Work on a reservoir is finite and never negative; the constructor
    depends only on the energy difference, so the reservoir starts at 0.0.
    """
    if not 0 <= work < math.inf:
        raise PreconditionNotMet(f"stirring work must be finite and non-negative, got {work}")
    return make_process(
        {res.atom: (0.0, 0.0 + work, float(work))},
        tags=("stir",),
    )


def heat_into(res: Reservoir, p: Process) -> float:
    """Heat into ``res`` over ``p``: its energy change minus the work done on it."""
    entry = p.entries[res.atom]
    return (entry.final - entry.initial) - entry.work


@dataclass(frozen=True)
class SecondLawVerdict:
    passed: bool
    work_on_machine: float
    heat_into_reservoir: float


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
    return SecondLawVerdict(passed=w_s >= -tolerances().work_atol, work_on_machine=w_s,
                            heat_into_reservoir=heat_into(res, p))
