"""Heat-flow temperatures, Clausius sums, and entropy as a state function.

Entropy differences are sums of heat over temperature along sequences of
reversible reservoir contacts.  Around any cycle the sum is non-positive,
and zero when every leg is reversible; that path independence is what makes
the per-atom tally a state function.  Heat must be tallied per contact, at
each contact's own temperature: a zero net heat over a cycle through two
different baths still moves entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from .config import tolerances
from .energy import EnergyLedger, heat_of, ledger_delta
from .errors import (
    NoTemperature,
    NotCyclic,
    NotWorkProcess,
    UnassignedTemperature,
    Unreachable,
    ZeroHeat,
)
from .gas import (
    GasAtom,
    GasModel,
    IsothermSegment,
    gas_T,
    isotherm_leg,
)
from .processes import (
    Process,
    concatenate,
    is_work_process,
    values_close,
)
from .reservoirs import RESERVOIR_KIND, Reservoir, ReservoirModel
from .systems import AtomId, System, World, are_disjoint, compose


@dataclass(frozen=True)
class TemperatureInterval:
    """Closed interval of temperatures assignable to one heat flow."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0 < self.lo <= self.hi):
            raise ValueError(f"invalid temperature interval [{self.lo}, {self.hi}]")

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, t: float) -> bool:
        return self.lo <= t <= self.hi


@dataclass(frozen=True)
class HeatFlowRecord:
    """One contact leg: its process, the heat into the probe, its temperature.

    ``temperature`` may be None only for legs with zero heat (isolated
    legs); those contribute nothing to Clausius sums.
    """

    process: Process
    q: float
    temperature: float | None = None


def assign_heat_temperature(
    world: World,
    s1: System,
    s2: System,
    p: Process,
) -> TemperatureInterval:
    """Temperatures at which the heat into ``s2`` can be said to flow.

    The flow could equivalently be routed through a pair of reservoirs at
    temperature T without changing anything on the endpoints; the set of
    such T is returned as a closed interval.  Reversible isothermal contact
    pins a single temperature; direct conduction between gases at different
    temperatures admits the whole band between them.
    """
    if not are_disjoint(s1, s2):
        raise NotWorkProcess("the two parts must be disjoint")
    if not is_work_process(compose(s1, s2), p):
        raise NotWorkProcess("process must be a work process on the two parts")
    q = heat_of(EnergyLedger(world), s2, p)
    if abs(q) <= tolerances().work_atol:
        raise ZeroHeat("no temperature is assigned to a zero heat flow")

    def reservoir_thetas() -> list[float]:
        return [
            world.binding(a).theta for a in p.involved if a.kind == RESERVOIR_KIND
        ]

    def gas_temps_initial() -> list[float]:
        temps = []
        for a in p.involved:
            if a.kind == RESERVOIR_KIND:
                continue
            model = world.binding(a)
            if isinstance(model, GasModel):
                temps.append(gas_T(model, p.initial_of(a)))
        return temps

    if "type3" in p.tags and not ({"conduction", "reservoir-contact"} & p.tags):
        # the thetas are the caller's parameters, so equal means equal
        thetas = set(reservoir_thetas())
        if len(thetas) != 1:
            raise NoTemperature(
                "isothermal legs at different reservoir temperatures do not mix"
            )
        (t,) = thetas
        return TemperatureInterval(t, t)
    if "conduction" in p.tags:
        temps = sorted(gas_temps_initial())
        if len(temps) != 2:
            raise NoTemperature("conduction needs exactly two gases")
        return TemperatureInterval(temps[0], temps[1])
    if "reservoir-contact" in p.tags:
        thetas = reservoir_thetas()
        temps = gas_temps_initial()
        if len(thetas) != 1 or len(temps) != 1:
            raise NoTemperature("contact needs one gas and one reservoir")
        lo, hi = sorted((thetas[0], temps[0]))
        return TemperatureInterval(lo, hi)
    raise NoTemperature("no reservoir division exists for this process in the model")


def clausius_sum(records: Sequence[HeatFlowRecord], probe: System) -> float:
    """Sum of heat over temperature along a closed contact sequence.

    The record processes must be concatenable in order and the concatenation
    cyclic on the probe system.
    Non-positive for every cycle; zero for all-reversible ones.
    """
    if not records:
        return 0.0
    total = concatenate(*[rec.process for rec in records])
    for atom in probe.atoms:
        entry = total.entries.get(atom)
        if entry is None:
            raise NotCyclic(f"probe atom {atom} not involved")
        if not values_close(entry.initial, entry.final):
            raise NotCyclic(f"probe atom {atom} does not return to its initial state")
    out = 0.0
    for rec in records:
        if rec.q == 0.0:
            continue
        if rec.temperature is None:
            raise UnassignedTemperature(
                "a record with non-zero heat carries no temperature"
            )
        out += rec.q / rec.temperature
    return out


@dataclass(frozen=True)
class EntropyLedger:
    """Entropies of the atoms of one ``World``, temperatures in the natural unit T = theta.

    Each query reads the atom's anchor off its model binding: a gas has
    entropy ``S0`` at its model's ``sigma0``, a reservoir has entropy 0 at
    energy 0.  A gas entropy difference is the heat of one reversible
    isotherm leg over its temperature: the leg runs from the adiabat of the
    reference state to the adiabat of the queried state, at the geometric
    mean of their gas temperatures.  It is the middle leg of the
    ``connect_reversible`` template; the two isolated legs around it carry
    no heat, so they are not built.  Its reservoir is detached: one batch
    makes one bath atom, with id -1, which no ``World`` hands out, in one
    empty world that no caller holds, and each leg binds it to its own
    theta.  The ledger keeps nothing between queries and a query adds no
    atom to its world.
    """

    world: World

    def atom_entropy(self, atom: AtomId, payload: Any) -> float:
        """Entropy of one atom's state: ``atom_entropies`` of one payload."""
        return next(self.atom_entropies(atom, (payload,)))

    def atom_entropies(self, atom: AtomId, payloads: Iterable[Any]) -> Iterator[float]:
        """Entropies of one atom's states, one per payload, in order, as they are pulled.

        The binding, anchor, its gas temperature, the ``GasAtom`` and the
        detached bath are resolved once per call; each payload builds only
        its own reservoir and isotherm leg.  Nothing outlives the call.
        """
        binding = self.world.binding(atom) if atom in self.world else None
        if isinstance(binding, ReservoirModel):
            t = binding.theta
            yield from (float(payload) / t for payload in payloads)
            return
        if not isinstance(binding, GasModel):
            raise Unreachable(f"no entropy reference for {atom}")
        gas, s0, sigma0 = GasAtom(atom, binding, self.world), binding.S0, binding.sigma0
        t0, bath, detached = gas_T(binding, sigma0), AtomId(-1, RESERVOIR_KIND), World()
        for payload in payloads:
            if payload == sigma0:
                yield s0 + 0.0
                continue
            theta = math.sqrt(t0 * gas_T(binding, payload))
            leg = isotherm_leg(gas, Reservoir(bath, ReservoirModel(theta), detached),
                               sigma0, payload)
            yield s0 + leg.heat_between(atom, 0.0, 1.0) / theta


def delta_entropy(ledger: EntropyLedger, s: System, p: Process) -> float:
    """Entropy change of ``s`` under ``p``; uninvolved atoms contribute zero."""
    return ledger_delta(ledger.atom_entropies, s, p)


@dataclass(frozen=True)
class EntropyVerdict:
    passed: bool
    delta_s: float
    reversible: bool


def check_entropy_theorem(s: System, p: Process, ledger: EntropyLedger) -> EntropyVerdict:
    """Work processes never lower entropy; reversible ones keep it constant, both to 1e-9."""
    if not is_work_process(s, p):
        raise NotWorkProcess("the entropy monotone is stated for work processes")
    ds = delta_entropy(ledger, s, p)
    rev = p.reversible
    passed = ds >= -1e-9 and (not rev or abs(ds) <= 1e-9)
    return EntropyVerdict(passed=passed, delta_s=ds, reversible=rev)


def records_from_legs(legs: Iterable, gas: GasAtom) -> list[HeatFlowRecord]:
    """Build Clausius records from quasistatic legs, one slice per leg.

    Isothermal legs carry their reservoir's temperature, its ``theta``;
    isolated and friction legs carry zero heat and no temperature.
    """
    records = []
    for fam in legs:
        proc = fam.slice(0.0, 1.0)
        if isinstance(fam, IsothermSegment):
            q = fam.heat_between(gas.atom, 0.0, 1.0)
            records.append(HeatFlowRecord(proc, q, fam.res.theta))
        else:
            records.append(HeatFlowRecord(proc, 0.0, None))
    return records
