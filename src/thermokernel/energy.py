"""First-law layer: internal energy, heat, conformance checks.

Internal energy is a state function anchored at a per-atom reference: the
energy of a state is the reference energy plus the total work of any
connecting work process (or minus, for a process arriving at the reference).
A gas's reference is its model's ``sigma0``, so the anchor is read off the
model binding on every query and the ledger keeps nothing between queries.
The connecting process is the first ``GasPlanner.routes`` plan from the
reference to the state, or from the state back to it; which way a work
process runs is ``gas.connect_forward``'s adiabat rule, the same one
``connect`` follows.  The engine integrates the plan's work numerically; the
closed forms in the gas module are used only as references for the anchor
constant and as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .config import fold_worst, tolerances
from .errors import Unreachable
from .gas import AdiabatSegment, GasAtom, GasModel, GasPlanner, GasState, connect_forward, gas_U
from .processes import Process, work_of
from .reservoirs import RESERVOIR_KIND, ReservoirModel
from .systems import AtomId, System, World


@dataclass(frozen=True)
class EnergyLedger:
    """Internal energies of the atoms of one ``World``; it holds nothing else.

    Each query reads the atom's anchor off its model binding: a gas is
    anchored at its model's ``sigma0`` with the closed-form energy there, and
    a reservoir's energy is its payload.  A fresh ``GasPlanner`` builds the
    connecting work process, its first route in whichever direction one
    exists, so a query keeps nothing and adds no atom to the world.
    """

    world: World

    def atom_energy(self, atom: AtomId, payload: Any) -> float:
        """Energy of one atom's state: ``atom_energies`` of one payload."""
        return next(self.atom_energies(atom, (payload,)))

    def atom_energies(self, atom: AtomId, payloads: Iterable[Any]) -> Iterator[float]:
        """Energies of one atom's states, one per payload, in order, as they are pulled.

        One call resolves the binding, anchor and planner once, orients each
        payload once by ``connect_forward``, as ``connect`` does, and asks for
        one route in that direction.  It memoizes only the isolated legs that
        leave the anchor, keyed by their target volume: the routes from the
        anchor to one volume share that leg.  Every other leg is integrated
        where it is met.  Nothing outlives the call.
        """
        binding = self.world.binding(atom) if atom in self.world else None
        if atom.kind == RESERVOIR_KIND or isinstance(binding, ReservoirModel):
            yield from map(float, payloads)
            return
        if not isinstance(binding, GasModel):
            raise Unreachable(f"no energy reference registered for {atom}")
        sigma0, u0 = binding.sigma0, gas_U(binding, binding.sigma0)
        planner = GasPlanner(GasAtom(atom, binding, self.world))
        works: dict[float, float] = {}

        def work(leg) -> float:
            if type(leg) is not AdiabatSegment or leg.start is not sigma0:
                return leg.work_between(atom, 0.0, 1.0)
            w = works.get(leg.V2)
            if w is None:
                w = works[leg.V2] = leg.work_between(atom, 0.0, 1.0)
            return w

        for payload in payloads:
            if connect_forward(binding, sigma0, payload):
                yield u0 + sum(map(work, planner.routes(sigma0, payload, count=1)[0]))
            else:
                yield u0 - sum(map(work, planner.routes(payload, sigma0, count=1)[0]))


def internal_energy(ledger: EnergyLedger, s: System, sigma: Mapping[AtomId, Any]) -> float:
    """Internal energy of a joint state ``atom -> payload``: the sum of its atoms' energies."""
    return sum(ledger.atom_energy(a, sigma[a]) for a in s.atoms)


def ledger_delta(values: Callable[..., Iterator[float]], s: System, p: Process) -> float:
    """Change of a ledger's state function on ``s`` under ``p``: one ``values`` batch per atom."""
    total = 0.0
    for atom in s.atoms:
        entry = p.entries.get(atom)
        if entry is None:
            continue
        final, initial = values(atom, (entry.final, entry.initial))
        total += final - initial
    return total


def delta_u(ledger: EnergyLedger, s: System, p: Process) -> float:
    """Energy change of ``s`` under ``p``; uninvolved atoms contribute zero."""
    return ledger_delta(ledger.atom_energies, s, p)


def heat_of(ledger: EnergyLedger, s: System, p: Process) -> float:
    """Heat flowing into ``s``: energy change minus work done on it."""
    return delta_u(ledger, s, p) - work_of(s, p)


@dataclass
class FirstLawReport:
    pairs_checked: int
    violations: list[dict]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_first_law(
    planner: GasPlanner, pairs: Sequence[tuple[GasState, GasState]]
) -> FirstLawReport:
    """Work totals of all discovered connecting work processes must agree.

    Each sampled state pair is oriented as ``connect`` orients it, and up
    to three plans are built in that direction; a pair with no plan, or
    plans whose total works disagree beyond the ``first_law_rtol`` and
    ``first_law_atol`` tiers, are reported as violations.
    """
    cfg = tolerances()
    violations = []
    atom, g = planner.gas.atom, planner.gas.model
    for s1, s2 in pairs:
        a, b = (s1, s2) if connect_forward(g, s1, s2) else (s2, s1)
        plans = planner.routes(a, b, count=3)
        works = [sum(f.work_between(atom, 0.0, 1.0) for f in plan) for plan in plans]
        if not works:
            violations.append(
                {"sigma1": a.as_tuple(), "sigma2": b.as_tuple(), "works": [],
                 "reason": "no plan constructed"}
            )
            continue
        spread = fold_worst(max, *works) - fold_worst(min, *works)
        bound = max(cfg.first_law_atol, cfg.first_law_rtol * max(abs(w) for w in works))
        if not spread <= bound:
            violations.append(
                {"sigma1": a.as_tuple(), "sigma2": b.as_tuple(),
                 "works": works, "reason": f"work spread {spread} beyond {bound}"}
            )
    return FirstLawReport(pairs_checked=len(pairs), violations=violations)
