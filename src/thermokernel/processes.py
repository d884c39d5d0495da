"""Processes as thermodynamic footprints.

A process records, for every involved atom, its initial state, final state
and the work done on it.  Atoms not involved carry zero work by convention.
An entry holds its atom's state payloads (a ``GasState``, or a reservoir's
float energy) under the atom's key, so the state spaces of distinct atoms
are disjoint by construction.
A process is equal only to itself: two processes with identical footprints
remain distinct values, because a footprint does not determine the procedure
that produced it.

``ProcessEntry`` and ``Process`` are frozen slotted values.

A process is reversible when the process with swapped initial and final
states and negated work also exists.  Constructors that know the reverse
exists set the ``reversible`` flag, and ``reverse_of`` builds that reverse
from the footprint itself.  A process without the flag is irreversible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple

from .config import tolerances
from .errors import (
    NoReverseWitness,
    NotCatalytic,
    NotWorkProcess,
    Overlap,
    StateMismatch,
)
from .systems import AtomId, System, are_disjoint, compose


def value_components(value: Any) -> tuple[float, ...]:
    """Flatten a numeric state payload to a float tuple for comparisons."""
    if isinstance(value, (int, float)):
        return (float(value),)
    if hasattr(value, "as_tuple"):
        return tuple(float(x) for x in value.as_tuple())
    if isinstance(value, tuple):
        return tuple(float(x) for x in value)
    raise TypeError(f"unsupported state payload {value!r}")


def value_to_json(value: Any):
    comps = value_components(value)
    return comps[0] if len(comps) == 1 else list(comps)


def values_close(a: Any, b: Any) -> bool:
    """Payload equality up to the absolute ``state_atol`` tier."""
    atol = tolerances().state_atol
    if type(a) is float and type(b) is float:
        return abs(a - b) <= atol
    if type(a) is type(b) and hasattr(a, "as_tuple"):  # no ``value_components`` tuples
        ca, cb = a.as_tuple(), b.as_tuple()
    else:
        ca, cb = value_components(a), value_components(b)
    for x, y in zip(ca, cb):  # a loop: ``all`` over a generator costs a frame per call
        if not abs(float(x) - float(y)) <= atol:
            return False
    return len(ca) == len(cb)


@dataclass(frozen=True, slots=True, init=False)
class ProcessEntry:
    initial: Any
    final: Any
    work: float

    def __init__(self, initial: Any, final: Any, work: float):
        _set_initial(self, initial)
        _set_final(self, final)
        _set_work(self, work)


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Process:
    """Footprint of a procedure: per-atom state changes plus work.

    Equality is identity (the dataclass is ``eq=False``); use
    ``same_footprint`` to compare thermodynamic content.
    """

    entries: Mapping[AtomId, ProcessEntry]
    reversible: bool
    tags: frozenset[str]

    def __init__(self, entries, reversible=False, tags=frozenset()):
        if not entries:
            raise ValueError("a process involves at least one atom")
        _set_entries(self, entries)
        _set_reversible(self, reversible)
        _set_tags(self, tags)

    @property
    def involved(self) -> frozenset[AtomId]:
        return frozenset(self.entries)

    def initial_of(self, atom: AtomId) -> Any:
        return self.entries[atom].initial

    def final_of(self, atom: AtomId) -> Any:
        return self.entries[atom].final

    def work_on(self, atom: AtomId) -> float:
        entry = self.entries.get(atom)
        return entry.work if entry is not None else 0.0

    def same_footprint(self, other: "Process") -> bool:
        if self.involved != other.involved:
            return False
        for atom, e in self.entries.items():
            o = other.entries[atom]
            if not values_close(e.initial, o.initial):
                return False
            if not values_close(e.final, o.final):
                return False
            if not abs(e.work - o.work) <= tolerances().work_atol:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "atom": atom.to_json(),
                    "initial": value_to_json(e.initial),
                    "final": value_to_json(e.final),
                    "work": e.work,
                }
                for atom, e in sorted(self.entries.items())
            ],
            "reversible": self.reversible,
            "tags": sorted(self.tags),
        }


_set_initial, _set_final, _set_work = (
    ProcessEntry.initial.__set__, ProcessEntry.final.__set__, ProcessEntry.work.__set__)
_set_entries, _set_reversible, _set_tags = (
    Process.entries.__set__, Process.reversible.__set__, Process.tags.__set__)


def make_process(
    entries: Mapping[AtomId, tuple[Any, Any, float]],
    reversible: bool = False,
    tags: Iterable[str] | None = None,
) -> Process:
    """Build a process from ``atom -> (initial_value, final_value, work)``."""
    built = {atom: ProcessEntry(ini, fin, float(w)) for atom, (ini, fin, w) in entries.items()}
    return Process(built, reversible, frozenset(tags or ()))


def concatenate(p: Process, *rest: Process) -> Process:
    """Run ``p``, then each process of ``rest`` in order: the nested binary fold, in one pass.

    An atom already involved must enter each operand in the state it last
    left (up to the model tolerance), or ``StateMismatch`` names the two
    states; it keeps its first initial and last final state, and its works
    add left to right.  An atom of only one operand keeps its entry as it
    is.  For disjoint operands the result commutes with the swapped
    concatenation at the footprint level.
    """
    entries = dict(p.entries)
    reversible, tags = p.reversible, p.tags
    for q in rest:
        for atom, qe in q.entries.items():
            pe = entries.get(atom)
            if pe is None:
                entries[atom] = qe
                continue
            if not values_close(pe.final, qe.initial):
                raise StateMismatch(atom, pe.final, qe.initial)
            entries[atom] = ProcessEntry(pe.initial, qe.final, pe.work + qe.work)
        reversible, tags = reversible and q.reversible, tags | q.tags
    return Process(entries, reversible, tags)


def work_of(s: System, p: Process) -> float:
    """Total work done on ``s``: the sum over its atoms, zero when absent."""
    return sum(p.work_on(a) for a in s.atoms)


def is_work_process(s: System, p: Process) -> bool:
    """True iff the involved atoms are exactly the atoms of ``s``."""
    return p.involved == s.atoms


def make_identity(s: System, sigma: Mapping[AtomId, Any]) -> Process:
    """Zero-work process leaving each atom of ``s`` at its ``sigma`` payload; its own reverse."""
    missing = s.atoms - set(sigma)
    if missing:
        raise ValueError(f"joint state does not cover atoms {missing}")
    entries = {a: (sigma[a], sigma[a], 0.0) for a in s.atoms}
    return make_process(entries, reversible=True, tags=("identity",))


class Classification(NamedTuple):
    cyclic: bool
    catalytic: bool


def classify(c: System, p: Process) -> Classification:
    """Cyclic: ``c`` returns to its initial state.  Catalytic: also zero net work.

    Atoms of ``c`` not involved in ``p`` are trivially unchanged.  Work on
    individual atoms of a catalytic system may be non-zero; only the total
    must vanish.
    """
    cyclic = all(
        values_close(e.initial, e.final)
        for atom, e in p.entries.items()
        if atom in c
    )
    catalytic = cyclic and abs(work_of(c, p)) <= tolerances().work_atol
    return Classification(cyclic, catalytic)


def eliminate_catalyst(s: System, c: System, p: Process) -> Process:
    """Drop a catalytic part from the description.

    Requires ``p`` to be a work process on ``s | c`` with disjoint parts and
    catalytic on ``c``.  The result involves exactly the atoms of ``s`` with
    identical per-atom states and works.
    """
    if not are_disjoint(s, c):
        raise NotWorkProcess("catalyst elimination needs disjoint parts")
    if not is_work_process(compose(s, c), p):
        raise NotWorkProcess("process is not a work process on the combined system")
    if not classify(c, p).catalytic:
        raise NotCatalytic("process is not catalytic on the stated part")
    return Process({a: p.entries[a] for a in s.atoms}, p.reversible, p.tags)


def reverse_of(p: Process) -> Process:
    """The footprint with every atom's endpoints swapped and its work negated.

    Exact: reversing twice gives back equal entries.  ``0.0 - w`` keeps a
    zero work at ``+0.0``.  An irreversible process has no reverse.
    """
    if not p.reversible:
        raise NoReverseWitness(f"process tagged {sorted(p.tags)} is not reversible")
    return Process({a: ProcessEntry(e.final, e.initial, 0.0 - e.work)
                    for a, e in p.entries.items()}, True, p.tags)


def join(p1: Process, p2: Process) -> Process:
    """Parallel execution of work processes on disjoint systems."""
    if p1.involved & p2.involved:
        raise Overlap(f"joint processes must not share atoms: {p1.involved & p2.involved}")
    return Process({**p1.entries, **p2.entries}, p1.reversible and p2.reversible,
                   p1.tags | p2.tags)
