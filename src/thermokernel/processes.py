"""Processes as thermodynamic footprints.

A process records, for every involved atom, its initial state, final state
and the work done on it.  Atoms not involved carry zero work by convention.
A process is equal only to itself: two processes with identical footprints
remain distinct values, because a footprint does not determine the procedure
that produced it.

``AtomState``, ``ProcessEntry`` and ``Process`` are frozen slotted values.

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
from .systems import AtomId, System, atoms_of, are_disjoint, compose


@dataclass(frozen=True, slots=True, init=False)
class AtomState:
    """A state payload tagged with the atom it belongs to.

    State spaces of distinct atoms are disjoint by construction: the atom
    tag is part of the state.
    """

    atom: AtomId
    value: Any

    def __init__(self, atom: AtomId, value: Any):
        _set_atom(self, atom)
        _set_value(self, value)


# A joint state covers exactly the atoms of some system.
JointState = Mapping[AtomId, AtomState]


def joint(*states: AtomState) -> dict[AtomId, AtomState]:
    out: dict[AtomId, AtomState] = {}
    for st in states:
        if st.atom in out:
            raise ValueError(f"duplicate atom {st.atom} in joint state")
        out[st.atom] = st
    return out


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


def values_close(a: Any, b: Any, atol: float | None = None) -> bool:
    """Payload equality up to the model tolerance (default absolute 1e-12)."""
    if atol is None:
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
    initial: AtomState
    final: AtomState
    work: float

    def __init__(self, initial: AtomState, final: AtomState, work: float):
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

    def initial_of(self, atom: AtomId) -> AtomState:
        return self.entries[atom].initial

    def final_of(self, atom: AtomId) -> AtomState:
        return self.entries[atom].final

    def work_on(self, atom: AtomId) -> float:
        entry = self.entries.get(atom)
        return entry.work if entry is not None else 0.0

    def same_footprint(self, other: "Process") -> bool:
        if self.involved != other.involved:
            return False
        for atom, e in self.entries.items():
            o = other.entries[atom]
            if not values_close(e.initial.value, o.initial.value):
                return False
            if not values_close(e.final.value, o.final.value):
                return False
            if not abs(e.work - o.work) <= tolerances().work_atol:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "atom": atom.to_json(),
                    "initial": value_to_json(e.initial.value),
                    "final": value_to_json(e.final.value),
                    "work": e.work,
                }
                for atom, e in sorted(self.entries.items())
            ],
            "reversible": self.reversible,
            "tags": sorted(self.tags),
        }


_set_atom, _set_value = AtomState.atom.__set__, AtomState.value.__set__
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
    built = {atom: ProcessEntry(AtomState(atom, ini), AtomState(atom, fin), float(w))
             for atom, (ini, fin, w) in entries.items()}
    return Process(built, reversible, frozenset(tags or ()))


def concatenate(p: Process, q: Process) -> Process:
    """Run ``p`` then ``q``.

    Atoms shared by both must match endpoint states (up to the model
    tolerance); per-atom works add.  For disjoint operands the result
    commutes with the swapped concatenation at the footprint level.
    A shared atom's entry keeps ``p``'s initial and ``q``'s final state;
    an atom of only one operand keeps its entry as it is.
    """
    entries = dict(p.entries)
    for atom, qe in q.entries.items():
        pe = entries.get(atom)
        if pe is None:
            entries[atom] = qe
            continue
        if not values_close(pe.final.value, qe.initial.value):
            raise StateMismatch(atom, pe.final.value, qe.initial.value)
        entries[atom] = ProcessEntry(pe.initial, qe.final, pe.work + qe.work)
    return Process(entries, p.reversible and q.reversible, p.tags | q.tags)


def work_of(s: System, p: Process) -> float:
    """Total work done on ``s``: the sum over its atoms, zero when absent."""
    return sum(p.work_on(a) for a in atoms_of(s))


def is_work_process(s: System, p: Process) -> bool:
    """True iff the involved atoms are exactly the atoms of ``s``."""
    return p.involved == atoms_of(s)


def make_identity(s: System, sigma: JointState) -> Process:
    """Zero-work process leaving every atom of ``s`` in place; its own reverse."""
    missing = atoms_of(s) - set(sigma)
    if missing:
        raise ValueError(f"joint state does not cover atoms {missing}")
    entries = {a: (sigma[a].value, sigma[a].value, 0.0) for a in atoms_of(s)}
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
        values_close(e.initial.value, e.final.value)
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
    return Process({a: p.entries[a] for a in atoms_of(s)}, p.reversible, p.tags)


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
