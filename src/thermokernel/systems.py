"""Finite-set algebra of thermodynamic systems.

Systems are finite nonempty sets of atom identifiers drawn from a ``World``.
Composition is set union, intersection is set intersection with a
distinguished ``Disjoint`` marker for the empty case, and every system
decomposes uniquely into its atoms.  All values are immutable; atom
allocation in the ``World`` is the single mutation point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Iterable, Iterator

from .errors import NotProperSubsystem, SizeLimit

SUBSYSTEM_ENUM_LIMIT = 16


@dataclass(frozen=True, order=True, slots=True, init=False)
class AtomId:
    """World-scoped atom identifier, compared and ordered by ``(id, kind)``.

    The hash is the ``id``: cheap, and free of the string hash seed.
    """

    id: int
    kind: str

    def __init__(self, id: int, kind: str):
        _set_id(self, id)
        _set_kind(self, kind)

    def __hash__(self) -> int:
        return self.id

    def to_json(self) -> dict:
        return {"id": self.id, "kind": self.kind}


_set_id, _set_kind = AtomId.id.__set__, AtomId.kind.__set__


class _Disjoint:
    """Marker returned by ``intersect`` when two systems share no atoms.

    Notation only: the empty set is not a system.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Disjoint"

    def __bool__(self):
        return False


Disjoint = _Disjoint()


@dataclass(frozen=True, slots=True, init=False)
class System:
    """A finite nonempty set of atoms."""

    atoms: frozenset[AtomId]

    def __init__(self, atoms: Iterable[AtomId]):
        if not isinstance(atoms, frozenset):
            atoms = frozenset(atoms)
        if not atoms:
            raise ValueError("a system must contain at least one atom")
        _set_atoms(self, atoms)

    def __iter__(self) -> Iterator[AtomId]:
        return iter(self.sorted_atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: AtomId) -> bool:
        return atom in self.atoms

    @property
    def sorted_atoms(self) -> tuple[AtomId, ...]:
        return tuple(sorted(self.atoms))


_set_atoms = System.atoms.__set__


def system(*atoms: AtomId) -> System:
    return System(frozenset(atoms))


class World:
    """Registry of all allocatable atoms and their model bindings.

    Atom ids are counters scoped to the world.
    """

    def __init__(self):
        self._next = 0
        self._bindings: dict[AtomId, Any] = {}

    def new_atom(self, kind: str, binding: Any = None) -> AtomId:
        atom = AtomId(self._next, kind)
        self._next += 1
        self._bindings[atom] = binding
        return atom

    def binding(self, atom: AtomId) -> Any:
        return self._bindings[atom]

    def __contains__(self, atom: AtomId) -> bool:
        return atom in self._bindings

    @property
    def registry(self) -> frozenset[AtomId]:
        return frozenset(self._bindings)


def compose(a: System, b: System) -> System:
    """Union of the two atom sets; commutative, associative, idempotent."""
    return System(a.atoms | b.atoms)


def intersect(a: System, b: System):
    """Intersection of the two atom sets, or ``Disjoint`` when empty."""
    shared = a.atoms & b.atoms
    if not shared:
        return Disjoint
    return System(shared)


def are_disjoint(a: System, b: System) -> bool:
    return not (a.atoms & b.atoms)


def atoms_of(s: System) -> frozenset[AtomId]:
    """Singleton decomposition: the set of atoms making up ``s``."""
    return s.atoms


def is_subsystem(part: System, whole: System) -> bool:
    return part.atoms <= whole.atoms


def subsystems(s: System) -> set[System]:
    """All nonempty subsets of ``s``, capped at 16 atoms (2^n blowup)."""
    if len(s) > SUBSYSTEM_ENUM_LIMIT:
        raise SizeLimit(
            f"refusing to enumerate subsystems of {len(s)} atoms; "
            f"use is_subsystem for membership tests"
        )
    atoms = s.sorted_atoms
    out: set[System] = set()
    for r in range(1, len(atoms) + 1):
        for combo in combinations(atoms, r):
            out.add(System(frozenset(combo)))
    return out


def disjoint_complement(whole: System, part: System) -> System:
    """The unique system with ``part | result == whole`` and no overlap."""
    if not is_subsystem(part, whole) or part.atoms == whole.atoms:
        raise NotProperSubsystem(f"{part} is not a proper subsystem of {whole}")
    return System(whole.atoms - part.atoms)


def clone_system(world: World, s: System) -> tuple[System, dict[AtomId, AtomId]]:
    """Allocate fresh atoms of identical kinds with duplicated model bindings.

    Returns the copy together with the atom bijection.  The copy is disjoint
    from every existing system, and every process constructor available on
    the original works identically on the copy.
    """
    mapping: dict[AtomId, AtomId] = {}
    for atom in s.sorted_atoms:
        binding = world.binding(atom) if atom in world else None
        mapping[atom] = world.new_atom(atom.kind, binding)
    return System(frozenset(mapping.values())), mapping
