"""Finite-set algebra of thermodynamic systems.

Systems are finite nonempty sets of atom identifiers drawn from a ``World``.
Composition is set union and intersection is set intersection, ``None`` when
two systems share no atom.  A system's ``atoms`` are its unique
decomposition.  All values are immutable; atom allocation in the ``World``
is the single mutation point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


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

    def __contains__(self, atom: AtomId) -> bool:
        return atom in self.atoms


_set_atoms = System.atoms.__set__


def system(*atoms: AtomId) -> System:
    return System(frozenset(atoms))


class World:
    """Registry of all allocatable atoms and their model bindings.

    Atom ids are counters scoped to the world.
    """

    def __init__(self):
        self._bindings: dict[AtomId, Any] = {}

    def new_atom(self, kind: str, binding: Any = None) -> AtomId:
        atom = AtomId(len(self._bindings), kind)  # no binding is ever removed
        self._bindings[atom] = binding
        return atom

    def binding(self, atom: AtomId) -> Any:
        return self._bindings[atom]

    def __contains__(self, atom: AtomId) -> bool:
        return atom in self._bindings

    @property
    def registry(self) -> frozenset[AtomId]:
        return frozenset(self._bindings)


@dataclass(frozen=True, slots=True, init=False)
class Handle:
    """Binds an atom to its model and world; ``GasAtom`` and ``Reservoir`` are its kinds."""

    atom: AtomId
    model: Any
    world: World

    def __init__(self, atom: AtomId, model: Any, world: World):
        _set_atom(self, atom)
        _set_model(self, model)
        _set_world(self, world)

    @property
    def system(self) -> System:
        return system(self.atom)


_set_atom, _set_model, _set_world = Handle.atom.__set__, Handle.model.__set__, Handle.world.__set__


def compose(a: System, b: System) -> System:
    """Union of the two atom sets; commutative, associative, idempotent."""
    return System(a.atoms | b.atoms)


def intersect(a: System, b: System) -> System | None:
    """Intersection of the two atom sets, or ``None`` when they share no atom.

    The empty set is not a system.
    """
    shared = a.atoms & b.atoms
    return System(shared) if shared else None


def are_disjoint(a: System, b: System) -> bool:
    return not (a.atoms & b.atoms)


def is_subsystem(part: System, whole: System) -> bool:
    return part.atoms <= whole.atoms


def clone_system(world: World, s: System) -> tuple[System, dict[AtomId, AtomId]]:
    """Allocate fresh atoms of identical kinds with duplicated model bindings.

    Returns the copy together with the atom bijection.  The copy is disjoint
    from every existing system, and every process constructor available on
    the original works identically on the copy.
    """
    mapping: dict[AtomId, AtomId] = {}
    for atom in sorted(s.atoms):
        binding = world.binding(atom) if atom in world else None
        mapping[atom] = world.new_atom(atom.kind, binding)
    return System(frozenset(mapping.values())), mapping
