import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermokernel.gas import GasAtom, GasModel, GasPlanner, GasState, gas_handle, type2
from thermokernel.reservoirs import Reservoir, ReservoirModel, reservoir_handle
from thermokernel.systems import (
    AtomId,
    System,
    World,
    clone_system,
    compose,
    intersect,
    is_subsystem,
    system,
)

from conftest import make_abstract_atoms


def test_compose_is_union(world):
    a1, a2, a3 = make_abstract_atoms(world, 3)
    assert compose(system(a1), system(a2)) == system(a1, a2)
    assert compose(system(a1, a2), system(a2, a3)) == system(a1, a2, a3)


def test_compose_idempotent(world):
    a1, a2 = make_abstract_atoms(world, 2)
    s = system(a1, a2)
    assert compose(s, s) == s


def test_intersect(world):
    a1, a2, a3 = make_abstract_atoms(world, 3)
    assert intersect(system(a1, a2), system(a2, a3)) == system(a2)
    assert intersect(system(a1), system(a2)) is None
    s = system(a1, a3)
    assert intersect(s, s) == s


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        System(frozenset())


def test_atoms_and_recomposition(world):
    atoms = make_abstract_atoms(world, 4)
    s = system(*atoms)
    assert s.atoms == frozenset(atoms)
    rebuilt = system(atoms[0])
    for a in atoms[1:]:
        rebuilt = compose(rebuilt, system(a))
    assert rebuilt == s


def test_is_subsystem(world):
    a1, a2, a3 = make_abstract_atoms(world, 3)
    s = system(a1, a2)
    assert is_subsystem(system(a1), s) and is_subsystem(system(a2), s)
    assert is_subsystem(s, s)  # a system is its own subsystem
    assert not is_subsystem(system(a3), s) and not is_subsystem(system(a1, a3), s)


@given(st.data())
def test_compose_commutative_associative(data):
    world = World()
    atoms = [world.new_atom("abstract") for _ in range(6)]
    pick = st.sets(st.sampled_from(atoms), min_size=1)
    sa = System(frozenset(data.draw(pick)))
    sb = System(frozenset(data.draw(pick)))
    sc = System(frozenset(data.draw(pick)))
    assert compose(sa, sb) == compose(sb, sa)
    assert compose(compose(sa, sb), sc) == compose(sa, compose(sb, sc))
    assert compose(sa, sa) == sa


def test_world_allocates_unique_ids(world):
    atoms = make_abstract_atoms(world, 100)
    assert len({a.id for a in atoms}) == 100
    assert all(a in world for a in atoms)


def test_clone_preserves_kind_and_binding(world, gas):
    copy, mapping = clone_system(world, gas.system)
    assert intersect(copy, gas.system) is None
    assert set(mapping) == {gas.atom}
    clone_atom = mapping[gas.atom]
    assert clone_atom.kind == gas.atom.kind
    assert world.binding(clone_atom) is gas.model  # same n, same constants


def test_clone_work_footprint_invariance(world, gas):
    """A constructor run on the copy reproduces the original's works."""
    copy, mapping = clone_system(world, gas.system)
    twin = gas_handle(world, mapping[gas.atom])
    start = GasState(1.3, 0.8)
    p_orig = type2(gas, start, 2.0).slice(0.0, 1.0)
    p_copy = type2(twin, start, 2.0).slice(0.0, 1.0)
    assert p_copy.work_on(twin.atom) == pytest.approx(
        p_orig.work_on(gas.atom), abs=1e-15
    )
    assert p_copy.final_of(twin.atom) == p_orig.final_of(gas.atom)


def test_a_handle_of_the_other_kind_is_refused(world, gas, unit_reservoir):
    with pytest.raises(TypeError, match=r" is not bound to a gas model$"):
        gas_handle(world, unit_reservoir.atom)
    with pytest.raises(TypeError, match=r" is not bound to a reservoir model$"):
        reservoir_handle(world, gas.atom)


# --- value semantics of the per-query handles ----------------------------------

def test_atom_id_hashes_to_its_id_and_orders_by_id_then_kind():
    a = AtomId(7, "x")
    assert hash(a) == 7 == hash(AtomId(7, "y"))
    assert a != AtomId(7, "y") and a != (7, "x")
    assert sorted([AtomId(2, "a"), AtomId(1, "b"), AtomId(1, "a")]) == [
        AtomId(1, "a"), AtomId(1, "b"), AtomId(2, "a")]
    assert AtomId(1, "b") < AtomId(2, "a") and AtomId(1, "a") <= AtomId(1, "a")


def test_handles_are_frozen_slotted_values():
    """repr, ==, hash, keyword construction, frozen slots, pickle and copy."""
    atom, bath = AtomId(7, "ideal-gas"), AtomId(8, "reservoir")
    model, theta = GasModel(), ReservoirModel(2.0)
    # each handle built on a given world, and one field to try to set
    handles = [
        (lambda w: AtomId(7, "x"), "id"),
        (lambda w: System([atom, bath]), "atoms"),
        (lambda w: ReservoirModel(2.0), "theta"),
        (lambda w: GasAtom(atom, model, w), "world"),
        (lambda w: Reservoir(bath, theta, w), "model"),
        (lambda w: GasPlanner(GasAtom(atom, model, w)), "gas"),
    ]
    world = World()
    for build, field in handles:
        value = build(world)
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        args = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(value) == f"{type(value).__name__}({args})"
        assert value == build(world) == dataclasses.replace(value)
        assert hash(value) == hash(build(world))
        if not isinstance(value, AtomId):
            assert hash(value) == hash(tuple(fields.values()))
        if world in fields.values():  # the same handle on another world is another handle
            assert value != build(World())
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
        twin_world, twin = pickle.loads(pickle.dumps((world, value)))
        assert twin == build(twin_world)
        assert copy.copy(value) == value
