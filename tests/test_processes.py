import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermokernel import processes
from thermokernel.errors import (
    NoReverseWitness,
    NotCatalytic,
    NotWorkProcess,
    Overlap,
    StateMismatch,
)
from thermokernel.carnot import build_carnot
from thermokernel.config import tolerances
from thermokernel.gas import GasState, add_ideal_gas, connect, gas_T, type1, type2, type3
from thermokernel.processes import (
    Process,
    ProcessEntry,
    classify,
    concatenate,
    eliminate_catalyst,
    is_work_process,
    join,
    make_identity,
    make_process,
    reverse_of,
    value_components,
    values_close,
    work_of,
)
from thermokernel.reservoirs import add_reservoir, stir
from thermokernel.suites import random_gas_state
from thermokernel.systems import World, compose, system

from conftest import make_abstract_atoms, tiers

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)


def footprint(*entries):
    """entries: (atom, initial, final, work)"""
    return make_process({a: (i, f, w) for a, i, f, w in entries})


def test_concatenation_state_rule_three_atoms(world):
    """Shared atom takes p's input and q's output; solo atoms keep their own."""
    a1, a2, a3 = make_abstract_atoms(world, 3)
    p = footprint((a1, 0.0, 1.0, 0.5), (a2, 10.0, 11.0, 0.25))
    q = footprint((a2, 11.0, 12.0, 0.25), (a3, 20.0, 21.0, -1.0))
    r = concatenate(p, q)
    assert r.involved == {a1, a2, a3}
    assert r.initial_of(a1) == 0.0 and r.final_of(a1) == 1.0
    assert r.initial_of(a2) == 10.0 and r.final_of(a2) == 12.0
    assert r.initial_of(a3) == 20.0 and r.final_of(a3) == 21.0
    assert r.work_on(a2) == 0.5


def test_concatenation_commutes_for_disjoint(world):
    a1, a2 = make_abstract_atoms(world, 2)
    p = footprint((a1, 0.0, 1.0, 2.0))
    q = footprint((a2, 5.0, 6.0, -1.0))
    assert concatenate(p, q).same_footprint(concatenate(q, p))


def test_concatenation_rejects_mismatch(world):
    (a,) = make_abstract_atoms(world, 1)
    p = footprint((a, 0.0, 1.0, 0.0))
    q = footprint((a, 2.0, 3.0, 0.0))
    with pytest.raises(StateMismatch):
        concatenate(p, q)


@settings(max_examples=200)
@given(
    works_p=st.lists(finite, min_size=1, max_size=4),
    works_q=st.lists(finite, min_size=1, max_size=4),
    overlap=st.integers(min_value=0, max_value=3),
)
def test_work_additivity_under_concatenation(works_p, works_q, overlap):
    world = World()
    k = min(overlap, len(works_p), len(works_q))
    n_atoms = len(works_p) + len(works_q) - k
    atoms = [world.new_atom("abstract") for _ in range(n_atoms)]
    p_atoms = atoms[: len(works_p)]
    q_atoms = atoms[len(works_p) - k :]
    p = make_process({a: (0.0, 1.0, w) for a, w in zip(p_atoms, works_p)})
    q = make_process(
        {a: (1.0 if a in p.involved else 0.0, 2.0, w) for a, w in zip(q_atoms, works_q)}
    )
    r = concatenate(p, q)
    for a in atoms:
        assert r.work_on(a) == p.work_on(a) + q.work_on(a)  # exact float sum
    everything = system(*atoms)
    assert work_of(everything, r) == pytest.approx(
        work_of(everything, p) + work_of(everything, q), abs=1e-12
    )


def test_work_of_sums_and_ignores_uninvolved(world):
    a1, a2, a3 = make_abstract_atoms(world, 3)
    p = footprint((a1, 0.0, 1.0, 2.0), (a2, 0.0, 1.0, -0.5))
    assert work_of(system(a1, a2), p) == 1.5
    assert work_of(system(a3), p) == 0.0
    # additivity under disjoint composition, exactly
    s1, s2 = system(a1), system(a2, a3)
    assert work_of(compose(s1, s2), p) == work_of(s1, p) + work_of(s2, p)


def test_is_work_process(world):
    a1, a2, a3 = make_abstract_atoms(world, 3)
    p = footprint((a1, 0.0, 1.0, 0.0), (a2, 0.0, 1.0, 0.0))
    assert is_work_process(system(a1, a2), p)
    assert not is_work_process(system(a1), p)
    assert not is_work_process(system(a1, a2, a3), p)


def test_identity_process(world, gas):
    sigma = {gas.atom: GasState(1.0, 1.0)}
    ident = make_identity(gas.system, sigma)
    assert ident.initial_of(gas.atom) == ident.final_of(gas.atom)
    assert work_of(gas.system, ident) == 0.0
    again = concatenate(ident, ident)
    assert again.same_footprint(ident)
    assert ident.reversible
    assert reverse_of(ident).same_footprint(ident)


def test_identity_needs_a_payload_for_every_atom(world):
    a1, a2 = make_abstract_atoms(world, 2)
    with pytest.raises(ValueError, match="^joint state does not cover atoms "):
        make_identity(system(a1, a2), {a1: 0.0})


def test_classify_cyclic_and_catalytic(world):
    a1, a2 = make_abstract_atoms(world, 2)
    c = system(a1, a2)
    cyc = footprint((a1, 0.0, 0.0, 1.0), (a2, 5.0, 5.0, 0.0))
    v = classify(c, cyc)
    assert v.cyclic and not v.catalytic
    # internal works +1 and -1 cancel: catalytic even though parts move energy
    cat = footprint((a1, 0.0, 0.0, 1.0), (a2, 5.0, 5.0, -1.0))
    v = classify(c, cat)
    assert v.cyclic and v.catalytic
    open_loop = footprint((a1, 0.0, 1.0, 0.0), (a2, 5.0, 5.0, 0.0))
    assert not classify(c, open_loop).cyclic


def test_eliminate_catalyst_projects_footprint(world):
    a1, a2, c1 = make_abstract_atoms(world, 3)
    s = system(a1, a2)
    c = system(c1)
    p = footprint(
        (a1, 0.0, 1.0, 2.0), (a2, 3.0, 4.0, -0.5), (c1, 7.0, 7.0, 0.0)
    )
    reduced = eliminate_catalyst(s, c, p)
    assert reduced.involved == {a1, a2}
    for a in (a1, a2):
        assert reduced.work_on(a) == p.work_on(a)
        assert reduced.initial_of(a) == p.initial_of(a)
        assert reduced.final_of(a) == p.final_of(a)


def test_eliminate_catalyst_rejections(world):
    a1, c1 = make_abstract_atoms(world, 2)
    s, c = system(a1), system(c1)
    not_cyclic = footprint((a1, 0.0, 1.0, 0.0), (c1, 7.0, 8.0, 0.0))
    with pytest.raises(NotCatalytic):
        eliminate_catalyst(s, c, not_cyclic)
    not_wp = footprint((a1, 0.0, 1.0, 0.0))
    with pytest.raises(NotWorkProcess):
        eliminate_catalyst(s, c, not_wp)
    overlap = footprint((a1, 0.0, 1.0, 0.0), (c1, 7.0, 7.0, 0.0))
    with pytest.raises(NotWorkProcess, match="^catalyst elimination needs disjoint parts$"):
        eliminate_catalyst(compose(s, c), c, overlap)


def test_reverse_negates_work_and_swaps_states(world, gas):
    fam = type2(gas, GasState(1.0, 1.0), 2.0)
    p = fam.slice(0.0, 1.0)
    r = reverse_of(p)
    assert r.initial_of(gas.atom) == p.final_of(gas.atom)
    assert r.final_of(gas.atom).as_tuple() == pytest.approx(
        p.initial_of(gas.atom).as_tuple(), abs=1e-12
    )
    assert r.work_on(gas.atom) == pytest.approx(-p.work_on(gas.atom), abs=1e-12)
    # double reverse reproduces the footprint
    assert reverse_of(r).same_footprint(p)
    # the round trip classifies as an identity
    loop = concatenate(p, r)
    assert classify(gas.system, loop).catalytic


def _assert_exact_reverse(p):
    r = reverse_of(p)
    assert r.involved == p.involved and r.tags == p.tags and r.reversible
    for atom, e in p.entries.items():
        assert r.initial_of(atom) == e.final and r.final_of(atom) == e.initial
        assert r.work_on(atom) == -e.work
    assert reverse_of(r).entries == p.entries


def test_reverse_is_exact_on_seeded_footprints():
    """Endpoints swap and works negate bit for bit on slices of reversible legs,
    one-adiabat ``connect`` plans, Carnot runs, and their compositions."""
    rng = random.Random(18)
    world = World()
    gas, other = add_ideal_gas(world), add_ideal_gas(world)
    for _ in range(40):
        start = random_gas_state(rng, 0.25, 4.0)
        v2 = start.V * math.exp(rng.uniform(-1.0, 1.0))
        lo, hi = sorted((rng.random(), rng.random()))
        rng.uniform(-5.0, 5.0)  # a spare draw: the legs below keep their seeded values
        res = add_reservoir(world, gas_T(gas.model, start))
        adiabat, isotherm = type2(gas, start, v2), type3(gas, res, start, v2)
        end = adiabat.state_at(1.0)[gas.atom]
        whole = adiabat.slice(0.0, 1.0)
        beside = type2(other, start, v2).slice(lo, hi)
        resting = make_identity(other.system, {other.atom: start})
        run_world = World()
        th1, th2 = (math.exp(rng.uniform(-1.5, 1.5)) for _ in range(2))
        run = build_carnot(add_reservoir(run_world, th1), add_reservoir(run_world, th2),
                           rng.uniform(-2.0, 2.0), volume_ratio=math.exp(rng.uniform(0.1, 1.0)))
        onward = type2(gas, end, end.V * math.exp(rng.uniform(-1.0, 1.0))).slice(0.0, 1.0)
        for p in (adiabat.slice(lo, hi), isotherm.slice(lo, hi), connect(gas, start, end),
                  run.process, concatenate(whole, onward), join(whole, beside),
                  eliminate_catalyst(gas.system, other.system, join(whole, resting))):
            _assert_exact_reverse(p)


def test_friction_is_irreversible(world, gas):
    p = type1(gas, GasState(1.0, 1.0), 2.0).slice(0.0, 1.0)
    assert not p.reversible
    with pytest.raises(NoReverseWitness, match=r"tagged \['type1'\]"):
        reverse_of(p)


def test_reversibility_propagates_through_concatenation(world, gas):
    """Witnessed segments concatenate to witnessed processes; a witness-free
    segment anywhere leaves the whole chain witness-free (the contrapositive
    of 'reversible composite implies reversible parts')."""
    s0 = GasState(1.0, 1.0)
    ad1 = type2(gas, s0, 2.0)
    mid = ad1.state_at(1.0)[gas.atom]
    ad2 = type2(gas, mid, 1.3)
    both = concatenate(ad1.slice(0.0, 1.0), ad2.slice(0.0, 1.0))
    assert both.reversible
    fr = type1(gas, ad2.state_at(1.0)[gas.atom], 5.0)
    chain = concatenate(both, fr.slice(0.0, 1.0))
    assert not chain.reversible


def test_join_disjoint_and_overlap(world):
    a1, a2 = make_abstract_atoms(world, 2)
    p1 = footprint((a1, 0.0, 1.0, 2.0))
    p2 = footprint((a2, 0.0, 2.0, 3.0))
    j = join(p1, p2)
    assert work_of(system(a1, a2), j) == 5.0
    with pytest.raises(Overlap):
        join(p1, p1)


def test_join_with_identity_preserves_works(world, gas):
    other = add_ideal_gas(world)
    p = type1(gas, GasState(1.0, 1.0), 2.0).slice(0.0, 1.0)
    ident = make_identity(other.system, {other.atom: GasState(1, 1)})
    j = join(p, ident)
    assert j.work_on(gas.atom) == p.work_on(gas.atom)
    assert j.work_on(other.atom) == 0.0


def test_process_serialization_roundtrip(world, gas):
    p = type2(gas, GasState(1.0, 1.0), 2.0).slice(0.0, 1.0)
    blob = p.to_json()
    assert blob["reversible"] is True
    assert blob["tags"] == ["type2"]
    (entry,) = blob["entries"]
    assert entry["initial"] == [1.0, 1.0]
    assert entry["work"] == pytest.approx(-0.5550592125788452, abs=1e-10)


leg = st.tuples(st.sampled_from(["type1", "type2"]), st.floats(min_value=-0.7, max_value=0.7))


@settings(max_examples=15, deadline=None)
@given(legs=st.lists(leg, min_size=3, max_size=3))
def test_concatenate_is_associative_on_gas_chains(legs):
    """Three consecutive friction/isolated slices: both groupings give the same
    footprint, and the per-atom work is the pieces' works summed in order."""
    world = World()
    gas = add_ideal_gas(world)
    state = GasState(1.0, 1.0)
    parts = []
    for kind, x in legs:
        if kind == "type1":
            fam = type1(gas, state, state.p * (1.0 + abs(x)))
        else:
            fam = type2(gas, state, state.V * math.exp(x))
        parts.append(fam.slice(0.0, 1.0))
        state = parts[-1].final_of(gas.atom)
    p, q, r = parts
    left = concatenate(concatenate(p, q), r)
    right = concatenate(p, concatenate(q, r))
    assert left.same_footprint(right)
    atom = gas.atom
    assert left.work_on(atom) == (p.work_on(atom) + q.work_on(atom)) + r.work_on(atom)


def _seeded_path(rng, legs):
    """``legs`` consecutive gas slices of random kind; each isotherm runs on a bath of its own."""
    world = World()
    gas = add_ideal_gas(world)
    state = random_gas_state(rng)
    pieces = []
    for _ in range(legs):
        kind = rng.choice(("type1", "type2", "type3"))
        if kind == "type1":
            fam = type1(gas, state, state.p * rng.uniform(1.05, 2.0))
        elif kind == "type2":
            fam = type2(gas, state, state.V * rng.uniform(0.5, 2.0))
        else:
            bath = add_reservoir(world, gas_T(gas.model, state))
            fam = type3(gas, bath, state, state.V * rng.uniform(0.5, 2.0))
        pieces.append(fam.slice(0.0, 1.0))
        state = pieces[-1].final_of(gas.atom)
    return pieces


@pytest.mark.parametrize("legs", [2, 3, 4, 5])
def test_concatenate_of_a_path_is_the_nested_fold_bit_for_bit(legs):
    rng = random.Random(legs)
    baths = 0
    for _ in range(30):
        pieces = _seeded_path(rng, legs)
        nested = pieces[0]
        for piece in pieces[1:]:
            nested = concatenate(nested, piece)
        whole = concatenate(*pieces)
        assert whole.entries == nested.entries
        assert repr(whole.entries) == repr(nested.entries)  # works and states to the last bit
        assert (whole.reversible, whole.tags) == (nested.reversible, nested.tags)
        baths += len(whole.entries) - 1
    assert baths > 0


def test_concatenate_of_one_process_is_an_equal_footprint(world):
    a, b = make_abstract_atoms(world, 2)
    p = make_process({a: (0.0, 1.0, 2.0), b: (3.0, 3.0, -0.5)}, reversible=True, tags=("x",))
    one = concatenate(p)
    assert one.entries == p.entries
    assert (one.reversible, one.tags) == (True, frozenset({"x"}))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_concatenate_names_the_mismatched_junction(world, k):
    (a,) = make_abstract_atoms(world, 1)
    pieces = [footprint((a, float(i), float(i + 1), 0.0)) for i in range(4)]
    pieces[k] = footprint((a, k + 0.5, k + 1.0, 0.0))
    with pytest.raises(StateMismatch) as err:
        concatenate(*pieces)
    assert (err.value.atom, err.value.left, err.value.right) == (a, float(k), k + 0.5)


# --- value semantics of the footprint types -----------------------------------

def test_entry_is_a_frozen_slotted_value():
    entry = ProcessEntry(1.0, 2.0, 0.5)
    assert repr(entry) == "ProcessEntry(initial=1.0, final=2.0, work=0.5)"
    assert entry == ProcessEntry(1, 2, 0.5) and entry != ProcessEntry(1.0, 2.0, 0.25)
    assert entry != (1.0, 2.0, 0.5)
    assert hash(entry) == hash((1.0, 2.0, 0.5))
    assert not hasattr(entry, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.work = 3.0
    assert pickle.loads(pickle.dumps(entry)) == entry
    assert copy.copy(entry) == entry


def test_endpoints_are_payloads(world, gas):
    leg = type2(gas, GasState(1.0, 1.0), 2.0).slice(0, 1)
    assert type(leg.initial_of(gas.atom)) is GasState
    res = add_reservoir(world, 1.0)
    assert type(stir(res, 0.5).final_of(res.atom)) is float


def test_process_is_a_frozen_slotted_value_equal_only_to_itself(world):
    (a,) = make_abstract_atoms(world, 1)
    p = make_process({a: (1.0, 2.0, 0.5)}, tags=("stir",))
    twin = make_process({a: (1.0, 2.0, 0.5)}, tags=("stir",))
    entry = ProcessEntry(1.0, 2.0, 0.5)
    assert repr(p) == (f"Process(entries={{{a!r}: {entry!r}}}, reversible=False, "
                       "tags=frozenset({'stir'}))")
    assert p == p and p != twin and p.same_footprint(twin)
    assert hash(p) == object.__hash__(p) and hash(p) != hash(twin)
    assert Process(p.entries) != Process(p.entries)
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.tags = frozenset()
    with pytest.raises(ValueError, match="at least one atom"):
        Process({})
    with pytest.raises(ValueError, match="at least one atom"):
        make_process({})


def test_same_footprint_rejects_a_nan_work(world):
    (a,) = make_abstract_atoms(world, 1)
    nan_work = make_process({a: (1.0, 2.0, math.nan)})
    finite_work = make_process({a: (1.0, 2.0, 5.0)})
    assert not nan_work.same_footprint(finite_work)
    assert not finite_work.same_footprint(nan_work)
    assert not nan_work.same_footprint(nan_work)


@pytest.mark.parametrize("payload", [float, lambda x: GasState(1.0, x)], ids=["float", "gas-state"])
def test_same_footprint_compares_atoms_and_both_states(world, payload):
    """Each comparison rejects on its own; a state within ``state_atol`` is the same."""
    a, b = make_abstract_atoms(world, 2)
    atol = tolerances().state_atol
    p = make_process({a: (payload(1.0), payload(2.0), 0.5)})
    assert not p.same_footprint(make_process({b: (payload(1.0), payload(2.0), 0.5)}))
    assert not p.same_footprint(make_process({a: (payload(1.0 + 10 * atol), payload(2.0), 0.5)}))
    assert not p.same_footprint(make_process({a: (payload(1.0), payload(2.0 + 10 * atol), 0.5)}))
    assert p.same_footprint(make_process({a: (payload(1.0 + 0.5 * atol),
                                              payload(2.0 - 0.5 * atol), 0.5)}))


def _componentwise_close(a, b, atol):
    """The rule ``values_close`` keeps: flatten both payloads, compare each pair."""
    ca, cb = value_components(a), value_components(b)
    return len(ca) == len(cb) and all(abs(x - y) <= atol for x, y in zip(ca, cb))


_extreme = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
_float = st.one_of(st.floats(allow_nan=True, allow_infinity=True), _extreme)
_coordinate = st.one_of(st.floats(min_value=1e-9, max_value=1e9),
                        st.integers(min_value=1, max_value=10**6))
_payload = st.one_of(
    _float,
    st.integers(min_value=-10**6, max_value=10**6),
    st.builds(GasState, _coordinate, _coordinate),
    st.lists(_float, min_size=1, max_size=3).map(tuple),
)
_nudge = st.one_of(st.just(0.0), st.floats(min_value=-3e-12, max_value=3e-12))


@st.composite
def _payload_pairs(draw):
    """Two unrelated payloads, or one payload and a nudged copy of it."""
    a = draw(_payload)
    if draw(st.booleans()):
        return a, draw(_payload)
    if isinstance(a, GasState):
        return a, GasState(a.p + draw(_nudge), a.V + draw(_nudge))
    if isinstance(a, tuple):
        return a, tuple(x + draw(_nudge) for x in a)
    return a, a + draw(_nudge)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pair=_payload_pairs(), atol=st.sampled_from([1e-12, 0.0, 1e-6]))
def test_values_close_is_the_componentwise_rule(pair, atol):
    a, b = pair
    want = _componentwise_close(a, b, atol)
    with tiers(processes, state_atol=atol):
        assert values_close(a, b) is want
        assert values_close(b, a) is _componentwise_close(b, a, atol)
    if atol == 1e-12:
        assert values_close(a, b) is want


def _raw_gas_state(p, V):
    """A ``GasState`` holding ``(p, V)`` unchecked, to compare payloads no leg builds."""
    s = object.__new__(GasState)
    GasState.p.__set__(s, p)
    GasState.V.__set__(s, V)
    return s


def _gas_state_pairs():
    atol = 1e-12
    up, down = math.nextafter(atol, 1.0), math.nextafter(atol, 0.0)
    for d in (atol, up, down, 0.0, 2 * atol):
        yield GasState(1.0, 0.75), GasState(1.0, 0.75 + d)
        yield GasState(0.75 + d, 3), GasState(0.75, 3)
    yield GasState(1, 2), GasState(1, 2)
    yield GasState(1, 2), GasState(1.0, 2.0)
    yield GasState(1, 2), GasState(1, 3)
    yield GasState(10**6, 7), GasState(10**6 + 1e-13, 7)
    for bad in (math.nan, math.inf, -math.inf):
        for a, b in ((_raw_gas_state(bad, 1.0), GasState(1.0, 1.0)),
                     (GasState(1.0, 1.0), _raw_gas_state(1.0, bad)),
                     (_raw_gas_state(bad, 1.0), _raw_gas_state(bad, 1.0)),
                     (_raw_gas_state(1.0, bad), _raw_gas_state(1.0, -bad))):
            yield a, b


@pytest.mark.parametrize("a, b", list(_gas_state_pairs()))
def test_values_close_on_gas_states_is_the_componentwise_rule(a, b):
    atol = 1e-12
    for x, y in ((a, b), (b, a)):
        assert values_close(x, y) is _componentwise_close(x, y, atol)
        for t in (atol, math.nextafter(atol, 1.0), math.nextafter(atol, 0.0), 0.0, math.inf):
            with tiers(processes, state_atol=t):
                assert values_close(x, y) is _componentwise_close(x, y, t)


def test_values_close_on_gas_states_at_the_ulps_around_state_atol():
    atol = 1e-12
    a = GasState(1.0, 1.0)
    d = math.nextafter(1.0 + atol, 1.0) - 1.0  # an exact difference at state_atol
    b = GasState(1.0, 1.0 + d)
    with tiers(processes, state_atol=d):
        assert values_close(a, b) and values_close(b, a)
    with tiers(processes, state_atol=math.nextafter(d, 0.0)):
        assert not values_close(a, b) and not values_close(b, a)
    with tiers(processes, state_atol=math.nextafter(d, 1.0)):
        assert values_close(a, b)
