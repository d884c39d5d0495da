import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import thermokernel
from thermokernel import scaling
from thermokernel.errors import IncompatibleBases, NonPositiveScale, OptimizerFailed
from thermokernel.gas import GasModel, GasState, gas_S, gas_T, gas_U
from thermokernel.processes import reverse_of
from thermokernel.scaling import (
    UVState,
    check_concavity,
    classify_variable,
    entropy_uv,
    max_entropy_split,
    remove_constraint,
    scale,
    scaled_state,
    uv_to_gas,
)
from thermokernel.systems import World

BASE = GasModel()
STATES = [GasState(0.5, 0.7), GasState(1, 1), GasState(2, 3), GasState(3, 0.4)]


def test_scale_doubles_amount_and_volume():
    sg = scale(BASE, 2)
    assert sg.model.n == 2.0
    assert sg.model.sigma0 == GasState(1.0, 2.0)
    assert scaled_state(GasState(1, 1), 2) == GasState(1.0, 2.0)


def test_scale_identity():
    sg = scale(BASE, 1)
    assert sg.model == BASE


def test_scale_rejects_nonpositive():
    with pytest.raises(NonPositiveScale):
        scale(BASE, 0)
    with pytest.raises(NonPositiveScale):
        scale(BASE, Fraction(-1, 2))


def test_energy_and_entropy_scale_linearly():
    for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)):
        sg = scale(BASE, lam)
        f = float(lam)
        for s in STATES:
            assert gas_U(sg.model, scaled_state(s, lam)) == pytest.approx(
                f * gas_U(BASE, s), rel=1e-9
            )
            assert gas_S(sg.model, scaled_state(s, lam)) == pytest.approx(
                f * gas_S(BASE, s), rel=1e-9, abs=1e-12
            )


def test_classify_variables():
    assert classify_variable(lambda m, s: s.V, BASE, STATES) == "extensive"
    assert classify_variable(lambda m, s: s.p, BASE, STATES) == "intensive"
    assert classify_variable(gas_S, BASE, STATES) == "extensive"
    assert classify_variable(gas_T, BASE, STATES) == "intensive"
    assert (
        classify_variable(lambda m, s: s.p * s.V**2, BASE, STATES) == "neither"
    )


def test_uv_conversions_roundtrip():
    for s in STATES:
        uv = UVState(gas_U(BASE, s), s.V)
        back = uv_to_gas(BASE, uv)
        assert back.as_tuple() == pytest.approx(s.as_tuple(), rel=1e-12)


class TestRemoveConstraint:
    def test_proportional_split_example(self):
        g1 = scale(BASE, Fraction(1, 2))
        g2 = scale(BASE, Fraction(1, 2))
        p, total = remove_constraint(g1, g2, UVState(1.2, 0.8), UVState(0.8, 1.2))
        assert total == UVState(2.0, 2.0)
        finals = [e.final.value for e in p.entries.values()]
        for f in finals:
            assert (gas_U(g1.model, f), f.V) == pytest.approx((1.0, 1.0))
        assert all(e.work == 0.0 for e in p.entries.values())
        assert not p.reversible

    def test_already_proportional_is_identity(self):
        g1 = scale(BASE, Fraction(1, 4))
        g2 = scale(BASE, Fraction(3, 4))
        s1, s2 = UVState(1.0, 2.0), UVState(3.0, 6.0)
        p, total = remove_constraint(g1, g2, s1, s2)
        assert total == UVState(4.0, 8.0)
        for e in p.entries.values():
            assert e.initial.value == e.final.value
        assert p.reversible

    def test_reverse_of_proportional_removal_mints_nothing(self):
        """The reverse is read off the footprint: the same two atoms, no new ones."""
        world = World()
        g1, g2 = scale(BASE, Fraction(1, 4)), scale(BASE, Fraction(3, 4))
        p, _ = remove_constraint(g1, g2, UVState(1.0, 2.0), UVState(3.0, 6.0), world)
        before = world.registry
        back = reverse_of(p)
        assert back.involved == p.involved
        assert world.registry == before

    def test_incompatible_bases(self):
        g1 = scale(BASE, Fraction(1, 2))
        g2 = scale(GasModel(n=2.0), Fraction(1, 2))
        with pytest.raises(IncompatibleBases):
            remove_constraint(g1, g2, UVState(1, 1), UVState(1, 1))

    def test_entropy_never_decreases(self):
        rng = random.Random(9)
        for _ in range(20):
            lam = Fraction(rng.randrange(1, 8), 8)
            g1, g2 = scale(BASE, lam), scale(BASE, 1 - lam)
            s1 = UVState(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
            s2 = UVState(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
            p, total = remove_constraint(g1, g2, s1, s2)
            before = entropy_uv(g1.model, s1.U, s1.V) + entropy_uv(g2.model, s2.U, s2.V)
            after = entropy_uv(BASE, total.U, total.V)
            assert after >= before - 1e-10
            proportional = all(
                e.initial.value == e.final.value for e in p.entries.values()
            )
            if not proportional:
                assert after > before


class TestMaxEntropy:
    def test_symmetric_split(self):
        res = max_entropy_split(BASE, 0.5, UVState(2.0, 2.0))
        assert res.split[0].as_tuple() == pytest.approx((1.0, 1.0), abs=1e-6)
        assert res.split[1].as_tuple() == pytest.approx((1.0, 1.0), abs=1e-6)

    def test_quarter_split_against_grid_oracle(self):
        lam, total = 0.25, UVState(4.0, 8.0)
        res = max_entropy_split(BASE, lam, total)
        # brute-force oracle over a dense grid
        m1 = scale(BASE, Fraction(1, 4)).model
        m2 = scale(BASE, Fraction(3, 4)).model
        best, best_val = None, -math.inf
        n = 60
        for i in range(1, n):
            for j in range(1, n):
                u1, v1 = total.U * i / n, total.V * j / n
                val = entropy_uv(m1, u1, v1) + entropy_uv(m2, total.U - u1, total.V - v1)
                if val > best_val:
                    best, best_val = (u1, v1), val
        assert res.s_max >= best_val - 1e-12
        assert res.split[0].as_tuple() == pytest.approx((1.0, 2.0), abs=1e-6)
        assert res.split[1].as_tuple() == pytest.approx((3.0, 6.0), abs=1e-6)

    def test_maximum_equals_unconstrained_entropy(self):
        rng = random.Random(13)
        for _ in range(10):
            lam = rng.uniform(0.15, 0.85)
            total = UVState(rng.uniform(1, 5), rng.uniform(1, 5))
            res = max_entropy_split(BASE, lam, total)
            assert res.s_max == pytest.approx(
                entropy_uv(BASE, total.U, total.V), abs=1e-8
            )

    def test_rejects_degenerate_fraction(self):
        with pytest.raises(NonPositiveScale):
            max_entropy_split(BASE, 0.0, UVState(1, 1))

    def test_offset_energy_with_midpoint_outside_the_domain(self):
        # U0 = 1: half the total energy leaves the 0.9 part below its offset.
        res = max_entropy_split(GasModel(U0=1.0), 0.9, UVState(1.5, 2.0))
        assert res.split[0].as_tuple() == pytest.approx((1.35, 1.8), abs=1e-6)

    def test_convex_objective_fails(self, monkeypatch):
        monkeypatch.setattr(scaling, "entropy_uv", lambda m, u, v: u * u + v * v)
        with pytest.raises(OptimizerFailed):
            max_entropy_split(BASE, 0.25, UVState(4.0, 8.0))


def test_import_loads_neither_numpy_nor_scipy():
    src = os.path.dirname(os.path.dirname(thermokernel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, thermokernel; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


class TestConcavity:
    def test_random_pairs_pass(self):
        rng = random.Random(17)
        pairs = [
            (
                UVState(rng.uniform(0.5, 5), rng.uniform(0.5, 5)),
                UVState(rng.uniform(0.5, 5), rng.uniform(0.5, 5)),
            )
            for _ in range(200)
        ]
        report = check_concavity(BASE, pairs)
        assert report.passed
        assert report.min_slack >= -1e-10

    def test_degenerate_pair_is_equality(self):
        s = UVState(2.0, 3.0)
        report = check_concavity(BASE, [(s, s)])
        assert report.passed
        assert report.min_slack == pytest.approx(0.0, abs=1e-12)

    def test_convexified_fake_is_flagged(self):
        fake = lambda m, u, v: -entropy_uv(m, u, v)
        pairs = [(UVState(1, 1), UVState(4, 4))]
        report = check_concavity(BASE, pairs, entropy_fn=fake)
        assert not report.passed
