import contextlib
import dataclasses

import pytest

from thermokernel.config import Tolerances
from thermokernel.gas import GasModel, GasState, add_ideal_gas, adiabat_invariant
from thermokernel.reservoirs import add_reservoir
from thermokernel.systems import World


@pytest.fixture
def world():
    return World()


@pytest.fixture
def gas(world):
    """One mole of monoatomic gas in natural units, reference (1, 1)."""
    return add_ideal_gas(world, GasModel())


@pytest.fixture
def unit_reservoir(world):
    return add_reservoir(world, 1.0)


@contextlib.contextmanager
def tiers(module, **overrides):
    """``module.tolerances()`` returns the default tiers with ``overrides``, inside the block.

    The values are not checked as ``THERMOKERNEL_TOL`` checks them, so a test
    can take a primitive to a threshold of 0.0 or infinity.  Yields the tiers.
    """
    patched = dataclasses.replace(Tolerances(), **overrides)
    saved = module.tolerances
    module.tolerances = lambda: patched
    try:
        yield patched
    finally:
        module.tolerances = saved


def make_abstract_atoms(world, n):
    return [world.new_atom("abstract") for _ in range(n)]


def grid_with_shared_columns(rng, sigma0):
    """Seeded states on a p x V grid around ``sigma0``, on both sides of its adiabat.

    Each V-column shares its volume; ``sigma0`` and two grid states repeat.
    """
    ps = [sigma0.p * 10 ** rng.uniform(-1.5, 1.5) for _ in range(5)]
    vs = [sigma0.V * 10 ** rng.uniform(-1.0, 1.0) for _ in range(4)]
    states = [GasState(p, v) for p in ps for v in vs]
    return states[:7] + [sigma0, states[3]] + states[7:] + [states[3], sigma0, states[0]]


def orientation_edges(model):
    """States at the edges of a batch's orientation, around ``model.sigma0``.

    The anchor itself and an equal copy of it; a state on the anchor's
    adiabat at another volume, which runs forward either way; states at the
    anchor's volume above and below it; and a V-column that straddles the
    adiabat, one state on it.
    """
    s0, gamma = model.sigma0, model.gamma
    inv0 = adiabat_invariant(model, s0)
    v_on, v_col = 0.8 * s0.V, 1.25 * s0.V
    p_col = inv0 * v_col**-gamma  # the adiabat's pressure in the column
    return ([s0, GasState(s0.p, s0.V), GasState(inv0 * v_on**-gamma, v_on),
             GasState(2.0 * s0.p, s0.V), GasState(0.5 * s0.p, s0.V)]
            + [GasState(p_col * f, v_col) for f in (0.25, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0)])
