import pytest

from thermokernel.gas import GasModel, GasState, add_ideal_gas
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
