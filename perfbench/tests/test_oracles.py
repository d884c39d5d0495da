"""The oracles against values worked out by hand."""

import math

import pytest

from oracles import IdealGas, carnot_heats, carnot_ratio, close, proportional_split


def test_internal_energy():
    # pV/(gamma-1) + U0 = 2*3/(2/3) + 1
    assert IdealGas(n=2.0, U0=1.0).U(2.0, 3.0) == pytest.approx(10.0)
    # diatomic: 2*3/(2/5) = 15
    assert IdealGas(gamma=1.4).U(2.0, 3.0) == pytest.approx(15.0)


def test_entropy():
    gas = IdealGas()
    assert gas.S(1.0, 1.0) == 0.0
    assert gas.S(math.e, 1.0) == pytest.approx(1.5)   # c_v = 3/2
    assert gas.S(1.0, math.e) == pytest.approx(2.5)   # c_p = 5/2
    shifted = IdealGas(n=2.0, R=0.5, p0=2.0, V0=4.0, S0=0.25)
    assert shifted.S(2.0 * math.e, 4.0) == pytest.approx(1.5 + 0.25)


def test_temperature_and_entropy_in_uv():
    assert IdealGas(n=2.0, R=1.5).T(2.0, 3.0) == pytest.approx(2.0)
    gas = IdealGas(U0=1.0)
    # U = 1 + 1.5 p V  ->  p = (U - 1)/(1.5 V)
    assert gas.S_uv(1.0 + 1.5 * math.e * 2.0, 2.0) == pytest.approx(gas.S(math.e, 2.0))


def test_legs():
    gas = IdealGas()
    assert gas.adiabat_end(1.0, 1.0, 8.0) == pytest.approx((1.0 / 32.0, 8.0))
    assert gas.adiabat_work(1.0, 1.0, 8.0) == pytest.approx(-1.125)
    assert gas.friction_work(1.0, 2.0, 3.0) == pytest.approx(6.0)
    assert gas.isotherm_work(2.0, 1.0, math.e) == pytest.approx(-2.0)
    assert IdealGas(n=0.5, R=2.0).isotherm_work(3.0, 2.0, 1.0) == pytest.approx(3.0 * math.log(2.0))


def test_carnot_and_split():
    assert carnot_ratio(3.0, 1.5) == 2.0
    assert carnot_heats(2.0, 1.0, -1.0) == pytest.approx((-1.0, 0.5, -0.5))
    assert proportional_split(0.25, 4.0, 8.0) == (1.0, 2.0)


def test_close_never_passes_non_finite():
    assert close(1.0 + 1e-9, 1.0, 1e-8)
    assert not close(1.1, 1.0, 1e-8)
    assert not close(math.nan, 1.0, 1.0, 1.0)
    assert not close(math.inf, math.inf, 1.0)
