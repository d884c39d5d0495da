import math

import pytest

from thermokernel.errors import ToleranceNotMet
from thermokernel.gas import GasState, add_ideal_gas, type2
from thermokernel.quadrature import adaptive_simpson
from thermokernel.systems import World


def test_polynomials_exact():
    assert adaptive_simpson(lambda x: x**2, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)
    assert adaptive_simpson(lambda x: 1.0, -1.0, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_log_integrand():
    # integral of 1/x over [1, 2] is ln 2
    got = adaptive_simpson(lambda x: 1.0 / x, 1.0, 2.0, tol=1e-12)
    assert got == pytest.approx(math.log(2.0), abs=1e-11)


def test_zero_length_interval():
    assert adaptive_simpson(math.exp, 0.7, 0.7) == 0.0


def test_reversed_bounds_negate():
    fwd = adaptive_simpson(math.exp, 0.0, 1.0)
    assert adaptive_simpson(math.exp, 1.0, 0.0) == pytest.approx(-fwd, abs=1e-13)


def test_knots_handle_kinks():
    f = lambda x: abs(x - 0.5)
    got = adaptive_simpson(f, 0.0, 1.0, tol=1e-12, knots=(0.5,))
    assert got == pytest.approx(0.25, abs=1e-12)


def test_tolerance_not_met():
    # a needle the refinement cap cannot resolve at an absurd tolerance
    needle = lambda x: 1.0 / (1e-12 + (x - 0.37123) ** 2)
    with pytest.raises(ToleranceNotMet):
        adaptive_simpson(needle, 0.0, 1.0, tol=1e-16, max_depth=6)


def counted(f):
    """``f`` with a ``calls`` list that records every abscissa it is given."""
    def g(x):
        g.calls.append(x)
        return f(x)
    g.calls = []
    return g


def test_step_is_read_one_sided_at_its_knot():
    poisoned = {0.0: math.nan, 0.5: math.nan, 1.0: math.nan}
    f = counted(lambda x: poisoned.get(x, 1.0 if x < 0.5 else 2.0))
    assert adaptive_simpson(f, 0.0, 1.0, knots=(0.5,)) == pytest.approx(1.5, abs=1e-15)
    assert not set(f.calls) & set(poisoned)


def test_knots_a_few_ulps_apart():
    k1 = 0.5
    k2 = math.nextafter(math.nextafter(math.nextafter(k1, 1.0), 1.0), 1.0)
    got = adaptive_simpson(lambda x: abs(x - 0.5), 0.0, 1.0, knots=(k2, k1))
    assert got == pytest.approx(0.25, abs=1e-15)


def test_smooth_type2_work_rate_takes_one_panel():
    gas = add_ideal_gas(World())
    fam = type2(gas, GasState(1.0, 1.0), 2.0)
    rate = counted(fam.work_rate(gas.atom))
    want = 1.5 * (2.0 ** (-2.0 / 3.0) - 1.0)
    assert adaptive_simpson(rate, 0.0, 1.0) == pytest.approx(want, abs=1e-13)
    assert len(rate.calls) == 15


@pytest.mark.parametrize(
    "f, exact",
    [
        pytest.param(lambda x: 1e14, 1e14, id="constant-1e14"),
        pytest.param(lambda x: 1e9 * math.exp(-0.4 * x), 2.5e9 * -math.expm1(-0.4), id="1e9-exp"),
    ],
)
def test_large_magnitudes_stop_at_rounding(f, exact):
    f = counted(f)
    assert adaptive_simpson(f, 0.0, 1.0) == pytest.approx(exact, rel=1e-14)
    assert len(f.calls) <= 100


def test_max_depth_counts_bisections_of_one_panel():
    f = counted(math.sqrt)
    with pytest.raises(ToleranceNotMet):
        adaptive_simpson(f, 0.0, 1.0, tol=1e-12, max_depth=0)
    assert len(f.calls) == 15
    assert adaptive_simpson(math.sqrt, 0.0, 1.0, tol=1e-12) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_non_finite_integrand_raises():
    with pytest.raises(ToleranceNotMet):
        adaptive_simpson(lambda x: math.nan, 0.0, 1.0)
