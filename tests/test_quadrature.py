import math
import random
from typing import Callable, Sequence

import pytest

from thermokernel import quadrature
from thermokernel.config import tolerances
from thermokernel.errors import ToleranceNotMet
from thermokernel.gas import GasState, add_ideal_gas, type2
from thermokernel.quadrature import (ROUNDING, WG0, WG2, WG4, WG6, WK0, WK1, WK2, WK3, WK4, WK5,
                                     WK6, WK7, XK1, XK2, XK3, XK4, XK5, XK6, XK7,
                                     adaptive_simpson)
from thermokernel.systems import World

from conftest import tiers


def test_polynomials_exact():
    assert adaptive_simpson(lambda x: x**2, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)
    assert adaptive_simpson(lambda x: 1.0, -1.0, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_log_integrand():
    # integral of 1/x over [1, 2] is ln 2
    with tiers(quadrature, quad_tol=1e-12):
        got = adaptive_simpson(lambda x: 1.0 / x, 1.0, 2.0)
    assert got == pytest.approx(math.log(2.0), abs=1e-11)


def test_zero_length_interval():
    assert adaptive_simpson(math.exp, 0.7, 0.7) == 0.0


def test_reversed_bounds_negate():
    fwd = adaptive_simpson(math.exp, 0.0, 1.0)
    assert adaptive_simpson(math.exp, 1.0, 0.0) == pytest.approx(-fwd, abs=1e-13)


def test_tolerance_not_met(monkeypatch):
    # a needle the refinement cap cannot resolve at an absurd tolerance
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 6)
    needle = lambda x: 1.0 / (1e-12 + (x - 0.37123) ** 2)
    with tiers(quadrature, quad_tol=1e-16), pytest.raises(ToleranceNotMet):
        adaptive_simpson(needle, 0.0, 1.0)


def counted(f):
    """``f`` with a ``calls`` list that records every abscissa it is given."""
    def g(x):
        g.calls.append(x)
        return f(x)
    g.calls = []
    return g


def test_ends_are_never_read():
    # a step at the first bisection: the halves are read apart, and no panel reads an end
    poisoned = {0.0: math.nan, 1.0: math.nan}
    f = counted(lambda x: poisoned.get(x, 1.0 if x < 0.5 else 2.0))
    assert adaptive_simpson(f, 0.0, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert not set(f.calls) & set(poisoned)


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


def test_max_depth_counts_bisections_of_one_panel(monkeypatch):
    f = counted(math.sqrt)
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 0)
    with tiers(quadrature, quad_tol=1e-12), pytest.raises(ToleranceNotMet):
        adaptive_simpson(f, 0.0, 1.0)
    assert len(f.calls) == 15
    monkeypatch.undo()
    with tiers(quadrature, quad_tol=1e-12):
        assert adaptive_simpson(math.sqrt, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_non_finite_integrand_raises():
    with pytest.raises(ToleranceNotMet):
        adaptive_simpson(lambda x: math.nan, 0.0, 1.0)


# --- the integrator before its first-panel exit, kept verbatim as an oracle ---
# Every result of ``adaptive_simpson`` must equal this one bit for bit, and
# every failure must raise the same error.

def _reference_kronrod(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, float]:
    """K15 value, |K15 - G7| and the K15 value of ``|f|`` on ``[lo, hi]``.

    No node is an end, so an integrand that jumps at a cut is read one-sided.
    A panel too narrow for its outer nodes to fall strictly inside is
    integrated by its midpoint value alone, with no error estimate.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    d1 = h * XK1
    if not lo < c - d1 < c + d1 < hi:
        fc = f(c)
        return fc * (hi - lo), 0.0, abs(fc) * (hi - lo)
    d2, d3, d4, d5, d6, d7 = h * XK2, h * XK3, h * XK4, h * XK5, h * XK6, h * XK7
    f0 = f(c)
    l1, r1 = f(c - d1), f(c + d1)
    l2, r2 = f(c - d2), f(c + d2)
    l3, r3 = f(c - d3), f(c + d3)
    l4, r4 = f(c - d4), f(c + d4)
    l5, r5 = f(c - d5), f(c + d5)
    l6, r6 = f(c - d6), f(c + d6)
    l7, r7 = f(c - d7), f(c + d7)
    s2, s4, s6 = l2 + r2, l4 + r4, l6 + r6
    gauss = WG0 * f0 + WG2 * s2 + WG4 * s4 + WG6 * s6
    kronrod = (WK0 * f0 + WK1 * (l1 + r1) + WK2 * s2 + WK3 * (l3 + r3) + WK4 * s4
               + WK5 * (l5 + r5) + WK6 * s6 + WK7 * (l7 + r7))
    mag = (WK0 * abs(f0) + WK1 * (abs(l1) + abs(r1)) + WK2 * (abs(l2) + abs(r2))
           + WK3 * (abs(l3) + abs(r3)) + WK4 * (abs(l4) + abs(r4))
           + WK5 * (abs(l5) + abs(r5)) + WK6 * (abs(l6) + abs(r6))
           + WK7 * (abs(l7) + abs(r7)))
    return h * kronrod, h * abs(kronrod - gauss), h * mag


def reference_adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float | None = None,
    knots: Sequence[float] = (),
) -> float:
    """Integrate ``f`` over ``[a, b]`` by adaptive G7/K15 to an absolute ``tol``.

    The name is historical: the rule is Gauss–Kronrod, not Simpson.  Interior
    ``knots`` (where smoothness may fail) cut the interval into panels, and
    ``f`` is never evaluated at a cut.  The summed error estimates must reach
    ``max(tol, 50 * eps * integral of |f|)``; ``ToleranceNotMet`` is raised
    when a panel already bisected ``quadrature.MAX_DEPTH`` times needs
    splitting again, or when an estimate is not finite.
    """
    if tol is None:
        tol = tolerances().quad_tol
    max_depth = quadrature.MAX_DEPTH
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    panels = []
    value = err = mag = 0.0
    lo = a
    for hi in (*sorted({k for k in knots if a < k < b}), b) if knots else (b,):
        k, e, m = _reference_kronrod(f, lo, hi)
        panels.append((-e, 0, lo, hi, k, m))
        value += k
        err += e
        mag += m
        lo = hi
    if err <= tol or err <= ROUNDING * mag:
        return sign * value
    # Imported here: loading heapq's extension module costs ~0.14 MB of
    # resident memory, and most integrals never get this far.
    import heapq

    heapq.heapify(panels)
    while not (err <= tol or err <= ROUNDING * mag):
        if not err < math.inf:
            raise ToleranceNotMet(f"quadrature on [{a}, {b}] has a non-finite error estimate")
        neg_e, depth, lo, hi, k, m = heapq.heappop(panels)
        if depth >= max_depth:
            raise ToleranceNotMet(
                f"quadrature on [{a}, {b}] did not reach tol={tol} at max depth"
            )
        mid = 0.5 * (lo + hi)
        k1, e1, m1 = _reference_kronrod(f, lo, mid)
        k2, e2, m2 = _reference_kronrod(f, mid, hi)
        heapq.heappush(panels, (-e1, depth + 1, lo, mid, k1, m1))
        heapq.heappush(panels, (-e2, depth + 1, mid, hi, k2, m2))
        err += e1 + e2 + neg_e
        mag += m1 + m2 - m
    return sign * sum(p[4] for p in panels)


def bits(x: float) -> str:
    """``x`` to the last bit, the sign of a zero included."""
    return x.hex()


def assert_same(f, a, b, **overrides):
    """``adaptive_simpson`` under the tiers with ``overrides`` matches the oracle to the bit."""
    with tiers(quadrature, **overrides) as cfg:
        got = adaptive_simpson(f, a, b)
    want = reference_adaptive_simpson(f, a, b, cfg.quad_tol)
    assert bits(got) == bits(want)
    return want


def adiabat_rates(n):
    rng = random.Random(20240601)
    gas = add_ideal_gas(World())
    for _ in range(n):
        start = GasState(math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)))
        fam = type2(gas, start, start.V * math.exp(rng.uniform(-2, 2)))
        yield rng, fam, fam.work_rate(gas.atom)


def test_adiabat_work_rates_match_the_oracle_bitwise():
    for rng, _, rate in adiabat_rates(200):
        lo, hi = sorted((rng.random(), rng.random()))
        for a, b in ((0.0, 1.0), (lo, hi), (hi, lo), (1.0, 0.0)):
            assert_same(rate, a, b)


def test_kinks_match_the_oracle_bitwise():
    rng = random.Random(7)
    for _ in range(100):
        ks = sorted(rng.uniform(-1, 2) for _ in range(rng.randrange(1, 4)))
        f = lambda x, ks=ks: sum(abs(x - k) for k in ks) + math.sin(3 * x)
        a, b = rng.uniform(-1, 2), rng.uniform(-1, 2)
        assert_same(f, a, b)
        assert_same(f, a, b, quad_tol=1e-13)


@pytest.mark.parametrize("f, a, b, tol", [
    pytest.param(math.sqrt, 0.0, 1.0, 1e-12, id="sqrt"),
    pytest.param(math.sqrt, 1.0, 0.0, 1e-12, id="sqrt-reversed"),
    pytest.param(lambda x: math.exp(-40 * (x - 0.3) ** 2), 0.0, 1.0, 1e-15, id="peak"),
    pytest.param(lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0, 1e-13, id="lorentz"),
    pytest.param(lambda x: math.log(x), 1e-9, 1.0, 1e-12, id="log"),
])
def test_tight_tol_refines_and_matches_the_oracle_bitwise(f, a, b, tol):
    f = counted(f)
    assert_same(f, a, b, quad_tol=tol)
    assert len(f.calls) > 2 * 15  # both integrators refined past the first panel


@pytest.mark.parametrize("f", [
    pytest.param(lambda x: 1e14, id="1e14"),
    pytest.param(lambda x: -3e300 * math.cos(x), id="-3e300-cos"),
    pytest.param(lambda x: 1e9 * math.exp(-0.4 * x), id="1e9-exp"),
    pytest.param(lambda x: 1e200 * math.sqrt(x), id="1e200-sqrt"),
])
def test_large_magnitudes_match_the_oracle_bitwise(f):
    for a, b in ((0.0, 1.0), (1.0, 0.0), (0.1, 0.7)):
        assert_same(f, a, b)


@pytest.mark.parametrize("f", [
    pytest.param(lambda x: -0.0, id="-0.0"),
    pytest.param(lambda x: 0.0, id="0.0"),
    pytest.param(lambda x: x - 0.5, id="odd"),
])
def test_zero_integrals_keep_their_sign_bit(f):
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        assert_same(f, a, b)


def test_narrow_panels_match_the_oracle_bitwise():
    one = 1.0
    for steps in range(1, 20):
        b = one
        for _ in range(steps):
            b = math.nextafter(b, 2.0)
        for f in (math.exp, lambda x: -x, math.sqrt):
            assert_same(f, one, b)
            assert_same(f, b, one)
            assert_same(f, one, b, quad_tol=1e-300)


@pytest.mark.parametrize("f, overrides, depth", [
    pytest.param(lambda x: math.nan, {}, quadrature.MAX_DEPTH, id="nan"),
    pytest.param(lambda x: math.inf, {}, quadrature.MAX_DEPTH, id="inf"),
    pytest.param(lambda x: math.inf if x > 0.5 else 1.0, {}, quadrature.MAX_DEPTH, id="inf-half"),
    pytest.param(math.sqrt, {"quad_tol": 1e-12}, 0, id="depth-0"),
    pytest.param(lambda x: 1.0 / (1e-12 + (x - 0.37123) ** 2),
                 {"quad_tol": 1e-16}, 6, id="needle-depth-6"),
])
def test_failures_raise_as_the_oracle_does(f, overrides, depth, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", depth)
    with tiers(quadrature, **overrides) as cfg:
        with pytest.raises(ToleranceNotMet) as want:
            reference_adaptive_simpson(f, 0.0, 1.0, cfg.quad_tol)
        with pytest.raises(type(want.value)) as got:
            adaptive_simpson(f, 0.0, 1.0)
    assert str(got.value) == str(want.value)
