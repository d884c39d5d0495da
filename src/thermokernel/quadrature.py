"""Adaptive Gauss–Kronrod (G7/K15) quadrature for smooth integrands.

The rule is QK15 of QUADPACK (Piessens, de Doncker-Kapenga, Überhuber,
Kahaner, 1983): on each panel the 15-point Kronrod value is the estimate and
its distance from the embedded 7-point Gauss value the error.  The whole
interval is the first panel; while the summed errors exceed the target, the
panel with the largest error is bisected.  The target is the absolute
``quad_tol`` floored at rounding, ``50 * eps`` times the Kronrod integral of
``|f|``, so integrands of large magnitude converge instead of refining
forever.  A first panel meeting ``tol`` returns at once, as in QUADPACK's
QAG: no heap, no ``|f|`` integral.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .config import tolerances
from .errors import ToleranceNotMet

# Kronrod abscissae on [-1, 1], outermost first; XK2, XK4, XK6 and 0 are the
# 7-point Gauss nodes.
XK1 = 0.991455371120812639206854697526329
XK2 = 0.949107912342758524526189684047851
XK3 = 0.864864423359769072789712788640926
XK4 = 0.741531185599394439863864773280788
XK5 = 0.586087235467691130294144845693013
XK6 = 0.405845151377397166906606412076961
XK7 = 0.207784955007898467600689403773245
# Kronrod weights of XK1..XK7, then of the centre.
WK1 = 0.022935322010529224963732008058970
WK2 = 0.063092092629978553290700663189204
WK3 = 0.104790010322250183839876322541518
WK4 = 0.140653259715525918745189590510238
WK5 = 0.169004726639267902826583426598550
WK6 = 0.190350578064785409913256402421014
WK7 = 0.204432940075298892414161999234649
WK0 = 0.209482141084727828012999174891714
# Gauss weights of XK2, XK4, XK6, then of the centre.
WG2 = 0.129484966168869693270611432679082
WG4 = 0.279705391489276667901467771423780
WG6 = 0.381830050505118944950369775488975
WG0 = 0.417959183673469387755102040816327

ROUNDING = 50.0 * sys.float_info.epsilon
# bisections of one panel; a limit on the work, not a tolerance tier
MAX_DEPTH = 30


def _kronrod(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple:
    """K15 value, |K15 - G7| and, from the same 15 values, the K15 value of ``|f|`` on ``[lo, hi]``.

    The ``|f|`` value is 0.0 when the error meets ``tol``; ``tol=-1.0`` always
    reads it.  No node is an end, so ``f`` is never read at ``lo`` or ``hi``.
    A panel too narrow for its outer nodes to fall strictly inside is
    integrated by its midpoint value alone, with no error estimate.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    d1 = h * XK1
    if not lo < c - d1 < c + d1 < hi:
        value = f(c) * (hi - lo)
        return value, 0.0, abs(value)
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
    err = h * abs(kronrod - gauss)
    if err <= tol:
        return h * kronrod, err, 0.0
    return h * kronrod, err, h * (WK0 * abs(f0) + WK1 * (abs(l1) + abs(r1))
                                  + WK2 * (abs(l2) + abs(r2)) + WK3 * (abs(l3) + abs(r3))
                                  + WK4 * (abs(l4) + abs(r4)) + WK5 * (abs(l5) + abs(r5))
                                  + WK6 * (abs(l6) + abs(r6)) + WK7 * (abs(l7) + abs(r7)))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate ``f`` over ``[a, b]`` by adaptive G7/K15 to the absolute ``quad_tol``.

    The name is historical: the rule is Gauss–Kronrod, not Simpson.  ``f``
    is never evaluated at ``a`` or ``b``.  The summed error estimates must reach
    ``max(quad_tol, 50 * eps * integral of |f|)``; ``ToleranceNotMet`` is
    raised when a panel already bisected ``MAX_DEPTH`` times needs
    splitting again, or when an estimate is not finite.
    """
    tol = tolerances().quad_tol
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    k, err, mag = _kronrod(f, a, b, tol)
    if err <= tol or err <= ROUNDING * mag:  # the first panel is the whole integral
        return sign * (0.0 + k)  # ``0.0 +`` turns a -0.0 into 0.0, as a sum of panels does
    # Imported here: loading heapq's extension module costs ~0.14 MB of
    # resident memory, and most integrals never get this far.
    import heapq

    panels = [(-err, 0, a, b, k, mag)]  # one entry is already a heap
    while not (err <= tol or err <= ROUNDING * mag):
        if not err < math.inf:
            raise ToleranceNotMet(f"quadrature on [{a}, {b}] has a non-finite error estimate")
        neg_e, depth, lo, hi, k, m = heapq.heappop(panels)
        if depth >= MAX_DEPTH:
            raise ToleranceNotMet(
                f"quadrature on [{a}, {b}] did not reach tol={tol} at max depth"
            )
        mid = 0.5 * (lo + hi)
        k1, e1, m1 = _kronrod(f, lo, mid, -1.0)
        k2, e2, m2 = _kronrod(f, mid, hi, -1.0)
        heapq.heappush(panels, (-e1, depth + 1, lo, mid, k1, m1))
        heapq.heappush(panels, (-e2, depth + 1, mid, hi, k2, m2))
        err += e1 + e2 + neg_e
        mag += m1 + m2 - m
    return sign * sum(p[4] for p in panels)
