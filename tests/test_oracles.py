"""Carnot runs against closed forms written out here, not taken from the engine.

Each reference is evaluated in ``decimal`` at 40 digits, so its own rounding
stays far below the bound.  A bound is ``K[name] * U`` relative to the
reference's magnitude (for the work, to |q1| + |q2|); the engine's own error
is a few ulps, so a 1e-13 relative fault in a leg's heat or work fails them.
Temperatures stay in [0.4, 3.5]: far outside that range the absolute
``state_atol`` refuses the run before any heat is read.
"""

import math
from decimal import Decimal, localcontext

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermokernel.carnot import build_carnot, build_degraded_carnot, temperature_ratio
from thermokernel.reservoirs import add_reservoir
from thermokernel.systems import World

U = 2.0 ** -53

# Worst seen over 26,000 seeded draws of these ranges, in u: 4.3, 16.9, 16.4, 5.4, 1.9, 18.0, 12.1.
K = {
    "carnot.q1": 16,
    "carnot.q2": 48,
    "carnot.ratio": 48,
    "temperature_ratio": 16,
    "degraded.q1": 8,
    "degraded.q2": 48,
    "degraded.w": 32,
}

THETA = st.floats(0.4, 3.5)
TARGET = st.floats(0.5, 2.0)


def rel_error(got: float, exact: Decimal, scale: Decimal | None = None) -> float:
    scale = abs(exact) if scale is None else scale
    return float(abs(Decimal(got) - exact) / scale)


def within(name: str, got: float, exact: Decimal, scale: Decimal | None = None) -> None:
    err = rel_error(got, exact, scale)
    assert err <= K[name] * U, f"{name}: {got!r} is {err / U:.1f} u from {exact}"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(theta1=THETA, theta2=THETA, target=TARGET, pump=st.booleans(),
       volume_ratio=st.floats(1.2, 3.0), n=st.one_of(st.none(), st.floats(0.8, 2.0)))
def test_reversible_heats_follow_the_temperature_ratio(theta1, theta2, target, pump,
                                                       volume_ratio, n):
    """q1 is the target, q2 = -q1 θ2/θ1, and temperature_ratio is θ1/θ2.

    With ``n`` given, the target n θ1 ln(volume_ratio) keeps the first
    isotherm's ratio in [1.2, 3] too, and so the pressures moderate.
    """
    if n is not None:
        target = n * theta1 * math.log(volume_ratio)
    q_target = target if pump else -target
    world = World()
    r1, r2 = add_reservoir(world, theta1), add_reservoir(world, theta2)
    run = build_carnot(r1, r2, q_target, volume_ratio=volume_ratio, n=n)
    with localcontext() as ctx:
        ctx.prec = 40
        t1, t2, q = Decimal(theta1), Decimal(theta2), Decimal(q_target)
        within("carnot.q1", run.q1, q)
        within("carnot.q2", run.q2, -q * t2 / t1)
        within("carnot.ratio", -run.q1 / run.q2, t1 / t2)
        within("temperature_ratio", temperature_ratio(r1, r2), t1 / t2)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hot=THETA, cold=THETA, log_ratio=st.floats(0.1, 1.5))
def test_friction_closed_heats_and_work(hot, cold, log_ratio):
    """One unit of gas, R = 1, γ = 5/3: q1 = -θ1 ln vr, q2 = θ2 (ln vr + 3/2 ln(θ1/θ2))."""
    assume(hot != cold)
    theta1, theta2 = max(hot, cold), min(hot, cold)
    vr = math.exp(log_ratio)
    world = World()
    run = build_degraded_carnot(add_reservoir(world, theta1), add_reservoir(world, theta2), vr)
    with localcontext() as ctx:
        ctx.prec = 40
        t1, t2, ln_vr = Decimal(theta1), Decimal(theta2), Decimal(vr).ln()
        q1 = -t1 * ln_vr
        q2 = t2 * (ln_vr + Decimal(3) / 2 * (t1 / t2).ln())
        within("degraded.q1", run.q1, q1)
        within("degraded.q2", run.q2, q2)
        within("degraded.w", run.w, q1 + q2, abs(q1) + abs(q2))
