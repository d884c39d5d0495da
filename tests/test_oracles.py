"""Legs, ledgers and engine runs against closed forms written out here, not taken from the engine.

Each reference is evaluated in ``decimal`` at 40 digits, so its own rounding
stays far below the bound.  A bound is ``K[name] * U`` relative to the
magnitude of the terms the engine adds up: the reference's own magnitude, or
the scale a test names (for the Carnot work, |q1| + |q2|).  An entropy is a
logarithm of a ratio of computed states, which carries an absolute rounding
of a few u however small the logarithm, so an entropy's scale is nR times 1
plus its terms.  The engine's own error is a few ulps, so a 1e-13 relative
fault in a leg's heat or work, or in the entropy ledger, fails them.
Temperatures stay in [0.4, 3.5]: far outside that range the absolute
``state_atol`` refuses the run before any heat is read.  Gas states have p
and V in 10^[-2, 2]; c_v = 1/(γ - 1) and c_p = γ/(γ - 1) are taken from the
model's float γ, as ``GasModel.cv_R`` and ``cp_R`` define them.
"""

import math
import random
from decimal import Decimal, localcontext

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermokernel.carnot import build_carnot, build_degraded_carnot, temperature_ratio
from thermokernel.energy import EnergyLedger
from thermokernel.entropy import EntropyLedger, clausius_sum, records_from_legs
from thermokernel.gas import GasModel, GasState, add_ideal_gas, type1, type2, type3
from thermokernel.reservoirs import add_reservoir, heat_into
from thermokernel.suites import random_reversible_legs
from thermokernel.systems import World

U = 2.0 ** -53

# Worst seen over 26,000 seeded draws of these ranges, in u: 4.3, 16.9, 16.4, 5.4, 1.9, 18.0, 12.1;
# over 23,000 draws each of the legs, ledgers and Clausius sums: 2.7, 7.0, 2.0, 7.6, 2.9, 12.0.
K = {
    "carnot.q1": 16,
    "carnot.q2": 48,
    "carnot.ratio": 48,
    "temperature_ratio": 16,
    "degraded.q1": 8,
    "degraded.q2": 48,
    "degraded.w": 32,
    "type1.w": 8,
    "type2.w": 32,
    "type3.q": 8,
    "energy.dU": 32,
    "entropy.dS": 16,
    "clausius.sum": 48,
}

THETA = st.floats(0.4, 3.5)
TARGET = st.floats(0.5, 2.0)
LOG10 = st.floats(-2.0, 2.0)
GAMMA = st.sampled_from((5.0 / 3.0, 7.0 / 5.0))
AMOUNT = st.floats(0.5, 2.0)


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


def state(log_p: float, log_v: float) -> GasState:
    return GasState(10.0**log_p, 10.0**log_v)


def cv_cp(gamma: float) -> tuple[Decimal, Decimal]:
    g = Decimal(gamma)
    return 1 / (g - 1), g / (g - 1)


def pv(s: GasState) -> Decimal:
    return Decimal(s.p) * Decimal(s.V)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(log_p=LOG10, log_v=LOG10, log_p2=LOG10, gamma=GAMMA, n=AMOUNT)
def test_friction_work_is_cv_v_dp(log_p, log_v, log_p2, gamma, n):
    """``type1`` from p up to p2 at volume V takes the work c_v V (p2 - p)."""
    a, p2 = state(min(log_p, log_p2), log_v), 10.0 ** max(log_p, log_p2)
    gas = add_ideal_gas(World(), GasModel(n=n, gamma=gamma))
    w = type1(gas, a, p2).work_between(gas.atom, 0.0, 1.0)
    with localcontext() as ctx:
        ctx.prec = 40
        cv, _ = cv_cp(gamma)
        v, dp = Decimal(a.V), Decimal(p2) - Decimal(a.p)
        within("type1.w", w, cv * v * dp, cv * v * (Decimal(p2) + Decimal(a.p)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(log_p=LOG10, log_v=LOG10, log_v2=LOG10, gamma=GAMMA, n=AMOUNT)
def test_isolated_work_is_the_change_of_pv_over_gamma_minus_1(log_p, log_v, log_v2, gamma, n):
    """``type2`` from (p1, V1) to V2 takes (p2 V2 - p1 V1)/(γ - 1), p2 = p1 (V1/V2)^γ."""
    a, v2 = state(log_p, log_v), 10.0**log_v2
    gas = add_ideal_gas(World(), GasModel(n=n, gamma=gamma))
    w = type2(gas, a, v2).work_between(gas.atom, 0.0, 1.0)
    with localcontext() as ctx:
        ctx.prec = 40
        cv, _ = cv_cp(gamma)
        ratio = Decimal(a.V) / Decimal(v2)
        pv2 = Decimal(a.p) * (Decimal(gamma) * ratio.ln()).exp() * Decimal(v2)
        within("type2.w", w, cv * (pv2 - pv(a)), cv * (pv2 + pv(a)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(log_p=LOG10, log_v=LOG10, log_v2=LOG10, gamma=GAMMA, n=AMOUNT)
def test_reservoir_heat_of_an_isotherm_is_minus_nr_theta_ln_r(log_p, log_v, log_v2, gamma, n):
    """``type3`` at θ = p V/(nR) from V1 to V2 puts -nRθ ln(V2/V1) into its reservoir.

    The heat is nRθ times a logarithm, so its scale is nRθ (1 + |ln(V2/V1)|).
    """
    a, v2 = state(log_p, log_v), 10.0**log_v2
    world = World()
    gas = add_ideal_gas(world, GasModel(n=n, gamma=gamma))
    theta = a.p * a.V / gas.model.nR
    res = add_reservoir(world, theta)
    q = heat_into(res, type3(gas, res, a, v2).slice(0.0, 1.0))
    with localcontext() as ctx:
        ctx.prec = 40
        nr_theta, ln_r = Decimal(n) * Decimal(theta), (Decimal(v2) / Decimal(a.V)).ln()
        within("type3.q", q, -nr_theta * ln_r, nr_theta * (1 + abs(ln_r)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lp1=LOG10, lv1=LOG10, lp2=LOG10, lv2=LOG10, gamma=GAMMA, n=AMOUNT)
def test_energy_ledger_differences_are_cv_times_the_change_of_pv(lp1, lv1, lp2, lv2, gamma, n):
    """U(s2) - U(s1) = c_v (p2 V2 - p1 V1), the states on either side of σ0's adiabat.

    Each value is U(σ0) plus or minus the work of a route, so the terms are
    U(s1), U(s2) and twice U(σ0).
    """
    s1, s2 = state(lp1, lv1), state(lp2, lv2)
    world = World()
    gas = add_ideal_gas(world, GasModel(n=n, gamma=gamma))
    u1, u2 = EnergyLedger(world).atom_energies(gas.atom, (s1, s2))
    with localcontext() as ctx:
        ctx.prec = 40
        cv, _ = cv_cp(gamma)
        terms = cv * (pv(s1) + pv(s2) + 2 * pv(gas.model.sigma0))
        within("energy.dU", u2 - u1, cv * (pv(s2) - pv(s1)), terms)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lp1=LOG10, lv1=LOG10, lp2=LOG10, lv2=LOG10, gamma=GAMMA, n=AMOUNT)
def test_entropy_ledger_differences_are_the_closed_form(lp1, lv1, lp2, lv2, gamma, n):
    """S(s2) - S(s1) = nR (c_v ln(p2/p1) + c_p ln(V2/V1))."""
    s1, s2 = state(lp1, lv1), state(lp2, lv2)
    world = World()
    gas = add_ideal_gas(world, GasModel(n=n, gamma=gamma))
    e1, e2 = EntropyLedger(world).atom_entropies(gas.atom, (s1, s2))
    with localcontext() as ctx:
        ctx.prec = 40
        cv, cp = cv_cp(gamma)
        nr, s0 = Decimal(n), gas.model.sigma0

        def logs(s: GasState) -> tuple[Decimal, Decimal]:
            return (Decimal(s.p) / Decimal(s0.p)).ln(), (Decimal(s.V) / Decimal(s0.V)).ln()

        (lp1, lv1), (lp2, lv2) = logs(s1), logs(s2)
        exact = nr * (cv * (lp2 - lp1) + cp * (lv2 - lv1))
        terms = nr * (2 + cv * (abs(lp1) + abs(lp2)) + cp * (abs(lv1) + abs(lv2)))
        within("entropy.dS", e2 - e1, exact, terms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), log_p=LOG10, log_v=LOG10, moves=st.integers(1, 3),
       gamma=GAMMA, n=AMOUNT)
def test_reversible_cycles_have_a_zero_clausius_sum(seed, log_p, log_v, moves, gamma, n):
    """The sum of q/θ around a random reversible cycle is zero, relative to Σ|q/θ|.

    Each q/θ is nR times a logarithm, so each isotherm leg adds nR to the
    scale, a degenerate one too: the closing template always has one, so
    the scale is never 0.
    """
    gas = add_ideal_gas(World(), GasModel(n=n, gamma=gamma))
    legs = random_reversible_legs(gas, random.Random(seed), state(log_p, log_v), moves)
    records = records_from_legs(legs, gas)
    total = clausius_sum(records, gas.system)
    scale = Decimal(n) * sum(leg.tag == "type3" for leg in legs) + sum(
        abs(Decimal(r.q) / Decimal(r.temperature)) for r in records if r.temperature is not None)
    within("clausius.sum", total, Decimal(0), scale)
