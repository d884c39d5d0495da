"""Closed forms the benchmark checks thermokernel's outputs against.

They are written out here, apart from ``thermokernel.gas.gas_U``/``gas_S``/
``gas_T``, so that a fault in the engine's own closed forms cannot hide a
fault in its constructed values.  Units are natural (R = 1 unless given).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IdealGas:
    """One gas atom: amount ``n``, constant ``R``, exponent ``gamma``.

    ``p0``/``V0`` is the entropy reference state; ``U0``/``S0`` the additive
    constants of energy and entropy.
    """

    n: float = 1.0
    R: float = 1.0
    gamma: float = 5.0 / 3.0
    p0: float = 1.0
    V0: float = 1.0
    U0: float = 0.0
    S0: float = 0.0

    @property
    def cv(self) -> float:
        return 1.0 / (self.gamma - 1.0)

    @property
    def cp(self) -> float:
        return self.gamma / (self.gamma - 1.0)

    def U(self, p: float, V: float) -> float:
        """U = pV/(gamma-1) + U0."""
        return p * V / (self.gamma - 1.0) + self.U0

    def S(self, p: float, V: float) -> float:
        """S = nR (c_v ln p/p0 + c_p ln V/V0) + S0."""
        return (
            self.n * self.R
            * (self.cv * math.log(p / self.p0) + self.cp * math.log(V / self.V0))
            + self.S0
        )

    def T(self, p: float, V: float) -> float:
        """T = pV/(nR), which is also the isotherm parameter theta."""
        return p * V / (self.n * self.R)

    def S_uv(self, U: float, V: float) -> float:
        """Entropy in the extensive variables (U, V)."""
        return self.S((U - self.U0) * (self.gamma - 1.0) / V, V)

    def adiabat_end(self, p: float, V: float, V2: float) -> tuple[float, float]:
        """State after an isolated leg from (p, V) to volume V2: p V^gamma fixed."""
        return p * (V / V2) ** self.gamma, V2

    def friction_work(self, p: float, V: float, p2: float) -> float:
        """Work of friction heating at constant volume from p up to p2."""
        return self.cv * V * (p2 - p)

    def adiabat_work(self, p: float, V: float, V2: float) -> float:
        """Work of an isolated leg: the change of U along the adiabat."""
        p2, _ = self.adiabat_end(p, V, V2)
        return (p2 * V2 - p * V) / (self.gamma - 1.0)

    def isotherm_work(self, theta: float, V: float, V2: float) -> float:
        """Work on the gas along the theta isotherm: -nR theta ln(V2/V)."""
        return -self.n * self.R * theta * math.log(V2 / V)


def carnot_ratio(theta_hot: float, theta_cold: float) -> float:
    """-q1/q2 of any reversible engine between the two reservoirs."""
    return theta_hot / theta_cold


def carnot_heats(theta_1: float, theta_2: float, q_1: float) -> tuple[float, float, float]:
    """(q1, q2, w) of a reversible cycle putting heat ``q_1`` into reservoir 1.

    Heats are into the reservoirs; ``w`` is the work on the machine, which
    returns to its start, so w = q1 + q2.
    """
    q_2 = -q_1 * theta_2 / theta_1
    return q_1, q_2, q_1 + q_2


def proportional_split(lam: float, U: float, V: float) -> tuple[float, float]:
    """The maximum-entropy share (lam U, lam V) of a lam part."""
    return lam * U, lam * V


def close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    """Finite and within ``atol + rtol |want|``; NaN and infinities never pass."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= atol + rtol * abs(want)
