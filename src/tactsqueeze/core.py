"""Protocol parameters and the dimensionless groups derived from them.

Every engine in the package consumes the same :class:`ProtocolParams`
record.  Rates and times are in mutually consistent arbitrary units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PAULI_TACT_RATE_FACTOR",
    "ProtocolParams",
    "DimensionlessGroups",
    "Violation",
    "derive_dimensionless",
    "validate",
]

SQUEEZE_ONLY = "squeeze_only"
SQUEEZE_THEN_MEASURE = "squeeze_then_measure"

PAULI_TACT_RATE_FACTOR = 4.0
"""Squeezing rate of the exact oracle's Hamiltonian in units of J N P.

The Gaussian engine, the closed forms and :func:`derive_dimensionless`
read J as the coupling whose Holstein-Primakoff contraction rate is
kappa = J N P (alpha = J N P / (4 Gamma)).  ``exact.tact_hamiltonian(n, J)``
is written in Pauli units: with collective sums C = sum_i sigma_i = 2 S,

    J sum_{i != j} (sx_i sx_j - sy_i sy_j) = J (Cx^2 - Cy^2) = 4 J (Sx^2 - Sy^2),

because the i = j terms sx^2 - sy^2 = I - I vanish.  Near the pole
<Sz> = N P / 2, Holstein-Primakoff gives Sx = sqrt(N P / 2) X and
Sy = sqrt(N P / 2) Y with [X, Y] = i, so H = 2 J N P (X^2 - Y^2) and
dX/dt = -4 J N P Y, dY/dt = -4 J N P X: the oracle contracts at
4 J N P (Kitagawa & Ueda, PRA 47, 5138 (1993)).  The oracle therefore
describes the same dynamics as the Gaussian engine at coupling J when
it is driven at J / PAULI_TACT_RATE_FACTOR.
"""


@dataclass(frozen=True)
class ProtocolParams:
    """Physical inputs of a squeezing protocol.

    n_spins        -- ensemble size N
    polarization_p -- initial polarization P in (0, 1]
    j_coupling     -- squeezing rate J (1/time)
    gamma          -- depolarization rate Gamma >= 0 (1/time)
    b_field        -- signal field strength B (1/time)
    t_squeeze      -- squeezing duration T >= 0
    t_signal       -- signal-acquisition duration t >= 0
    tau_total      -- total measurement budget tau > 0
    """

    n_spins: int
    polarization_p: float
    j_coupling: float
    gamma: float
    b_field: float = 0.0
    t_squeeze: float = 0.0
    t_signal: float = 0.0
    tau_total: float = 1.0


@dataclass(frozen=True)
class DimensionlessGroups:
    """Derived dimensionless quantities used by the closed forms.

    theta = 4*Gamma*T; p_eff is the effective polarization after
    depolarization.  alpha = J*N*P/(4*Gamma) is None
    (with alpha_infinite set) when Gamma = 0: the noiseless case has no
    finite squeezing-to-noise ratio and callers branch explicitly.
    """

    theta: float
    alpha: float | None
    p_eff: float
    alpha_infinite: bool = False


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def validate(params: ProtocolParams) -> list[Violation]:
    """Check every invariant; return the full list of violations (empty = ok)."""
    v = []
    if not isinstance(params.n_spins, int) or params.n_spins < 1:
        v.append(Violation("N_POSITIVE", f"n_spins must be a positive integer, got {params.n_spins}"))
    p = params.polarization_p
    if not (math.isfinite(p) and 0.0 < p <= 1.0):
        v.append(Violation("P_OUT_OF_RANGE", f"polarization_p must be in (0, 1], got {p}"))
    for name, code in [
        ("j_coupling", "J_NONNEGATIVE"),
        ("gamma", "GAMMA_NONNEGATIVE"),
        ("b_field", "B_NONNEGATIVE"),
        ("t_squeeze", "T_SQUEEZE_NONNEGATIVE"),
        ("t_signal", "T_SIGNAL_NONNEGATIVE"),
    ]:
        x = getattr(params, name)
        if not (math.isfinite(x) and x >= 0.0):
            v.append(Violation(code, f"{name} must be finite and non-negative, got {x}"))
    if not (math.isfinite(params.tau_total) and params.tau_total > 0.0):
        v.append(Violation("TAU_POSITIVE", f"tau_total must be finite and positive, got {params.tau_total}"))
    return v


def derive_dimensionless(params: ProtocolParams, mode: str = SQUEEZE_ONLY) -> DimensionlessGroups:
    """Compute Theta, alpha and the effective polarization.

    mode selects whether p_eff decays over the squeezing window only
    (``squeeze_only``) or over squeezing plus signal acquisition
    (``squeeze_then_measure``).
    """
    if mode not in (SQUEEZE_ONLY, SQUEEZE_THEN_MEASURE):
        raise ValueError(f"unknown mode {mode!r}")
    theta = 4.0 * params.gamma * params.t_squeeze
    if mode == SQUEEZE_ONLY:
        decay_window = params.t_squeeze
    else:
        decay_window = params.t_squeeze + params.t_signal
    p_eff = params.polarization_p * math.exp(-4.0 * params.gamma * decay_window)
    if params.gamma == 0.0:
        return DimensionlessGroups(theta=theta, alpha=None, p_eff=p_eff,
                                   alpha_infinite=True)
    alpha = params.j_coupling * params.n_spins * params.polarization_p / (4.0 * params.gamma)
    return DimensionlessGroups(theta=theta, alpha=alpha, p_eff=p_eff)
