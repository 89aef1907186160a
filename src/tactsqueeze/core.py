"""Protocol parameters and the dimensionless groups derived from them.

Every engine in the package consumes the same :class:`ProtocolParams`
record.  Rates and times are in mutually consistent arbitrary units.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PAULI_TACT_RATE_FACTOR",
    "ProtocolParams",
    "DimensionlessGroups",
    "Violation",
    "check_domain",
    "check_field",
    "derive_dimensionless",
    "exp_any",
    "exp_elementwise",
    "nan_outside",
    "sqrt_any",
    "squeeze_to_noise",
    "validate",
]

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
    depolarization.  alpha = J*N*P/(4*Gamma) is +inf (with alpha_infinite
    set) when Gamma = 0: the noiseless case has no finite squeezing-to-noise
    ratio, and the closed forms that need one raise DomainError.
    """

    theta: float
    alpha: float
    p_eff: float
    alpha_infinite: bool = False


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def _finite_nonnegative(x) -> bool:
    return math.isfinite(x) and x >= 0.0


# field -> (code, check, message prefix); one rule per field
_FIELD_RULES = {
    "n_spins": ("N_POSITIVE", lambda n: isinstance(n, int) and n >= 1,
                "n_spins must be a positive integer"),
    "polarization_p": ("P_OUT_OF_RANGE", lambda p: math.isfinite(p) and 0.0 < p <= 1.0,
                       "polarization_p must be in (0, 1]"),
    **{name: (code, _finite_nonnegative, f"{name} must be finite and non-negative")
       for name, code in [("j_coupling", "J_NONNEGATIVE"),
                          ("gamma", "GAMMA_NONNEGATIVE"),
                          ("b_field", "B_NONNEGATIVE"),
                          ("t_squeeze", "T_SQUEEZE_NONNEGATIVE"),
                          ("t_signal", "T_SIGNAL_NONNEGATIVE")]},
    "tau_total": ("TAU_POSITIVE", lambda x: math.isfinite(x) and x > 0.0,
                  "tau_total must be finite and positive"),
}


def check_field(name: str, value) -> Violation | None:
    """The violation of one ProtocolParams field's invariant, or None.

    Every invariant involves one field only, so a point is valid exactly
    when each of its fields passes this check.
    """
    code, ok, message = _FIELD_RULES[name]
    return None if ok(value) else Violation(code, f"{message}, got {value}")


def validate(params: ProtocolParams) -> list[Violation]:
    """Check every invariant; return the full list of violations (empty = ok)."""
    found = (check_field(name, getattr(params, name)) for name in _FIELD_RULES)
    return [v for v in found if v is not None]


def squeeze_to_noise(j_coupling, n_spins, polarization_p, gamma):
    """alpha = J N P / (4 Gamma): +inf at Gamma = 0.

    Elementwise for an array Gamma, with +inf where Gamma = 0.
    """
    if isinstance(gamma, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = j_coupling * n_spins * polarization_p / (4.0 * gamma)
        return np.where(gamma == 0.0, np.inf, alpha)
    if gamma == 0.0:
        return math.inf
    return j_coupling * n_spins * polarization_p / (4.0 * gamma)


def derive_dimensionless(params: ProtocolParams) -> DimensionlessGroups:
    """Compute Theta, alpha and the effective polarization.

    p_eff decays over the squeezing window only; the decay over squeezing
    plus signal acquisition is linearized.effective_polarization(P, Gamma,
    T, t).  Fields may be arrays of one shape (a grid of points): every
    group is then an array, alpha +inf where alpha_infinite holds.
    """
    theta = 4.0 * params.gamma * params.t_squeeze
    p_eff = params.polarization_p * exp_any(-theta)
    alpha = squeeze_to_noise(params.j_coupling, params.n_spins, params.polarization_p,
                             params.gamma)
    return DimensionlessGroups(theta=theta, alpha=alpha, p_eff=p_eff,
                               alpha_infinite=params.gamma == 0.0)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows only above


def exp_elementwise(x) -> np.ndarray:
    """math.exp of every element of x, as a float64 array; +inf where it overflows.

    One math.exp call per element, so each value has the bits of the
    scalar call (np.exp differs from it in the last bit on some inputs).
    After an overflow only the elements above log(float max) are redone.
    """
    vals = np.asarray(x, dtype=float).ravel()
    try:
        out = np.fromiter(map(math.exp, vals.tolist()), float, vals.size)
    except OverflowError:
        big = vals > _LOG_FLOAT_MAX
        out = np.empty(vals.size)
        out[~big] = np.fromiter(map(math.exp, vals[~big].tolist()), float)
        out[big] = [_exp_or_inf(v) for v in vals[big].tolist()]
    return out.reshape(np.shape(x))


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def exp_any(x):
    """math.exp(x); for an array, of each element (exp_elementwise), so an
    array formula gives every element the bits of the scalar one."""
    return exp_elementwise(x) if isinstance(x, np.ndarray) else math.exp(x)


def sqrt_any(x):
    """math.sqrt(x); np.sqrt for an array (both are correctly rounded)."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def check_domain(undefined, message: str, *args) -> None:
    """Raise DomainError(message.format(*args)) where a formula's scalar
    arguments lie outside its domain (`undefined` true).  Array arguments
    are not checked here: the formula sets their rows outside it to nan,
    by nan_outside."""
    if not isinstance(undefined, np.ndarray) and undefined:
        raise DomainError(message.format(*args))


def nan_outside(undefined, value):
    """value, with nan in the rows of an array `undefined` marks."""
    if isinstance(undefined, np.ndarray):
        return np.where(undefined, np.nan, value)
    return value
