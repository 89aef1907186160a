"""Protocol parameters, their dimensionless groups, the moment record, and
the one array body of every closed form (:func:`closed_form`).

Every engine in the package consumes the same :class:`ProtocolParams`
record.  Rates and times are in mutually consistent arbitrary units.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NonFiniteObjectiveError, UndefinedDirectionError

__all__ = [
    "PAULI_TACT_RATE_FACTOR",
    "ProtocolParams",
    "DimensionlessGroups",
    "Moments",
    "Violation",
    "Status",
    "Checked",
    "OK", "DOMAIN", "NON_FINITE", "OVERFLOW",
    "check_field",
    "closed_form",
    "derive_dimensionless",
    "exp_elementwise",
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
    """

    n_spins: int
    polarization_p: float
    j_coupling: float
    gamma: float
    b_field: float = 0.0
    t_squeeze: float = 0.0
    t_signal: float = 0.0


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


@dataclass(frozen=True)
class Moments:
    """Collective moments of N spins, C = sum_i sigma_i (sigma units): mean_a =
    <C_a> and second_ab = Re<C_a C_b> = <{C_a, C_b}>/2.  Every squeezing parameter
    is a function of them (Kitagawa & Ueda, PRA 47, 5138 (1993); Wineland et
    al., PRA 50, 67 (1994))."""

    n_spins: int
    mean: np.ndarray
    second: np.ndarray

    def transverse_extrema(self) -> tuple[float, float]:
        """(min, max) variance of C over the plane orthogonal to <C>: the
        moment matrix projected on that plane, then a closed-form 2x2
        diagonalization.  UndefinedDirectionError below |<C>| = 1e-12."""
        norm = float(np.linalg.norm(self.mean))
        if norm < 1e-12:
            raise UndefinedDirectionError(
                f"mean spin length {norm:.3e} too small to define a direction")
        n_hat = self.mean / norm
        # transverse basis, seeded by the least-aligned coordinate axis
        e1 = np.cross(n_hat, np.eye(3)[int(np.argmin(np.abs(n_hat)))])
        e1 /= np.linalg.norm(e1)
        plane = np.array([e1, np.cross(n_hat, e1)])
        m = plane @ self.mean
        (a, c), (_, b) = plane @ self.second @ plane.T - np.outer(m, m)
        half_diff, mid = np.hypot((a - b) / 2.0, c), (a + b) / 2.0
        return mid - half_diff, mid + half_diff

    def xi2(self) -> tuple[float, float]:
        """(Kitagawa-Ueda, Wineland) squeezing parameters: min Var(C_perp) / N
        and N min Var(C_perp) / |<C>|^2."""
        min_var = self.transverse_extrema()[0]
        return (min_var / self.n_spins,
                self.n_spins * min_var / float(np.dot(self.mean, self.mean)))


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


def derive_dimensionless(params: ProtocolParams) -> DimensionlessGroups:
    """Compute Theta, alpha and the effective polarization.

    p_eff decays over the squeezing window only; the decay over squeezing
    plus signal acquisition is linearized.effective_polarization(P, Gamma,
    T, t).  Fields may be arrays of one shape (a grid of points): every
    group is then an array, alpha +inf where alpha_infinite holds.
    """
    return _groups(params.j_coupling, params.n_spins, params.polarization_p, params.gamma,
                   params.t_squeeze)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows only above


def exp_elementwise(x) -> np.ndarray:
    """math.exp of every element of x as a float64 array, +inf where it
    overflows: the scalar call's bits (np.exp's differ in the last bit on some
    inputs).  After an overflow only the elements above log(float max) are redone."""
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


# -- closed forms: one array body each, and the status of every element -------

OK, DOMAIN, NON_FINITE, OVERFLOW = range(4)
_ERRORS = {DOMAIN: DomainError, NON_FINITE: NonFiniteObjectiveError, OVERFLOW: OverflowError}


class Status:
    """Per element of one closed-form evaluation, `code`: OK or the code of
    the first check it failed.  `error(i)` is what a float call raises there
    (_ERRORS), the check's message template filled from element i's values."""

    def __init__(self, shape):
        self.code, self.failed = np.zeros(shape, np.int8), np.zeros(shape, np.int8)
        self.checks: list[tuple] = []  # failed = 1 + the index of its check here

    def flag(self, where, code: int, template: str, *values, abscissa=None) -> Status:
        """Fail where `where` holds and no earlier check failed (values: full shape)."""
        self.checks.append((code, template, values, abscissa))
        new = where & (self.code == OK)
        self.code[new], self.failed[new] = code, len(self.checks)
        return self

    def exp(self, x: np.ndarray) -> np.ndarray:
        """exp_elementwise(x), failing OVERFLOW where math.exp(x) raises."""
        out = exp_elementwise(x)
        self.flag(np.isinf(out) & np.isfinite(x), OVERFLOW, "math range error")
        return out

    def nan(self, value: np.ndarray) -> np.ndarray:
        return np.where(self.code == OK, value, np.nan)

    def error(self, i: int) -> Exception:
        code, template, values, abscissa = self.checks[self.failed.flat[i] - 1]
        error = _ERRORS[code](template.format(*(v.flat[i].item() for v in values)))
        if abscissa is not None:
            error.abscissa = abscissa.flat[i].item()
        return error


class Checked(NamedTuple):
    """A bare-valued closed form over an array: its values and their Status."""
    value: np.ndarray
    status: Status


def closed_form(body: Callable) -> Callable:
    """A closed form's public function from its one body over float64 arrays
    of one shape (the arguments broadcast).  The body returns its values, nan
    where one is undefined, with their Status (a record's `status`, or a
    Checked) unless no element can fail.  A float call is a one-element array
    call: it raises the failed check's error, else returns Python scalars."""

    @functools.wraps(body)
    def call(*args):
        with np.errstate(all="ignore"):  # a failed check is the report
            out = body(*np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float))
                                              for a in args)))
        if any(isinstance(a, np.ndarray) for a in args):
            return out
        if getattr(out, "status", None) is not None and out.status.code[0]:
            raise out.status.error(0)
        return _scalars(out)

    return call


def _scalars(v):
    """A one-element array call's result in Python scalars, with no status."""
    if isinstance(v, Checked):
        return v.value.item()
    if isinstance(v, tuple):
        return v._make(map(_scalars, v))
    if isinstance(v, dict):
        return {key: _scalars(x) for key, x in v.items()}
    if dataclasses.is_dataclass(v):
        return dataclasses.replace(v, **_scalars(vars(v)))
    return v.item() if isinstance(v, np.ndarray) else None if isinstance(v, Status) else v


@closed_form
def squeeze_to_noise(j_coupling, n_spins, polarization_p, gamma):
    """alpha = J N P / (4 Gamma): +inf at Gamma = 0."""
    return np.where(gamma == 0.0, np.inf, j_coupling * n_spins * polarization_p / (4.0 * gamma))


@closed_form
def _groups(j_coupling, n_spins, polarization_p, gamma, t_squeeze) -> DimensionlessGroups:
    theta = 4.0 * gamma * t_squeeze
    return DimensionlessGroups(theta, squeeze_to_noise(j_coupling, n_spins, polarization_p, gamma),
                               polarization_p * exp_elementwise(-theta), gamma == 0.0)
