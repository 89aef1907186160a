"""Protocol optima: closed forms for Theta*, U* and the squeeze fraction.

The optimal squeeze window Theta* = 1 - W0(e/alpha) and the optimal
budget split U* = (a - 1)/a (a = alpha/e) are evaluated in closed form,
and Theta*'s stationarity residual is checked post hoc.  The full (T, t)
split reduces to a 1-D window search, split in closed form: at fixed
s = T + t the squeeze fraction T/s is the same (c - 1)/c, clamped to the
budget, so only s is searched (grid, then golden section).  Plateau ties
break toward the smallest argmax.  `grid_then_golden` stays public as the
numerical reference the closed forms are tested against.
`optimal_theta_elementwise` and `optimal_u_elementwise` give the argmax
of Theta* and U* over an array of alpha, with the scalar calls' bits and
nan where the scalar call raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import snr_squeeze_then_measure
from .core import exp_any, exp_elementwise
from .errors import DomainError, NonFiniteObjectiveError

__all__ = [
    "OptimizationOutcome",
    "maximize_scalar", "grid_then_golden",
    "optimal_theta", "optimal_u", "optimal_split_full",
    "optimal_theta_elementwise", "optimal_u_elementwise",
    "squeeze_gain",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_STATIONARITY_TOL = 1e-8
_SPLIT_TOL = 1e-9  # optimal_split_full's golden-section tolerance on s = T + t


@dataclass(frozen=True)
class OptimizationOutcome:
    argmax: float | tuple[float, float]
    value: float
    at_boundary: bool
    iterations: int
    bracket: tuple[float, float]
    diagnostics: dict | None = None


def _eval(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise NonFiniteObjectiveError(f"objective non-finite at x = {x}", abscissa=x)
    return y


def maximize_scalar(objective: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-10) -> OptimizationOutcome:
    """Golden-section maximization on [lo, hi]; assumes unimodality.

    Ties keep the left subinterval, so plateaus resolve to the smallest
    argmax (a constant objective reports the boundary at lo).  The search
    stops at width tol, or once the state (a, b, c, d) repeats: with tol
    below the float spacing of the bracket it cycles instead of shrinking.
    """
    if not lo < hi:
        raise ValueError("requires lo < hi")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = _eval(objective, c), _eval(objective, d)
    iterations = 0
    seen = set()
    while b - a > tol and (a, b, c, d) not in seen:
        seen.add((a, b, c, d))
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = _eval(objective, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = _eval(objective, d)
        iterations += 1
    x = (a + b) / 2.0
    fx = _eval(objective, x)
    # fold in the original endpoints so boundary optima are never missed
    for cand, fcand in ((lo, _eval(objective, lo)), (hi, _eval(objective, hi))):
        if fcand > fx:
            x, fx = cand, fcand
    edge = max(tol, 4.0 * tol)
    at_boundary = x - lo <= edge or hi - x <= edge
    return OptimizationOutcome(argmax=x, value=fx, at_boundary=at_boundary,
                               iterations=iterations, bracket=(lo, hi))


def grid_then_golden(objective: Callable[[float], float], lo: float, hi: float,
                     n_grid: int = 512, tol: float = 1e-10) -> OptimizationOutcome:
    """Coarse grid scan, then golden refinement around the best cell.

    Robust for objectives that are not globally unimodal.
    """
    xs = np.linspace(lo, hi, n_grid)
    ys = [_eval(objective, float(x)) for x in xs]
    best = int(np.argmax(ys))  # argmax picks the first (smallest) on ties
    a = float(xs[max(0, best - 1)])
    b = float(xs[min(n_grid - 1, best + 1)])
    inner = maximize_scalar(objective, a, b, tol)
    at_boundary = (abs(inner.argmax - lo) <= max(tol, 4.0 * tol)
                   or abs(inner.argmax - hi) <= max(tol, 4.0 * tol))
    return OptimizationOutcome(argmax=inner.argmax, value=inner.value,
                               at_boundary=at_boundary,
                               iterations=inner.iterations + n_grid,
                               bracket=(lo, hi))


def squeeze_gain(theta: float, alpha: float) -> float:
    """g(Theta) = Theta (alpha e^{-Theta} - 1); xi^2 = e^{-g}/P; alpha > 0.

    Evaluated as Theta expm1(ln alpha - Theta): near threshold alpha e^{-Theta}
    is within rounding of 1, and the plain difference loses every digit.
    """
    return theta * math.expm1(math.log(alpha) - theta)


def optimal_theta(alpha: float, polarization_p: float) -> OptimizationOutcome:
    """Maximize the squeezing gain g(Theta) over Theta >= 0 in closed form.

    Boundary Theta* = 0 iff alpha <= 1 (sign of g'(0) = alpha - 1).  An
    interior optimum solves alpha e^{-Theta}(1 - Theta) = 1, i.e.
    Theta* = 1 - W0(e/alpha) on the principal Lambert W branch (Corless et
    al., Adv. Comput. Math. 5, 329 (1996)), so Theta* lies in (0, 1).  The
    stationarity residual is checked to 1e-8 post hoc.
    """
    if alpha == math.inf:
        raise DomainError("noiseless case (alpha infinite) has no interior optimum")
    if alpha <= 1.0:  # alpha = -inf included: g(Theta) = -inf for Theta > 0
        return OptimizationOutcome(argmax=0.0, value=0.0, at_boundary=True,
                                   iterations=0, bracket=(0.0, 1.0))
    theta, residual = map(float, _theta_star(alpha))
    if residual > _STATIONARITY_TOL:
        raise NonFiniteObjectiveError(
            f"stationarity residual {residual:.3e} exceeds 1e-8", abscissa=theta)
    return OptimizationOutcome(argmax=theta, value=squeeze_gain(theta, alpha),
                               at_boundary=False, iterations=0, bracket=(0.0, 1.0),
                               diagnostics={"stationarity_residual": residual})


def _theta_star(alpha):
    """1 - W0(e/alpha) and its stationarity residual; elementwise on arrays."""
    # imported here: scipy costs ~0.3 s at `import tactsqueeze`, which the
    # exact-engine commands never need
    from scipy.special import lambertw
    theta = 1.0 - lambertw(math.e / alpha).real
    return theta, abs(alpha * exp_any(-theta) * (1.0 - theta) - 1.0)


def optimal_theta_elementwise(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """optimal_theta's argmax and at_boundary for each alpha of an array;
    the argmax is nan where the scalar call raises (alpha = +inf, or a
    stationarity residual above tolerance) or returns nan (alpha = nan)."""
    at_boundary = alpha <= 1.0
    interior = ~at_boundary & (alpha != np.inf)
    theta = np.where(at_boundary, 0.0, np.nan)
    theta[interior], residual = _theta_star(alpha[interior])
    theta[np.flatnonzero(interior)[residual > _STATIONARITY_TOL]] = np.nan
    return theta, at_boundary


def _u_star(a: float) -> float:
    """Argmax of (1 - U) e^{aU} over U >= 0; 0 unless a > 1."""
    return _interior_u(a) if a > 1.0 else 0.0


def _interior_u(a):
    return (a - 1.0) / a


def optimal_u(alpha: float) -> OptimizationOutcome:
    """Maximize h(U) = (1 - U) exp(a U), a = alpha/e, over U in [0, 1).

    h'(U) = e^{aU}(a(1 - U) - 1), so for a > 1 the optimum is
    U* = (a - 1)/a with h(U*) = e^{a-1}/a; otherwise U* = 0 at the
    boundary.
    """
    if math.isinf(alpha):
        raise DomainError("noiseless case (alpha infinite) has no interior optimum")
    if not (alpha > 0.0):
        raise DomainError(f"requires alpha > 0, got {alpha}")
    a = alpha * math.exp(-1.0)
    if a <= 1.0:
        return OptimizationOutcome(argmax=0.0, value=1.0, at_boundary=True,
                                   iterations=0, bracket=(0.0, 1.0))
    return OptimizationOutcome(argmax=_u_star(a), value=math.exp(a - 1.0) / a,
                               at_boundary=False, iterations=0, bracket=(0.0, 1.0))


def optimal_u_elementwise(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """optimal_u's argmax and at_boundary for each alpha of an array; the
    argmax is nan exactly where the scalar call raises (alpha not > 0, or
    math.exp overflowing in its value e^{a-1}/a)."""
    a = alpha * math.exp(-1.0)
    interior = a > 1.0
    u = np.where(alpha > 0.0, 0.0, np.nan)
    u[interior] = _interior_u(a[interior])
    big = np.flatnonzero(interior & ~(a - 1.0 <= 709.0))  # math.exp overflows above ~709.78
    u[big[np.isinf(exp_elementwise(a[big] - 1.0))]] = np.nan
    return u, ~interior


def optimal_split_full(j_coupling: float, n_spins: float, polarization_p: float,
                       gamma: float, tau_budget: float) -> OptimizationOutcome:
    """Maximize the squeeze-then-measure sensitivity over (T, t) in
    [0, tau_budget]^2.

    With s = T + t and U = T/s the objective factors exactly as
    sqrt(N) P sqrt(s) e^{-4 Gamma s} (1 - U) e^{cU}, c = J N P s e^{-4 Gamma s},
    so at fixed s the best U is (c - 1)/c (0 if c <= 1), clamped to the
    budget box max(0, 1 - tau/s) <= U <= min(1, tau/s).  Only s in
    [0, 2 tau] is searched, in two pieces: the box starts to bind at
    s = tau, a kink of the profile.  Diagnostics report 4 Gamma (T* + t*),
    which the strong-squeezing analysis predicts to sit near 1.
    """
    if tau_budget <= 0:
        raise ValueError("tau_budget must be positive")

    def split(s: float) -> tuple[float, float]:
        c = j_coupling * n_spins * polarization_p * s * math.exp(-4.0 * gamma * s)
        t_sq = min(max(_u_star(c) * s, s - tau_budget), tau_budget)
        return t_sq, min(s - t_sq, tau_budget)

    def profile(s: float) -> float:
        if s <= 0.0:
            return 0.0
        return snr_squeeze_then_measure(j_coupling, n_spins, polarization_p,
                                        gamma, *split(s)).snr_per_root_time

    pieces = [grid_then_golden(profile, lo, hi, tol=_SPLIT_TOL)
              for lo, hi in ((0.0, tau_budget), (tau_budget, 2.0 * tau_budget))]
    best = max(pieces, key=lambda out: out.value)  # first (smaller s) on ties
    t_sq, t_sig = split(best.argmax)
    edge = 4.0 * _SPLIT_TOL
    at_boundary = (t_sq <= edge or t_sig <= edge
                   or tau_budget - t_sq <= edge or tau_budget - t_sig <= edge)
    four_gamma_window = 4.0 * gamma * (t_sq + t_sig)
    return OptimizationOutcome(
        argmax=(t_sq, t_sig), value=best.value, at_boundary=at_boundary,
        iterations=sum(out.iterations for out in pieces), bracket=(0.0, tau_budget),
        diagnostics={"four_gamma_window": four_gamma_window,
                     "near_unit_window": bool(abs(four_gamma_window - 1.0) <= 0.2)})
