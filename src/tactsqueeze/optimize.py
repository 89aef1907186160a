"""Protocol optima: closed forms for Theta* and U*, a search for the 2-D split.

The optimal squeeze window Theta* = 1 - W0(e/alpha) and the optimal
budget split U* = (a - 1)/a (a = alpha/e) are evaluated in closed form,
and their stationarity residuals are checked post hoc.  Only the full
(T, t) split, which has no closed form, is searched: a coarse grid, then
alternating golden-section refinement.  Plateau ties break toward the
smallest argmax.  `grid_then_golden` stays public as the numerical
reference the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import snr_squeeze_then_measure
from .errors import DomainError, NonFiniteObjectiveError

__all__ = [
    "OptimizationOutcome",
    "maximize_scalar", "grid_then_golden",
    "optimal_theta", "optimal_u", "optimal_split_full",
    "squeeze_gain",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    argmax (a constant objective reports the boundary at lo).
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
    while b - a > tol:
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


def optimal_theta(alpha: float | None, polarization_p: float) -> OptimizationOutcome:
    """Maximize the squeezing gain g(Theta) over Theta >= 0 in closed form.

    Boundary Theta* = 0 iff alpha <= 1 (sign of g'(0) = alpha - 1).  An
    interior optimum solves alpha e^{-Theta}(1 - Theta) = 1, i.e.
    Theta* = 1 - W0(e/alpha) on the principal Lambert W branch (Corless et
    al., Adv. Comput. Math. 5, 329 (1996)), so Theta* lies in (0, 1).  The
    stationarity residual is checked to 1e-8 post hoc.
    """
    if alpha is None or math.isinf(alpha):
        raise DomainError("noiseless case (alpha infinite) has no interior optimum")
    if alpha <= 1.0:
        return OptimizationOutcome(argmax=0.0, value=0.0, at_boundary=True,
                                   iterations=0, bracket=(0.0, 1.0))
    # imported here: scipy costs ~0.3 s at `import tactsqueeze`, which the
    # exact-engine commands never need
    from scipy.special import lambertw
    theta = 1.0 - float(lambertw(math.e / alpha).real)
    residual = abs(alpha * math.exp(-theta) * (1.0 - theta) - 1.0)
    if residual > 1e-8:
        raise NonFiniteObjectiveError(
            f"stationarity residual {residual:.3e} exceeds 1e-8", abscissa=theta)
    return OptimizationOutcome(argmax=theta, value=squeeze_gain(theta, alpha),
                               at_boundary=False, iterations=0, bracket=(0.0, 1.0),
                               diagnostics={"stationarity_residual": residual})


def optimal_u(alpha: float | None) -> OptimizationOutcome:
    """Maximize h(U) = (1 - U) exp(a U), a = alpha/e, over U in [0, 1).

    h'(U) = e^{aU}(a(1 - U) - 1), so for a > 1 the optimum is
    U* = (a - 1)/a with h(U*) = e^{a-1}/a; otherwise U* = 0 at the
    boundary.
    """
    if alpha is None or math.isinf(alpha):
        raise DomainError("noiseless case (alpha infinite) has no interior optimum")
    if not (alpha > 0.0):
        raise DomainError(f"requires alpha > 0, got {alpha}")
    a = alpha * math.exp(-1.0)
    if a <= 1.0:
        return OptimizationOutcome(argmax=0.0, value=1.0, at_boundary=True,
                                   iterations=0, bracket=(0.0, 1.0))
    return OptimizationOutcome(argmax=(a - 1.0) / a, value=math.exp(a - 1.0) / a,
                               at_boundary=False, iterations=0, bracket=(0.0, 1.0))


def optimal_split_full(j_coupling: float, n_spins: float, polarization_p: float,
                       gamma: float, tau_budget: float,
                       n_grid: int = 256, refine_rounds: int = 40,
                       tol: float = 1e-9) -> OptimizationOutcome:
    """Maximize the squeeze-then-measure sensitivity over (T, t) in
    [0, tau_budget]^2 by coarse grid plus alternating golden refinement.

    Diagnostics report 4 Gamma (T* + t*), which the strong-squeezing
    analysis predicts to sit near 1.
    """
    if tau_budget <= 0:
        raise ValueError("tau_budget must be positive")

    def objective(t_sq: float, t_sig: float) -> float:
        if t_sq + t_sig <= 0.0 or t_sig < 0.0 or t_sq < 0.0:
            return 0.0
        return snr_squeeze_then_measure(j_coupling, n_spins, polarization_p,
                                        gamma, t_sq, t_sig).snr_per_root_time

    xs = np.linspace(0.0, tau_budget, n_grid)
    vals = np.array([[objective(float(t_sq), float(t_sig)) for t_sig in xs]
                     for t_sq in xs])
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    t_sq, t_sig = float(xs[i]), float(xs[j])
    step = float(xs[1] - xs[0])
    iterations = n_grid * n_grid
    for _ in range(refine_rounds):
        lo = max(0.0, t_sq - step)
        hi = min(tau_budget, t_sq + step)
        out = maximize_scalar(lambda x: objective(x, t_sig), lo, hi, tol)
        t_sq = float(out.argmax)
        lo = max(0.0, t_sig - step)
        hi = min(tau_budget, t_sig + step)
        out2 = maximize_scalar(lambda x: objective(t_sq, x), lo, hi, tol)
        t_sig = float(out2.argmax)
        iterations += out.iterations + out2.iterations
        step /= 2.0
        if step < tol:
            break
    value = objective(t_sq, t_sig)
    edge = 4.0 * tol
    at_boundary = (t_sq <= edge or t_sig <= edge
                   or tau_budget - t_sq <= edge or tau_budget - t_sig <= edge)
    four_gamma_window = 4.0 * gamma * (t_sq + t_sig)
    return OptimizationOutcome(
        argmax=(t_sq, t_sig), value=value, at_boundary=at_boundary,
        iterations=iterations, bracket=(0.0, tau_budget),
        diagnostics={"four_gamma_window": four_gamma_window,
                     "near_unit_window": bool(abs(four_gamma_window - 1.0) <= 0.2)})
