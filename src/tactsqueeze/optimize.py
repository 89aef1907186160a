"""Protocol optima: closed forms for Theta*, U* and the squeeze fraction.

The optimal squeeze window Theta* = 1 - W0(e/alpha) and the optimal
budget split U* = (a - 1)/a (a = alpha/e) are evaluated in closed form,
and Theta*'s stationarity residual is checked post hoc.  W0, the
principal Lambert branch, is evaluated in numpy: three Halley steps on
w e^w - x (Corless et al., Adv. Comput. Math. 5, 329 (1996), Sec. 4)
from Winitzki's log1p guess (LNCS 2667, 780 (2003)), within 1 ulp of 1
of a library Lambert W (the tests' reference) on alpha in (1, 1e300].
The full (T, t) split reduces to a 1-D window search, split in closed
form: at fixed s = T + t the squeeze fraction T/s is the same (c - 1)/c,
clamped to the budget, so only s is searched (grid, then golden
section).  Plateau ties break toward the smallest argmax.
`grid_then_golden` stays public as the numerical reference the closed
forms are tested against.

Theta* and U* take a float alpha or a numpy array, as the `analytic`
formulas do: over an array the outcome's argmax, value and at_boundary
are arrays whose elements have the float call's bits, and the argmax is
nan exactly where the float call raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import snr_squeeze_then_measure
from .core import check_domain, exp_elementwise
from .errors import NonFiniteObjectiveError

__all__ = [
    "OptimizationOutcome",
    "maximize_scalar", "grid_then_golden",
    "optimal_theta", "optimal_u", "optimal_split_full",
    "squeeze_gain",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_STATIONARITY_TOL = 1e-8
_SPLIT_TOL = 1e-9  # optimal_split_full's golden-section tolerance on s = T + t
_GRID_POINTS = 512  # grid_then_golden's coarse scan


@dataclass(frozen=True)
class OptimizationOutcome:
    argmax: float | tuple[float, float]
    value: float
    at_boundary: bool
    iterations: int
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
    at_boundary = x - lo <= 4.0 * tol or hi - x <= 4.0 * tol
    return OptimizationOutcome(argmax=x, value=fx, at_boundary=at_boundary,
                               iterations=iterations)


def grid_then_golden(objective: Callable[[float], float], lo: float, hi: float,
                     tol: float = 1e-10) -> OptimizationOutcome:
    """Coarse scan of _GRID_POINTS points, then golden refinement around the best cell.

    Robust for objectives that are not globally unimodal.
    """
    xs = np.linspace(lo, hi, _GRID_POINTS)
    ys = [_eval(objective, float(x)) for x in xs]
    best = int(np.argmax(ys))  # argmax picks the first (smallest) on ties
    a = float(xs[max(0, best - 1)])
    b = float(xs[min(_GRID_POINTS - 1, best + 1)])
    inner = maximize_scalar(objective, a, b, tol)
    at_boundary = abs(inner.argmax - lo) <= 4.0 * tol or abs(inner.argmax - hi) <= 4.0 * tol
    return OptimizationOutcome(argmax=inner.argmax, value=inner.value,
                               at_boundary=at_boundary,
                               iterations=inner.iterations + _GRID_POINTS)


def squeeze_gain(theta: float, alpha: float) -> float:
    """g(Theta) = Theta (alpha e^{-Theta} - 1); xi^2 = e^{-g}/P; alpha > 0.

    Evaluated as Theta expm1(ln alpha - Theta): near threshold alpha e^{-Theta}
    is within rounding of 1, and the plain difference loses every digit.
    """
    return theta * math.expm1(math.log(alpha) - theta)


def _outcome(alpha, argmax, value, at_boundary, diagnostics=None) -> OptimizationOutcome:
    """A closed-form optimum over `alpha`: argmax, value, at_boundary and
    each diagnostic an array for an array alpha, else floats with no
    diagnostics at the boundary.  No search runs: iterations is the int 0."""
    if isinstance(alpha, np.ndarray):
        return OptimizationOutcome(argmax, value, at_boundary, 0, diagnostics)
    at_boundary = bool(at_boundary)
    floats = None if at_boundary or diagnostics is None else {
        key: float(v) for key, v in diagnostics.items()}
    return OptimizationOutcome(float(argmax), float(value), at_boundary, 0, floats)


def optimal_theta(alpha) -> OptimizationOutcome:
    """Maximize the squeezing gain g(Theta) over Theta >= 0 in closed form,
    for a float alpha or for each element of an array.

    Boundary Theta* = 0 iff alpha <= 1 (sign of g'(0) = alpha - 1).  An
    interior optimum solves alpha e^{-Theta}(1 - Theta) = 1, i.e.
    Theta* = 1 - W0(e/alpha) on the principal Lambert W branch (Corless et
    al., Adv. Comput. Math. 5, 329 (1996)), so Theta* lies in (0, 1); W0
    is `_lambert_w0`'s three Halley steps.  The stationarity residual is
    checked to 1e-8 post hoc.  A float alpha = inf raises DomainError and
    a residual above tolerance NonFiniteObjectiveError; over an array
    those elements' argmax and value are nan.
    """
    check_domain(alpha == math.inf, "noiseless case (alpha infinite) has no interior optimum")
    x = np.asarray(alpha, dtype=float)
    at_boundary = x <= 1.0  # alpha = -inf included: g(Theta) = -inf for Theta > 0
    interior = ~at_boundary & (x != math.inf)
    theta, residual = np.where(at_boundary, 0.0, np.nan), np.full(x.shape, np.nan)
    theta[interior], residual[interior] = _theta_star(x[interior])
    failed = residual > _STATIONARITY_TOL
    if failed.any() and not isinstance(alpha, np.ndarray):
        raise NonFiniteObjectiveError(
            f"stationarity residual {float(residual):.3e} exceeds 1e-8", abscissa=float(theta))
    theta[failed] = np.nan
    value, kept = theta.copy(), interior & ~failed
    value[kept] = np.fromiter(map(squeeze_gain, theta[kept].tolist(), x[kept].tolist()), float)
    return _outcome(alpha, theta, value, at_boundary, {"stationarity_residual": residual})


def _lambert_w0(x: np.ndarray) -> np.ndarray:
    """W0(x) for x > 0: Halley's iteration on f(w) = w e^w - x (Corless et al.
    1996, Sec. 4) from Winitzki's guess L (1 - log1p(L)/(2 + L)), L = log1p(x),
    a fixed 3 steps (cubic convergence from a guess good to ~1e-2)."""
    lx = np.log1p(x)
    w = lx * (1.0 - np.log1p(lx) / (2.0 + lx))
    for _ in range(3):
        ew = np.exp(w)
        f = w * ew - x
        w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def _theta_star(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 - W0(e/alpha) and its stationarity residual, elementwise."""
    theta = 1.0 - _lambert_w0(math.e / alpha)
    return theta, np.abs(alpha * exp_elementwise(-theta) * (1.0 - theta) - 1.0)


def _u_star(a: float) -> float:
    """Argmax of (1 - U) e^{aU} over U >= 0; 0 unless a > 1."""
    return (a - 1.0) / a if a > 1.0 else 0.0


def optimal_u(alpha) -> OptimizationOutcome:
    """Maximize h(U) = (1 - U) exp(a U), a = alpha/e, over U in [0, 1), for
    a float alpha or for each element of an array.

    h'(U) = e^{aU}(a(1 - U) - 1), so for a > 1 the optimum is
    U* = (a - 1)/a with h(U*) = e^{a-1}/a; otherwise U* = 0 at the
    boundary.  A float alpha raises DomainError unless it is finite and
    > 0, and math.exp's OverflowError where e^{a-1} overflows; over an
    array those elements' argmax and value are nan.
    """
    check_domain(np.isinf(alpha), "noiseless case (alpha infinite) has no interior optimum")
    check_domain(np.logical_not(alpha > 0.0), "requires alpha > 0, got {}", alpha)
    x = np.asarray(alpha, dtype=float)
    a = x * math.exp(-1.0)
    defined = (x > 0.0) & (x != math.inf)
    interior = defined & (a > 1.0)
    u, value = np.where(defined, 0.0, np.nan), np.where(defined, 1.0, np.nan)
    u[interior] = (a[interior] - 1.0) / a[interior]
    value[interior] = exp_elementwise(a[interior] - 1.0) / a[interior]
    overflow = np.isinf(value)  # math.exp overflows above ~709.78
    if overflow.any() and not isinstance(alpha, np.ndarray):
        raise OverflowError("math range error")  # as math.exp(a - 1) raises it
    u[overflow] = value[overflow] = np.nan
    return _outcome(alpha, u, value, a <= 1.0)


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
        iterations=sum(out.iterations for out in pieces),
        diagnostics={"four_gamma_window": four_gamma_window,
                     "near_unit_window": bool(abs(four_gamma_window - 1.0) <= 0.2)})
