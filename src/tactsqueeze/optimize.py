"""Protocol optima: closed forms for Theta*, U* and the squeeze fraction.

The optimal squeeze window Theta* = 1 - W0(e/alpha) and the optimal
budget split U* = (a - 1)/a (a = alpha/e) are evaluated in closed form,
and Theta*'s stationarity residual is checked post hoc.  W0, the
principal Lambert branch, is evaluated in numpy: three Halley steps on
w e^w - x (Corless et al., Adv. Comput. Math. 5, 329 (1996), Sec. 4)
from Winitzki's log1p guess (LNCS 2667, 780 (2003)), within 1 ulp of 1
of a library Lambert W (the tests' reference) on alpha in (1, 1e300].
The full (T, t) split is the best of at most four candidate points,
one per stationarity equation on the budget box, each root found by
bisection to adjacent floats.  Ties break toward the smaller T + t.
Theta*, U* and the squeeze gain are closed forms of core.closed_form, as
in `analytic`, in numpy's arithmetic: their last bit can differ between
numpy SIMD targets (see `core`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import snr_squeeze_then_measure
from .core import DOMAIN, NON_FINITE, Checked, Status, check_field, closed_form
from .errors import DomainError, NonFiniteObjectiveError

__all__ = [
    "OptimizationOutcome",
    "optimal_theta", "optimal_u", "optimal_split_full",
    "squeeze_gain",
]

_STATIONARITY_TOL = 1e-8
_X_FALL = (3.0 - math.sqrt(5.0)) / 2.0  # x(1 - x)e^{-x} peaks here, falls to x = 1


@dataclass(frozen=True)
class OptimizationOutcome:
    """An optimum.  argmax: the maximizer, a float (an array over an array
    alpha) or (T*, t*) for the split; value: the objective there;
    at_boundary: whether argmax lies on the domain's boundary; iterations:
    how many times the objective was evaluated to find it, an int (0 for a
    closed form); diagnostics: the optimizer's checks by name, or None;
    status: a closed form's core.Status over an array alpha, else None."""
    argmax: float | tuple[float, float]
    value: float
    at_boundary: bool
    iterations: int
    diagnostics: dict | None = None
    status: Status | None = None


@closed_form
def squeeze_gain(theta: float, alpha: float) -> float:
    """g(Theta) = Theta (alpha e^{-Theta} - 1); xi^2 = e^{-g}/P.

    Evaluated as Theta expm1(ln alpha - Theta): near threshold alpha e^{-Theta}
    is within rounding of 1, and the plain difference loses every digit.
    Outside the domain unless alpha > 0.
    """
    status = Status(alpha.shape).flag(~(alpha > 0.0), DOMAIN,
                                      "squeeze_gain requires alpha > 0, got {}", alpha)
    return Checked(status.nan(theta * np.expm1(np.log(alpha) - theta)), status)


@closed_form
def optimal_theta(alpha) -> OptimizationOutcome:
    """Maximize the squeezing gain g(Theta) over Theta >= 0 in closed form.

    Boundary Theta* = 0 iff alpha <= 1 (sign of g'(0) = alpha - 1).  An
    interior optimum solves alpha e^{-Theta}(1 - Theta) = 1, i.e.
    Theta* = 1 - W0(e/alpha) on the principal Lambert W branch (Corless et
    al., Adv. Comput. Math. 5, 329 (1996)), so Theta* lies in (0, 1); W0
    is `_lambert_w0`'s three Halley steps.  The stationarity residual is
    checked to 1e-8 post hoc; above it NON_FINITE fails, at abscissa Theta*.
    Outside the domain at alpha = inf or nan.  Diagnostics are None if every Theta* = 0.
    """
    status = Status(alpha.shape).flag(alpha == math.inf, DOMAIN,
                                      "noiseless case (alpha infinite) has no interior optimum")
    status.flag(np.isnan(alpha), DOMAIN, "requires a number alpha, got {}", alpha)
    at_boundary = alpha <= 1.0  # alpha = -inf included: g(Theta) = -inf for Theta > 0
    interior = ~at_boundary & (alpha != math.inf)
    theta, residual = np.where(at_boundary, 0.0, np.nan), np.full(alpha.shape, np.nan)
    theta[interior], residual[interior] = _theta_star(alpha[interior])
    failed = residual > _STATIONARITY_TOL
    status.flag(failed, NON_FINITE, "stationarity residual {:.3e} exceeds 1e-8", residual,
                abscissa=theta)
    theta = status.nan(theta)
    value, kept = theta.copy(), interior & ~failed
    value[kept] = squeeze_gain(theta[kept], alpha[kept]).value
    diagnostics = None if at_boundary.all() else {"stationarity_residual": residual}
    return OptimizationOutcome(theta, value, at_boundary, 0, diagnostics, status)


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
    return theta, np.abs(alpha * np.exp(-theta) * (1.0 - theta) - 1.0)


@closed_form
def optimal_u(alpha) -> OptimizationOutcome:
    """Maximize h(U) = (1 - U) exp(a U), a = alpha/e, over U in [0, 1).

    h'(U) = e^{aU}(a(1 - U) - 1), so for a > 1 the optimum is
    U* = (a - 1)/a with h(U*) = e^{a-1}/a; otherwise U* = 0 at the
    boundary.  Outside the domain unless alpha is finite and > 0; OVERFLOW
    where e^{a-1} overflows.
    """
    status = Status(alpha.shape).flag(np.isinf(alpha), DOMAIN,
                                      "noiseless case (alpha infinite) has no interior optimum")
    status.flag(~(alpha > 0.0), DOMAIN, "requires alpha > 0, got {}", alpha)
    a = alpha * math.exp(-1.0)
    interior = a > 1.0
    growth = status.exp(np.where(interior, a - 1.0, 0.0))  # overflows above ~709.78
    u = status.nan(np.where(interior, (a - 1.0) / a, 0.0))
    value = status.nan(np.where(interior, growth / a, 1.0))
    return OptimizationOutcome(u, value, a <= 1.0, 0, None, status)


def _bisect(sign, lo: float, hi: float) -> float:
    """Where `sign`, positive next to lo and then not up to hi, changes
    sign, to adjacent floats.  Evaluates only points strictly inside."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if sign(mid) > 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return lo


def optimal_split_full(j_coupling: float, n_spins: int, polarization_p: float,
                       gamma: float, tau_budget: float) -> OptimizationOutcome:
    """Maximize the squeeze-then-measure sensitivity f over (T, t) in
    [0, tau_budget]^2: the best of at most four candidates.

    In units of tau, with k = J N P tau, g = 4 Gamma tau and s = T + t,
    ln f = ln t - (ln s)/2 - gs + kT e^{-gs} + const on the unit box, and
    f = 0 at t = 0.  Each root below is bisected on its equation times
    e^{-gs}, which cannot overflow and divides by neither Gamma nor J.
    - Interior.  d/dT = d/dt gives t = e^{gs}/k (at fixed s, ln f is
      concave in t); then d/dt = 0 gives 2ks(1 - gs)e^{-gs} = 1, i.e.
      alpha x(1 - x)e^{-x} = 1/2 at x = gs, alpha = k/g.  Along that
      curve ln f rises where the left side exceeds 1/2, so the maximum is
      the root where x(1 - x)e^{-x} falls, x in ((3 - sqrt 5)/2, 1),
      kept where 0 < T <= 1 and t <= 1 (T > 0 is c = s/t > 1, x > 1/2).
    - Edge T = 0: ln f = (ln t)/2 - gt + const, so t = min(1, 1/(2g)).
    - Edge T = 1: d/dt has the sign of w(t) = e^{g(1+t)}(A - g) - gk,
      A = 1/t - 1/(2(1+t)).  With u = 1/t > v = 1/(1+t),
      e^{-g(1+t)} w' = g(A - g) + A' = -[(u - g)^2 + g^2 + u^2 - v^2
      + gv]/2 < 0, so t is w's one root, or the corner t = 1 if w(1) >= 0.
    - Edge t = 1: d/dT has the sign of phi(T) = k(1 - gT)
      - e^{g(1+T)}(g + 1/(2(1+T))), concave because e^y(1 + 1/(2y)) is
      convex for y > 0 (its second derivative is e^y(1 + z/2 - z^2 + z^3),
      z = 1/y, and z^3 - z^2 + z/2 rises from 0).  So phi > 0 on one
      interval, whose right end is the edge's maximum off the corners:
      bisect phi' for the peak, then phi right of it.  Before that
      maximum the edge can have a minimum.
    The best candidate wins, ties going to the smaller s; at_boundary is
    false only if the interior one wins, and iterations counts objective
    evaluations.  Diagnostics report 4 Gamma (T* + t*), which the
    strong-squeezing analysis predicts to sit near 1.  Raises ValueError
    for an invalid field or a tau_budget that is not finite and positive,
    and NonFiniteObjectiveError where the best value is inf or the
    objective's divisor underflows.
    """
    for name, value in (("j_coupling", j_coupling), ("n_spins", n_spins),
                        ("polarization_p", polarization_p), ("gamma", gamma)):
        violation = check_field(name, value)
        if violation is not None:
            raise ValueError(violation.message)
    if not (math.isfinite(tau_budget) and tau_budget > 0.0):
        raise ValueError(f"tau_budget must be finite and positive, got {tau_budget}")
    k = j_coupling * n_spins * polarization_p * tau_budget
    g = 4.0 * gamma * tau_budget

    def d_t(t):  # d ln f/dt at T = 1: e^{-gs} w
        return 1.0 / t - 0.5 / (1.0 + t) - g - g * k * math.exp(-g * (1.0 + t))

    def d_T(T):  # d ln f/dT at t = 1: e^{-gs} phi
        return k * math.exp(-g * (1.0 + T)) * (1.0 - g * T) - g - 0.5 / (1.0 + T)

    def balance(x):  # g (2 alpha x(1 - x)e^{-x} - 1)
        return 2.0 * k * x * (1.0 - x) * math.exp(-x) - g

    def phi_slope(T):  # e^{-gs} phi'
        s = 1.0 + T
        return 0.5 / s ** 2 - g * k * math.exp(-g * s) - g * g - 0.5 * g / s

    candidates = [(0.0, 1.0 if 2.0 * g <= 1.0 else 0.5 / g),
                  (1.0, 1.0 if d_t(1.0) >= 0.0 else _bisect(d_t, 0.0, 1.0))]
    peak = _bisect(phi_slope, 0.0, 1.0) if phi_slope(0.0) > 0.0 else 0.0
    if d_T(peak) > 0.0 > d_T(1.0):
        candidates.append((_bisect(d_T, peak, 1.0), 1.0))
    interior = None
    if g > 0.0 and balance(_X_FALL) > 0.0:
        x = _bisect(balance, _X_FALL, 1.0)
        t = math.exp(x) / k
        if 0.0 < x / g - t <= 1.0 and t <= 1.0:  # the squeeze time x/g - t
            interior = (x / g - t, t)
            candidates.append(interior)

    def evaluate(T, t):
        try:
            return snr_squeeze_then_measure(j_coupling, n_spins, polarization_p, gamma,
                                            T * tau_budget, t * tau_budget).snr_per_root_time
        except DomainError:  # its divisor e^{-J N P_eff T} underflows: f is inf
            return math.inf

    values = [evaluate(*c) for c in candidates]
    best = max(range(len(values)), key=lambda i: (values[i], -sum(candidates[i])))
    t_sq, t_sig = (x * tau_budget for x in candidates[best])
    if not math.isfinite(values[best]):
        raise NonFiniteObjectiveError(f"objective non-finite at (T, t) = ({t_sq}, {t_sig})",
                                      abscissa=(t_sq, t_sig))
    four_gamma_window = 4.0 * gamma * (t_sq + t_sig)
    return OptimizationOutcome(
        argmax=(t_sq, t_sig), value=values[best],
        at_boundary=candidates[best] is not interior, iterations=len(values),
        diagnostics={"four_gamma_window": four_gamma_window,
                     "near_unit_window": bool(abs(four_gamma_window - 1.0) <= 0.2)})
