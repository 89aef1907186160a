"""Closed-form squeezing and signal-to-noise expressions.

Every formula is evaluated exactly as printed, including where its
consistency with the Gaussian dynamics is questionable; cross-engine
comparisons are diagnostics, never corrections.

The formulas also take numpy arrays (a grid of points), elementwise and
with the bits of the scalar call: exp goes through math.exp one element
at a time (core.exp_any).  An array call raises no DomainError; the rows
where a scalar call would raise hold nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SQUEEZE_THEN_MEASURE, check_domain, exp_any, nan_outside,
                   sqrt_any, squeeze_to_noise)
from .errors import DomainError

__all__ = [
    "SqueezeFormulaResult", "SnrResult",
    "xi2_min", "xi2_min_dimensionless", "xi2_strong_squeezing",
    "snr_squeeze_while_measure", "snr_squeeze_then_measure",
    "snr_optimum_strong", "improvement_factor",
    "SUB_THRESHOLD", "SQUEEZING", "STRONG",
]

SUB_THRESHOLD = "sub_threshold"
SQUEEZING = "squeezing"
STRONG = "strong"

# Labeling thresholds only; never used to branch the math.
_STRONG_ALPHA = 10.0


def _regime(alpha: float) -> str:
    if isinstance(alpha, np.ndarray):
        # a nan alpha, where a scalar call raises, reads squeezing here
        return np.select([np.isinf(alpha), alpha <= 1.0, alpha >= _STRONG_ALPHA],
                         [STRONG, SUB_THRESHOLD, STRONG], SQUEEZING)
    if math.isinf(alpha):
        return STRONG
    if math.isnan(alpha):
        raise DomainError("alpha is NaN: the regime is undefined")
    if alpha <= 1.0:
        return SUB_THRESHOLD
    if alpha >= _STRONG_ALPHA:
        return STRONG
    return SQUEEZING


@dataclass(frozen=True)
class SqueezeFormulaResult:
    xi2: float
    exponent_arg: float  # Theta * (alpha e^{-Theta} - 1), dimensionless
    regime: str


WHILE_MEASURING = "while_measuring"
UNSQUEEZED = "unsqueezed"


@dataclass(frozen=True)
class SnrResult:
    snr_per_root_time: float
    protocol: str
    u_split: float | None = None


def xi2_min(j_coupling: float, n_spins: float, polarization_p: float,
            gamma: float, t_squeeze: float) -> SqueezeFormulaResult:
    """xi^2_min = exp(-J N P e^{-4 Gamma T} T) / (P e^{-4 Gamma T}).

    Outside the domain where the divisor underflows to 0 (4 Gamma T above ~745).
    """
    decay = exp_any(-4.0 * gamma * t_squeeze)
    kappa_t = j_coupling * n_spins * polarization_p * decay * t_squeeze
    p_eff = polarization_p * decay
    underflow = p_eff == 0.0
    check_domain(underflow, "xi2_min divides by P e^{{-4 Gamma T}} = 0 "
                 "(underflow at 4 Gamma T = {})", 4.0 * gamma * t_squeeze)
    xi2 = nan_outside(underflow, exp_any(-kappa_t) / p_eff)
    # identical to Theta*(alpha e^{-Theta} - 1) after substitution
    exponent = kappa_t - 4.0 * gamma * t_squeeze
    alpha = squeeze_to_noise(j_coupling, n_spins, polarization_p, gamma)
    return SqueezeFormulaResult(xi2=xi2, exponent_arg=exponent, regime=_regime(alpha))


def xi2_min_dimensionless(alpha: float, theta: float,
                          polarization_p: float) -> SqueezeFormulaResult:
    """xi^2_min = P^{-1} exp(-Theta [alpha e^{-Theta} - 1]).

    Outside the domain at alpha = inf with Theta = 0, where the exponent is
    0 * inf; at Theta > 0 an infinite alpha gives the limit xi^2 = 0.
    """
    undefined = np.isinf(alpha) & (theta == 0.0)
    check_domain(undefined, "xi2_min_dimensionless is undefined at alpha = inf, "
                 "Theta = 0 (0 * inf in the exponent)")
    exponent = nan_outside(undefined, theta * (alpha * exp_any(-theta) - 1.0))
    xi2 = exp_any(-exponent) / polarization_p
    return SqueezeFormulaResult(xi2=xi2, exponent_arg=exponent, regime=_regime(alpha))


def xi2_strong_squeezing(alpha: float, polarization_p: float) -> float:
    """Strong-squeezing asymptote P^{-1} exp(-[alpha/e - 1]); the Theta = 1
    slice of the dimensionless form.  Valid only for alpha > 1."""
    if not alpha > 1.0:
        raise DomainError(f"strong-squeezing asymptote requires alpha > 1, got {alpha}")
    return math.exp(-(alpha * math.exp(-1.0) - 1.0)) / polarization_p


def snr_squeeze_while_measure(j_coupling: float, n_spins: float,
                              polarization_p: float, gamma: float,
                              t_squeeze: float) -> SnrResult:
    """Squeeze-while-measuring sensitivity, evaluated exactly as printed:

    (1/sqrt(tau)) dS/dB = sqrt(2)/(J sqrt(T N))
        * [1 - exp(-J N P e^{-4 Gamma T} T)] / exp(-[J N P T - 1] e^{-4 Gamma T})

    Outside the domain where a divisor underflows to 0 (for instance
    [J N P T - 1] e^{-4 Gamma T} above ~745).
    """
    undefined = (j_coupling <= 0.0) | (t_squeeze <= 0.0)
    check_domain(undefined, "snr_squeeze_while_measure requires J > 0 and T > 0")
    decay = exp_any(-4.0 * gamma * t_squeeze)
    jnpt = j_coupling * n_spins * polarization_p * t_squeeze
    numer = 1.0 - exp_any(-jnpt * decay)
    denom = exp_any(-(jnpt - 1.0) * decay)
    scale = j_coupling * sqrt_any(t_squeeze * n_spins)
    underflow = (scale == 0.0) | (denom == 0.0)
    check_domain(underflow, "snr_squeeze_while_measure divides by an underflowed 0: "
                 "J sqrt(T N) = {} and exp(-(J N P T - 1) e^{{-4 Gamma T}}) = {}", scale, denom)
    pref = math.sqrt(2.0) / scale
    return SnrResult(nan_outside(undefined | underflow, pref * numer / denom), WHILE_MEASURING)


def snr_squeeze_then_measure(j_coupling: float, n_spins: float,
                             polarization_p: float, gamma: float,
                             t_squeeze: float, t_signal: float) -> SnrResult:
    """Squeeze-then-measure sensitivity:

    (1/sqrt(tau)) dS/dB = t sqrt(N)/sqrt(T + t)
        * P e^{-4 Gamma (T + t)} / exp(-J N P e^{-4 Gamma (T + t)} T)

    T = 0 is the unsqueezed baseline.  Outside the domain where the divisor
    underflows to 0 (J N P e^{-4 Gamma (T + t)} T above ~745).
    """
    undefined = (t_squeeze < 0.0) | (t_signal < 0.0) | (t_squeeze + t_signal <= 0.0)
    check_domain(undefined, "requires T >= 0, t >= 0 and T + t > 0")
    p_eff = polarization_p * exp_any(-4.0 * gamma * (t_squeeze + t_signal))
    kappa_t = j_coupling * n_spins * p_eff * t_squeeze
    gain = exp_any(-kappa_t)
    underflow = gain == 0.0
    check_domain(underflow, "snr_squeeze_then_measure divides by exp(-J N P_eff T) = 0 "
                 "(underflow at J N P_eff T = {})", kappa_t)
    val = (t_signal * sqrt_any(n_spins) / sqrt_any(t_squeeze + t_signal)
           * p_eff / gain)
    unsqueezed = t_squeeze == 0.0
    if isinstance(unsqueezed, np.ndarray):
        protocol = np.where(unsqueezed, UNSQUEEZED, SQUEEZE_THEN_MEASURE)
    else:
        protocol = UNSQUEEZED if unsqueezed else SQUEEZE_THEN_MEASURE
    u_split = 4.0 * gamma * t_squeeze
    return SnrResult(nan_outside(undefined | underflow, val), protocol, u_split=u_split)


def snr_optimum_strong(alpha: float, n_spins: float, gamma: float,
                       polarization_p: float) -> SnrResult:
    """Closed-form optimum of the split protocol in the alpha >> 1 slice:

    (1/sqrt(tau)) dS_max/dB = sqrt(N)/sqrt(4 Gamma) * P/alpha / exp(-[alpha/e - 1]),
    at U_max = (alpha/e - 1)/(alpha/e).  Requires alpha/e > 1.  Outside the
    domain where the divisor underflows to 0 (alpha/e - 1 above ~745).
    """
    a = alpha * math.exp(-1.0)
    undefined = np.logical_not(a > 1.0)
    check_domain(undefined, "no interior optimum: alpha/e = {} <= 1", a)
    u_max = (a - 1.0) / a
    gain = exp_any(-(a - 1.0))
    underflow = gain == 0.0
    check_domain(underflow, "snr_optimum_strong divides by exp(-(alpha/e - 1)) = 0 "
                 "(underflow at alpha/e = {})", a)
    val = (sqrt_any(n_spins) / sqrt_any(4.0 * gamma)
           * polarization_p / alpha / gain)
    return SnrResult(nan_outside(undefined | underflow, val), SQUEEZE_THEN_MEASURE,
                     u_split=u_max)


def improvement_factor(alpha: float) -> float:
    """Metrological gain over the unsqueezed baseline: exp(alpha/e)/alpha."""
    undefined = np.logical_not((alpha > 0.0) & np.isfinite(alpha))
    check_domain(undefined, "improvement factor needs finite alpha > 0, got {}", alpha)
    return nan_outside(undefined, exp_any(alpha * math.exp(-1.0)) / alpha)
