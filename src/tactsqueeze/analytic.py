"""Closed-form squeezing and signal-to-noise expressions.

Every formula is evaluated exactly as printed, including where its
consistency with the Gaussian dynamics is questionable; cross-engine
comparisons are diagnostics, never corrections.

Each formula is one body over numpy arrays (core.closed_form): an array
call returns nan where a float call raises, and a core.Status (`status`, or
a core.Checked for a bare value) says what it raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DOMAIN, SQUEEZE_THEN_MEASURE, Checked, Status, closed_form,
                   squeeze_to_noise)

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


def _regime(alpha: np.ndarray, status: Status) -> np.ndarray:
    """Each alpha's label; a nan alpha fails DOMAIN in `status`."""
    status.flag(np.isnan(alpha), DOMAIN, "alpha is NaN: the regime is undefined")
    return np.select([np.isinf(alpha), alpha <= 1.0, alpha >= _STRONG_ALPHA],
                     [STRONG, SUB_THRESHOLD, STRONG], SQUEEZING)


@dataclass(frozen=True)
class SqueezeFormulaResult:
    xi2: float
    exponent_arg: float  # Theta * (alpha e^{-Theta} - 1), dimensionless
    regime: str
    status: Status | None = None  # an array call's; None from a float call


WHILE_MEASURING = "while_measuring"
UNSQUEEZED = "unsqueezed"


@dataclass(frozen=True)
class SnrResult:
    snr_per_root_time: float
    protocol: str
    u_split: float | None = None
    status: Status | None = None  # an array call's; None from a float call


@closed_form
def xi2_min(j_coupling: float, n_spins: float, polarization_p: float,
            gamma: float, t_squeeze: float) -> SqueezeFormulaResult:
    """xi^2_min = exp(-J N P e^{-4 Gamma T} T) / (P e^{-4 Gamma T}).

    Outside the domain where the divisor underflows to 0 (4 Gamma T above ~745).
    """
    status, theta = Status(gamma.shape), 4.0 * gamma * t_squeeze
    decay = status.exp(-theta)
    kappa_t = j_coupling * n_spins * polarization_p * decay * t_squeeze
    p_eff = polarization_p * decay
    status.flag(p_eff == 0.0, DOMAIN, "xi2_min divides by P e^{{-4 Gamma T}} = 0 "
                "(underflow at 4 Gamma T = {})", theta)
    xi2 = status.exp(-kappa_t) / p_eff
    # the exponent kappa T - Theta is Theta*(alpha e^{-Theta} - 1)
    regime = _regime(squeeze_to_noise(j_coupling, n_spins, polarization_p, gamma), status)
    return SqueezeFormulaResult(status.nan(xi2), kappa_t - theta, regime, status)


@closed_form
def xi2_min_dimensionless(alpha: float, theta: float,
                          polarization_p: float) -> SqueezeFormulaResult:
    """xi^2_min = P^{-1} exp(-Theta [alpha e^{-Theta} - 1]).

    Outside the domain at alpha = inf with Theta = 0, where the exponent is
    0 * inf; at Theta > 0 an infinite alpha gives the limit xi^2 = 0.
    """
    status = Status(alpha.shape).flag(np.isinf(alpha) & (theta == 0.0), DOMAIN,
                                      "xi2_min_dimensionless is undefined at alpha = inf, "
                                      "Theta = 0 (0 * inf in the exponent)")
    exponent = status.nan(theta * (alpha * status.exp(-theta) - 1.0))
    xi2 = status.exp(-exponent) / polarization_p
    return SqueezeFormulaResult(status.nan(xi2), exponent, _regime(alpha, status), status)


@closed_form
def xi2_strong_squeezing(alpha: float, polarization_p: float) -> float:
    """Strong-squeezing asymptote P^{-1} exp(-[alpha/e - 1]); the Theta = 1
    slice of the dimensionless form.  Valid only for alpha > 1."""
    status = Status(alpha.shape).flag(~(alpha > 1.0), DOMAIN, "strong-squeezing asymptote "
                                      "requires alpha > 1, got {}", alpha)
    xi2 = status.exp(-(alpha * math.exp(-1.0) - 1.0)) / polarization_p
    return Checked(status.nan(xi2), status)


@closed_form
def snr_squeeze_while_measure(j_coupling: float, n_spins: float,
                              polarization_p: float, gamma: float,
                              t_squeeze: float) -> SnrResult:
    """Squeeze-while-measuring sensitivity, evaluated exactly as printed:

    (1/sqrt(tau)) dS/dB = sqrt(2)/(J sqrt(T N))
        * [1 - exp(-J N P e^{-4 Gamma T} T)] / exp(-[J N P T - 1] e^{-4 Gamma T})

    Outside the domain where a divisor underflows to 0 (for instance
    [J N P T - 1] e^{-4 Gamma T} above ~745).
    """
    status = Status(gamma.shape).flag((j_coupling <= 0.0) | (t_squeeze <= 0.0), DOMAIN,
                                      "snr_squeeze_while_measure requires J > 0 and T > 0")
    decay = status.exp(-4.0 * gamma * t_squeeze)
    jnpt = j_coupling * n_spins * polarization_p * t_squeeze
    numer = 1.0 - status.exp(-jnpt * decay)
    denom = status.exp(-(jnpt - 1.0) * decay)
    scale = j_coupling * np.sqrt(t_squeeze * n_spins)
    status.flag((scale == 0.0) | (denom == 0.0), DOMAIN, "snr_squeeze_while_measure divides "
                "by an underflowed 0: J sqrt(T N) = {} and exp(-(J N P T - 1) "
                "e^{{-4 Gamma T}}) = {}", scale, denom)
    return SnrResult(status.nan(math.sqrt(2.0) / scale * numer / denom), WHILE_MEASURING,
                     status=status)


@closed_form
def snr_squeeze_then_measure(j_coupling: float, n_spins: float,
                             polarization_p: float, gamma: float,
                             t_squeeze: float, t_signal: float) -> SnrResult:
    """Squeeze-then-measure sensitivity:

    (1/sqrt(tau)) dS/dB = t sqrt(N)/sqrt(T + t)
        * P e^{-4 Gamma (T + t)} / exp(-J N P e^{-4 Gamma (T + t)} T)

    T = 0 is the unsqueezed baseline.  Outside the domain where the divisor
    underflows to 0 (J N P e^{-4 Gamma (T + t)} T above ~745).
    """
    status = Status(gamma.shape).flag(
        (t_squeeze < 0.0) | (t_signal < 0.0) | (t_squeeze + t_signal <= 0.0), DOMAIN,
        "requires T >= 0, t >= 0 and T + t > 0")
    p_eff = polarization_p * status.exp(-4.0 * gamma * (t_squeeze + t_signal))
    kappa_t = j_coupling * n_spins * p_eff * t_squeeze
    gain = status.exp(-kappa_t)
    status.flag(gain == 0.0, DOMAIN, "snr_squeeze_then_measure divides by exp(-J N P_eff T) "
                "= 0 (underflow at J N P_eff T = {})", kappa_t)
    val = t_signal * np.sqrt(n_spins) / np.sqrt(t_squeeze + t_signal) * p_eff / gain
    protocol = np.where(t_squeeze == 0.0, UNSQUEEZED, SQUEEZE_THEN_MEASURE)
    return SnrResult(status.nan(val), protocol, 4.0 * gamma * t_squeeze, status)


@closed_form
def snr_optimum_strong(alpha: float, n_spins: float, gamma: float,
                       polarization_p: float) -> SnrResult:
    """Closed-form optimum of the split protocol in the alpha >> 1 slice:

    (1/sqrt(tau)) dS_max/dB = sqrt(N)/sqrt(4 Gamma) * P/alpha / exp(-[alpha/e - 1]),
    at U_max = (alpha/e - 1)/(alpha/e).  Requires alpha/e > 1.  Outside the
    domain where the divisor underflows to 0 (alpha/e - 1 above ~745).
    """
    a = alpha * math.exp(-1.0)
    status = Status(a.shape).flag(~(a > 1.0), DOMAIN, "no interior optimum: alpha/e = {} <= 1", a)
    gain = status.exp(-(a - 1.0))
    status.flag(gain == 0.0, DOMAIN, "snr_optimum_strong divides by exp(-(alpha/e - 1)) "
                "= 0 (underflow at alpha/e = {})", a)
    val = np.sqrt(n_spins) / np.sqrt(4.0 * gamma) * polarization_p / alpha / gain
    return SnrResult(status.nan(val), SQUEEZE_THEN_MEASURE, (a - 1.0) / a, status)


@closed_form
def improvement_factor(alpha: float) -> float:
    """Metrological gain over the unsqueezed baseline: exp(alpha/e)/alpha."""
    status = Status(alpha.shape).flag(~((alpha > 0.0) & np.isfinite(alpha)), DOMAIN,
                                      "improvement factor needs finite alpha > 0, got {}", alpha)
    return Checked(status.nan(status.exp(alpha * math.exp(-1.0)) / alpha), status)
