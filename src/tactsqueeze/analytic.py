"""Closed-form squeezing and signal-to-noise expressions.

Every formula is evaluated exactly as printed, including where its
consistency with the Gaussian dynamics is questionable; cross-engine
comparisons are diagnostics, never corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SQUEEZE_THEN_MEASURE
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


def _regime(alpha: float | None) -> str:
    if alpha is None or math.isinf(alpha):
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
    """xi^2_min = exp(-J N P e^{-4 Gamma T} T) / (P e^{-4 Gamma T})."""
    decay = math.exp(-4.0 * gamma * t_squeeze)
    kappa_t = j_coupling * n_spins * polarization_p * decay * t_squeeze
    xi2 = math.exp(-kappa_t) / (polarization_p * decay)
    # identical to Theta*(alpha e^{-Theta} - 1) after substitution
    exponent = kappa_t - 4.0 * gamma * t_squeeze
    alpha = None if gamma == 0.0 else (
        j_coupling * n_spins * polarization_p / (4.0 * gamma))
    return SqueezeFormulaResult(xi2=xi2, exponent_arg=exponent, regime=_regime(alpha))


def xi2_min_dimensionless(alpha: float, theta: float,
                          polarization_p: float) -> SqueezeFormulaResult:
    """xi^2_min = P^{-1} exp(-Theta [alpha e^{-Theta} - 1])."""
    exponent = theta * (alpha * math.exp(-theta) - 1.0)
    xi2 = math.exp(-exponent) / polarization_p
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
    """
    if j_coupling <= 0.0 or t_squeeze <= 0.0:
        raise DomainError("snr_squeeze_while_measure requires J > 0 and T > 0")
    decay = math.exp(-4.0 * gamma * t_squeeze)
    jnpt = j_coupling * n_spins * polarization_p * t_squeeze
    numer = 1.0 - math.exp(-jnpt * decay)
    denom = math.exp(-(jnpt - 1.0) * decay)
    pref = math.sqrt(2.0) / (j_coupling * math.sqrt(t_squeeze * n_spins))
    return SnrResult(pref * numer / denom, WHILE_MEASURING)


def snr_squeeze_then_measure(j_coupling: float, n_spins: float,
                             polarization_p: float, gamma: float,
                             t_squeeze: float, t_signal: float) -> SnrResult:
    """Squeeze-then-measure sensitivity:

    (1/sqrt(tau)) dS/dB = t sqrt(N)/sqrt(T + t)
        * P e^{-4 Gamma (T + t)} / exp(-J N P e^{-4 Gamma (T + t)} T)

    T = 0 is the unsqueezed baseline.
    """
    if t_squeeze < 0.0 or t_signal < 0.0 or t_squeeze + t_signal <= 0.0:
        raise DomainError("requires T >= 0, t >= 0 and T + t > 0")
    p_eff = polarization_p * math.exp(-4.0 * gamma * (t_squeeze + t_signal))
    val = (t_signal * math.sqrt(n_spins) / math.sqrt(t_squeeze + t_signal)
           * p_eff / math.exp(-j_coupling * n_spins * p_eff * t_squeeze))
    protocol = UNSQUEEZED if t_squeeze == 0.0 else SQUEEZE_THEN_MEASURE
    u_split = 4.0 * gamma * t_squeeze
    return SnrResult(val, protocol, u_split=u_split)


def snr_optimum_strong(alpha: float, n_spins: float, gamma: float,
                       polarization_p: float) -> SnrResult:
    """Closed-form optimum of the split protocol in the alpha >> 1 slice:

    (1/sqrt(tau)) dS_max/dB = sqrt(N)/sqrt(4 Gamma) * P/alpha / exp(-[alpha/e - 1]),
    at U_max = (alpha/e - 1)/(alpha/e).  Requires alpha/e > 1.
    """
    a = alpha * math.exp(-1.0)
    if not a > 1.0:
        raise DomainError(f"no interior optimum: alpha/e = {a} <= 1")
    u_max = (a - 1.0) / a
    val = (math.sqrt(n_spins) / math.sqrt(4.0 * gamma)
           * polarization_p / alpha / math.exp(-(a - 1.0)))
    return SnrResult(val, SQUEEZE_THEN_MEASURE, u_split=u_max)


def improvement_factor(alpha: float) -> float:
    """Metrological gain over the unsqueezed baseline: exp(alpha/e)/alpha."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"improvement factor needs finite alpha > 0, got {alpha}")
    return math.exp(alpha * math.exp(-1.0)) / alpha
