"""Linearized Holstein-Primakoff / Bogoliubov engine.

The collective spin near full polarization maps to one bosonic mode b
with S_+ ~ sqrt(N P_eff) b and S_z = N - b^dag b.  Quadratures are
X = (b + b^dag)/sqrt(2), Y = (b - b^dag)/(i sqrt(2)).  The squeezing
flow follows the equations of motion db/dt = i kappa b^dag with
kappa = J N P_eff, whose exact 2x2 symplectic exponential is
[[cosh, sinh], [sinh, cosh]](kappa t): the X-Y diagonal directions
contract/expand as e^{-+kappa t}.

Spin <-> boson conversion used throughout: transverse collective spin
variance (sigma units) = N P_eff * (2 * quadrature variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import closed_form, exp_elementwise
from .errors import DegenerateShiftError

__all__ = [
    "GaussianState", "vacuum_state", "effective_polarization",
    "bogoliubov_propagate", "displaced_mode_means", "signal",
    "min_variance_direction", "SignalValue", "VarianceDirection",
    "squeezed_vacuum", "SqueezedVacuum",
]

# a covariance whose eigenvalues differ by at most this (times max(mid, 1))
# has no squeezing direction
_ISOTROPY_TOL = 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Quadrature means, 2x2 covariance and the Bogoliubov rate kappa = J N P_eff."""

    mean: np.ndarray
    cov: np.ndarray
    kappa: float
    n_p_eff: float


def vacuum_state(kappa: float, n_p_eff: float) -> GaussianState:
    """Coherent/vacuum fluctuations: cov = diag(1/2, 1/2), zero means."""
    return GaussianState(mean=np.zeros(2), cov=np.eye(2) / 2.0,
                         kappa=kappa, n_p_eff=n_p_eff)


def effective_polarization(polarization_p: float, gamma: float, t_squeeze: float,
                           t_signal: float | None = None) -> float:
    """P exp(-4 Gamma T), or P exp(-4 Gamma (T + t)) for the two-phase protocol."""
    window = t_squeeze if t_signal is None else t_squeeze + t_signal
    return polarization_p * math.exp(-4.0 * gamma * window)


def bogoliubov_propagate(state: GaussianState, duration: float) -> GaussianState:
    """Apply the symplectic squeezing map for `duration`.

    dX/dt = kappa Y, dY/dt = kappa X: the (X-Y)/sqrt(2) direction
    contracts as e^{-kappa t}, the orthogonal one expands; det(cov) is
    conserved exactly.
    """
    arg = state.kappa * duration
    c, s = math.cosh(arg), math.sinh(arg)
    m = np.array([[c, s], [s, c]])
    return replace(state, mean=m @ state.mean, cov=m @ state.cov @ m.T)


def displaced_mode_means(b_field: float, j_coupling: float, n_p_eff: float,
                         duration: float) -> tuple[complex, complex]:
    """Eigenmode means (<v_minus>, <v_plus>) under the field-displaced flow.

    <v_minus(t)> = [1 - exp(+J N P_eff t)] * B/(J sqrt(N P_eff)) * (1 + i),
    <v_plus(t)> = 0, evaluated as printed (the sign tension with the
    signal curve's decaying exponential is documented, not resolved).
    """
    if j_coupling == 0.0:
        raise DegenerateShiftError(
            "mode displacement diverges at J = 0; use the free-precession limit")
    shift = b_field / (j_coupling * math.sqrt(n_p_eff))
    v_minus = (1.0 - math.exp(j_coupling * n_p_eff * duration)) * shift * (1.0 + 1.0j)
    return v_minus, 0.0j


class SignalValue(NamedTuple):
    value: float
    degenerate: bool


@closed_form
def signal(b_field: float, j_coupling: float, n_p_eff: float,
           duration: float) -> SignalValue:
    """Signal curve (B/J)[1 - exp(-J N P_eff t)]; saturates at B/J.

    At J = 0 the analytic limit B * N P_eff * t is returned with the
    degenerate flag set.  No element fails.
    """
    degenerate = j_coupling == 0.0
    val = (b_field / j_coupling) * (1.0 - exp_elementwise(-j_coupling * n_p_eff * duration))
    return SignalValue(np.where(degenerate, b_field * n_p_eff * duration, val), degenerate)


class VarianceDirection(NamedTuple):
    angle: float
    variance: float
    isotropic: bool


def min_variance_direction(state: GaussianState) -> VarianceDirection:
    """Smaller covariance eigenvalue and its eigenvector angle in the (X, Y) plane."""
    a, b = state.cov[0, 0], state.cov[1, 1]
    c = 0.5 * (state.cov[0, 1] + state.cov[1, 0])
    half_diff = math.hypot((a - b) / 2.0, c)
    mid = (a + b) / 2.0
    if half_diff <= _ISOTROPY_TOL * max(mid, 1.0):
        return VarianceDirection(0.0, mid, True)
    # half atan2(2c, a - b), in (-pi/2, pi/2], is the major axis; the minor
    # axis is a quarter turn on, in (0, pi], and pi is taken to 0
    angle = math.fmod(0.5 * math.atan2(2.0 * c, a - b) + math.pi / 2.0, math.pi)
    return VarianceDirection(angle, mid - half_diff, False)


class SqueezedVacuum(NamedTuple):
    min_variance: float | np.ndarray
    angle: float | np.ndarray
    isotropic: bool | np.ndarray
    cov_det: float | np.ndarray


@closed_form
def squeezed_vacuum(kappa_t) -> SqueezedVacuum:
    """Covariance moments of the vacuum after `bogoliubov_propagate` for kappa t.

    In the +-45 degree frame the covariance is exactly
    diag(e^{-2 kappa t}, e^{2 kappa t}) / 2, so the minor eigenvalue is
    e^{-2|kappa t|}/2 along 3 pi/4 (pi/4 for kappa t < 0) and the
    determinant is the product of the two eigenvalues.  Reading them off
    the 2x2 matrix instead cancels catastrophically once cosh(2 kappa t)
    is large.  As in `min_variance_direction`, eigenvalues within
    _ISOTROPY_TOL of each other (|kappa t| up to ~1e-12) are `isotropic`,
    with angle 0 and the mean eigenvalue as the variance.  `isotropic` is
    false once the major eigenvalue overflows (|kappa t| above ~354.9,
    where cov_det is inf or nan).  One body over arrays (core.closed_form).
    """
    two_x = 2.0 * np.abs(kappa_t)
    lo = exp_elementwise(-two_x) / 2.0
    hi = exp_elementwise(two_x) / 2.0
    half_diff, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
    isotropic = np.isfinite(hi) & (half_diff <= _ISOTROPY_TOL * np.maximum(mid, 1.0))
    angle = np.where(isotropic, 0.0, np.where(kappa_t > 0.0, 0.75 * math.pi, 0.25 * math.pi))
    return SqueezedVacuum(np.where(isotropic, mid, lo), angle, isotropic, lo * hi)
