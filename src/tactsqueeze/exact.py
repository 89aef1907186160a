"""Exact dense Lindblad oracle for small spin ensembles.

State is a dense 2^N x 2^N density matrix.  Generators are the TACT
squeezing Hamiltonian, a per-site depolarizing channel and an optional
signal field.  The Hamiltonian is built from the collective Pauli sums,
H = J (Cx^2 - Cy^2); the depolarizer is applied through the single-qubit
identity X A X + Y A Y + Z A Z = 2 Tr(A) I - A, i.e. one partial trace
per site.  Integration is classical fixed-step RK4 with automatic step
halving against the channel invariants; a dense superoperator exponential
is kept as an independent cross-check path for small N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    IntegrationError,
    NumericalConsistencyError,
    ResourceLimitError,
    UndefinedDirectionError,
)

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "SpinOperatorSet", "Superoperator", "StepControl",
    "spin_operators", "site_operator",
    "build_initial_state", "tact_hamiltonian", "field_hamiltonian",
    "squeeze_generator", "depolarize_generator", "field_generator",
    "apply_depolarizer", "evolve", "evolve_expm",
    "channel_residuals", "measure", "trace_norm",
    "mean_spin_vector", "transverse_variance_extrema",
    "squeezing_from_variance", "squeezing_parameter_exact",
    "factorization_error", "factorization_error_pair",
    "commutator_action_norm",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

DEFAULT_N_CAP = 10

# Channel invariant tolerances (also the integrator acceptance targets).
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
MIN_EIGENVALUE_TOL = -1e-8


def _check_cap(n_spins: int, n_cap: int) -> None:
    if not (1 <= n_spins <= n_cap):
        mem = 16 * 4 ** n_spins
        raise ResourceLimitError(
            f"n_spins={n_spins} exceeds the cap {n_cap}: a dense density matrix "
            f"costs 16*4^N = {mem} bytes and superoperator action scales as 8^N")


def site_operator(op: np.ndarray, site: int, n_spins: int) -> np.ndarray:
    """Embed a single-qubit operator at `site` (site 0 = leftmost kron factor)."""
    out = np.array([[1.0]], dtype=complex)
    for k in range(n_spins):
        out = np.kron(out, op if k == site else IDENTITY_2)
    return out


@dataclass(frozen=True)
class SpinOperatorSet:
    """Collective Pauli sums C_a = sum_i sigma^a_i (sigma units)."""

    n_spins: int
    collective_x: np.ndarray = field(repr=False)
    collective_y: np.ndarray = field(repr=False)
    collective_z: np.ndarray = field(repr=False)


def spin_operators(n_spins: int, n_cap: int = DEFAULT_N_CAP) -> SpinOperatorSet:
    _check_cap(n_spins, n_cap)
    cx, cy, cz = (sum(site_operator(pauli, i, n_spins) for i in range(n_spins))
                  for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    return SpinOperatorSet(n_spins, cx, cy, cz)


def build_initial_state(n_spins: int, polarization_p: float,
                        n_cap: int = DEFAULT_N_CAP) -> np.ndarray:
    """N-fold tensor product of (I + P sigma_z)/2; per-spin <sigma_z> = P."""
    _check_cap(n_spins, n_cap)
    if not (0.0 < polarization_p <= 1.0):
        raise ValueError(f"polarization_p must be in (0, 1], got {polarization_p}")
    single = (IDENTITY_2 + polarization_p * SIGMA_Z) / 2.0
    rho = np.array([[1.0]], dtype=complex)
    for _ in range(n_spins):
        rho = np.kron(rho, single)
    return rho


def tact_hamiltonian(n_spins: int, j_coupling: float,
                     n_cap: int = DEFAULT_N_CAP) -> np.ndarray:
    """H = J sum_{i != j} (sx_i sx_j - sy_i sy_j), ordered pairs, both orders.

    Built as J (Cx^2 - Cy^2) from the collective sums C = sum_i sigma_i:
    the i = j terms sx_i^2 - sy_i^2 = I - I cancel.
    """
    ops = spin_operators(n_spins, n_cap)
    cx, cy = ops.collective_x, ops.collective_y
    return j_coupling * (cx @ cx - cy @ cy)


def field_hamiltonian(n_spins: int, b_field: float,
                      n_cap: int = DEFAULT_N_CAP) -> np.ndarray:
    """H_B = B sum_i (sy_i - sx_i) = B (Cy - Cx)."""
    ops = spin_operators(n_spins, n_cap)
    return b_field * (ops.collective_y - ops.collective_x)


def apply_depolarizer(rho: np.ndarray, gamma: float,
                      n_spins: int | None = None) -> np.ndarray:
    """Depolarizing dissipator: Gamma sum_i (X r X + Y r Y + Z r Z) - 3 Gamma N r.

    The printed -3*Gamma*rho counter-term is read per site (trace
    preservation requires it).  The maximally mixed state is a fixed point.
    Per site, X A X + Y A Y + Z A Z = 2 Tr(A) I - A holds for any 2x2 A
    (Nielsen & Chuang, sec. 8.3.4), so the dissipator is
    2 Gamma sum_i I_i (x) Tr_i rho - 4 Gamma N rho: one partial trace per
    site, added back on both diagonal slices of that site.
    """
    if n_spins is None:
        n_spins = int(round(np.log2(rho.shape[0])))
    out = -4.0 * gamma * n_spins * rho
    for i in range(n_spins):
        shape = (2 ** i, 2, 2 ** (n_spins - 1 - i))
        r = rho.reshape(shape + shape)
        o = out.reshape(shape + shape)
        partial = 2.0 * gamma * (r[:, 0, :, :, 0, :] + r[:, 1, :, :, 1, :])
        o[:, 0, :, :, 0, :] += partial
        o[:, 1, :, :, 1, :] += partial
    return out


# -- superoperators ----------------------------------------------------------

@dataclass(frozen=True)
class Superoperator:
    """One Lindblad term: rho -> contribution to d rho / dt.

    kind is one of L1_squeeze, L2_depolarize, L3_field.  rate_bound is a
    spectral-scale estimate used for step sizing.  apply returns a new
    array (never its argument or a cached buffer): evolve accumulates
    generator outputs into it in place.
    """

    kind: str
    n_spins: int
    rate_bound: float
    apply: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dense: Callable[[], np.ndarray] = field(repr=False)


def _hamiltonian_superop(kind: str, n_spins: int, h: np.ndarray, sign: float) -> Superoperator:
    # sign=+1: drho/dt = -i[H, rho];  sign=-1: drho/dt = +i[H, rho]
    norm = float(np.linalg.norm(np.linalg.eigvalsh(h), np.inf)) if h.size else 0.0

    def apply(rho: np.ndarray) -> np.ndarray:
        return -1j * sign * (h @ rho - rho @ h)

    def dense() -> np.ndarray:
        eye = np.eye(h.shape[0])
        return -1j * sign * (np.kron(h, eye) - np.kron(eye, h.T))

    return Superoperator(kind=kind, n_spins=n_spins, rate_bound=2.0 * norm,
                         apply=apply, dense=dense)


def squeeze_generator(n_spins: int, j_coupling: float,
                      n_cap: int = DEFAULT_N_CAP) -> Superoperator:
    """L1(rho) = -i [H_Squ, rho]."""
    h = tact_hamiltonian(n_spins, j_coupling, n_cap)
    return _hamiltonian_superop("L1_squeeze", n_spins, h, sign=+1.0)


def field_generator(n_spins: int, b_field: float,
                    n_cap: int = DEFAULT_N_CAP) -> Superoperator:
    """L3(rho) = +i [B sum_i (sy_i - sx_i), rho], as printed."""
    h = field_hamiltonian(n_spins, b_field, n_cap)
    return _hamiltonian_superop("L3_field", n_spins, h, sign=-1.0)


def depolarize_generator(n_spins: int, gamma: float,
                         n_cap: int = DEFAULT_N_CAP) -> Superoperator:
    _check_cap(n_spins, n_cap)

    def apply(rho: np.ndarray) -> np.ndarray:
        return apply_depolarizer(rho, gamma, n_spins)

    def dense() -> np.ndarray:
        dim = 2 ** n_spins
        out = -3.0 * gamma * n_spins * np.eye(dim * dim, dtype=complex)
        for i in range(n_spins):
            for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z):
                s = site_operator(pauli, i, n_spins)
                out += gamma * np.kron(s, s.T)
        return out

    return Superoperator(kind="L2_depolarize", n_spins=n_spins,
                         rate_bound=4.0 * gamma * n_spins, apply=apply, dense=dense)


# -- integration -------------------------------------------------------------

@dataclass(frozen=True)
class StepControl:
    """Step sizing and invariant tolerances for the RK4 integrator.

    target_step_rate bounds h * (summed generator rate scale); halving
    repeats until the channel invariants hold or max_refinements is hit.
    """

    trace_tol: float = TRACE_TOL
    hermiticity_tol: float = HERMITICITY_TOL
    min_eigenvalue_tol: float = MIN_EIGENVALUE_TOL
    target_step_rate: float = 0.05
    min_steps: int = 16
    max_refinements: int = 6


def channel_residuals(rho: np.ndarray) -> tuple[float, float, float]:
    """(|trace - 1|, max |rho - rho^dag|, min eigenvalue)."""
    trace_dev = abs(np.trace(rho) - 1.0)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    sym = (rho + rho.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return float(trace_dev), herm, min_eig


def _invariants_ok(rho: np.ndarray, ctl: StepControl) -> tuple[bool, float]:
    trace_dev, herm, min_eig = channel_residuals(rho)
    worst = max(trace_dev / ctl.trace_tol, herm / ctl.hermiticity_tol,
                max(0.0, -min_eig) / -ctl.min_eigenvalue_tol)
    return worst <= 1.0, worst


def _rk4(rho: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray],
         duration: float, n_steps: int) -> np.ndarray:
    h = duration / n_steps
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def evolve(rho: np.ndarray, generators: Sequence[Superoperator], duration: float,
           step_control: StepControl | None = None) -> np.ndarray:
    """Integrate d rho/dt = sum_k L_k(rho) for `duration` with fixed-step RK4.

    Steps are halved (count doubled) until the trace / Hermiticity /
    positivity invariants hold at the configured tolerances.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if duration == 0 or not generators:
        return rho.copy()
    ctl = step_control or StepControl()
    rate = sum(g.rate_bound for g in generators)
    # complex state: from a real one the depolarizer returns a real array,
    # which `out +=` cannot add a Hamiltonian term into
    rho = np.asarray(rho, dtype=complex)

    def rhs(r):
        out = generators[0].apply(r)
        for g in generators[1:]:
            out += g.apply(r)
        return out

    n_steps = max(ctl.min_steps, int(np.ceil(duration * rate / ctl.target_step_rate)))
    worst = np.inf
    for _ in range(ctl.max_refinements + 1):
        out = _rk4(rho, rhs, duration, n_steps)
        ok, worst = _invariants_ok(out, ctl)
        if ok:
            return out
        n_steps *= 2
    raise IntegrationError(
        f"invariants violated after {ctl.max_refinements} refinements "
        f"(worst residual {worst:.3e}x tolerance)", worst_residual=worst)


def evolve_expm(rho: np.ndarray, generators: Sequence[Superoperator],
                duration: float, n_cap: int = 5) -> np.ndarray:
    """Cross-check path: dense superoperator exponential (small N only)."""
    from scipy.linalg import expm

    dim = rho.shape[0]
    n_spins = int(round(np.log2(dim)))
    _check_cap(n_spins, n_cap)
    if duration == 0 or not generators:
        return rho.copy()
    sup = sum(g.dense() for g in generators)
    vec = expm(duration * sup) @ rho.flatten()
    return vec.reshape(dim, dim)


# -- observables and diagnostics ---------------------------------------------

def measure(rho: np.ndarray, observable: np.ndarray) -> float:
    """trace(rho O); imaginary residual above 1e-8 is a consistency error."""
    if rho.shape != observable.shape:
        raise ValueError("dimension mismatch between state and observable")
    val = complex(np.einsum("ij,ji->", rho, observable))
    if abs(val.imag) > 1e-8:
        raise NumericalConsistencyError(
            f"expectation has imaginary residual {val.imag:.3e}")
    return val.real


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of the Hermitian part."""
    sym = (m + m.conj().T) / 2.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(sym))))


def mean_spin_vector(rho: np.ndarray, ops: SpinOperatorSet) -> np.ndarray:
    return np.array([measure(rho, ops.collective_x),
                     measure(rho, ops.collective_y),
                     measure(rho, ops.collective_z)])


def transverse_variance_extrema(rho: np.ndarray, ops: SpinOperatorSet
                                ) -> tuple[float, float, np.ndarray]:
    """(min variance, max variance, mean vector) over the plane orthogonal
    to the mean-spin direction, by closed-form 2x2 diagonalization."""
    mean = mean_spin_vector(rho, ops)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise UndefinedDirectionError(
            f"mean spin length {norm:.3e} too small to define a direction")
    n_hat = mean / norm
    # transverse basis: use the least-aligned coordinate axis as seed
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(n_hat)))] = 1.0
    e1 = np.cross(n_hat, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n_hat, e1)
    basis = [ops.collective_x, ops.collective_y, ops.collective_z]
    o1 = sum(c * op for c, op in zip(e1, basis))
    o2 = sum(c * op for c, op in zip(e2, basis))
    m1, m2 = measure(rho, o1), measure(rho, o2)
    a = measure(rho, o1 @ o1) - m1 * m1
    b = measure(rho, o2 @ o2) - m2 * m2
    c = measure(rho, (o1 @ o2 + o2 @ o1) / 2.0) - m1 * m2
    half_diff = np.hypot((a - b) / 2.0, c)
    mid = (a + b) / 2.0
    return mid - half_diff, mid + half_diff, mean


KITAGAWA_UEDA = "kitagawa_ueda"
WINELAND = "wineland"


def squeezing_from_variance(min_var: float, mean: np.ndarray, n_spins: int,
                            convention: str = KITAGAWA_UEDA) -> float:
    """Squeezing parameter from `transverse_variance_extrema`'s min variance
    and mean: kitagawa_ueda min Var(C_perp) / N, wineland N min Var(C_perp) /
    |<C>|^2, with C the collective Pauli sums (sigma units)."""
    if convention == KITAGAWA_UEDA:
        return min_var / n_spins
    if convention == WINELAND:
        return n_spins * min_var / float(np.dot(mean, mean))
    raise ValueError(f"unknown convention {convention!r}")


def squeezing_parameter_exact(rho: np.ndarray, ops: SpinOperatorSet,
                              convention: str = KITAGAWA_UEDA) -> float:
    """Minimal transverse variance of rho reduced to a squeezing parameter
    (conventions as in `squeezing_from_variance`)."""
    min_var, _, mean = transverse_variance_extrema(rho, ops)
    return squeezing_from_variance(min_var, mean, ops.n_spins, convention)


# -- factorization / commutator diagnostics ----------------------------------

def factorization_error_pair(rho: np.ndarray, gen_a: Superoperator,
                             gen_b: Superoperator, duration: float,
                             step_control: StepControl | None = None) -> float:
    """Trace-norm distance || e^{T(A+B)} rho - e^{TA} e^{TB} rho ||_1,
    both sides integrated with the same tolerances (B acts first in the split)."""
    joint = evolve(rho, [gen_a, gen_b], duration, step_control)
    split = evolve(evolve(rho, [gen_b], duration, step_control),
                   [gen_a], duration, step_control)
    return trace_norm(joint - split)


def factorization_error(n_spins: int, j_coupling: float, gamma: float,
                        t_squeeze: float, polarization_p: float,
                        step_control: StepControl | None = None,
                        n_cap: int = DEFAULT_N_CAP) -> float:
    """Trace-norm error of splitting the squeeze + depolarize evolution."""
    rho = build_initial_state(n_spins, polarization_p, n_cap)
    l1 = squeeze_generator(n_spins, j_coupling, n_cap)
    l2 = depolarize_generator(n_spins, gamma, n_cap)
    return factorization_error_pair(rho, l1, l2, t_squeeze, step_control)


class CommutatorNorm(NamedTuple):
    value: float
    degenerate: bool


def commutator_action_norm(n_spins: int, j_coupling: float, gamma: float,
                           polarization_p: float,
                           n_cap: int = DEFAULT_N_CAP) -> CommutatorNorm:
    """||L1(L2 rho) - L2(L1 rho)||_1 normalized by ||L1 L2 rho||_1 + ||L2 L1 rho||_1
    on the initial product state; cheap proxy for the factorization error."""
    rho = build_initial_state(n_spins, polarization_p, n_cap)
    l1 = squeeze_generator(n_spins, j_coupling, n_cap)
    l2 = depolarize_generator(n_spins, gamma, n_cap)
    ab = l1.apply(l2.apply(rho))
    ba = l2.apply(l1.apply(rho))
    denom = trace_norm(ab) + trace_norm(ba)
    if denom < 1e-300:
        return CommutatorNorm(0.0, True)
    return CommutatorNorm(trace_norm(ab - ba) / denom, False)
