"""Exact dense Lindblad oracle for small spin ensembles.

State is a dense 2^N x 2^N density matrix.  Generators are the TACT
squeezing Hamiltonian, a per-site depolarizing channel and an optional
signal field.  The TACT Hamiltonian H = J (Cx^2 - Cy^2) is written from the
basis-state bits (4J between states that differ by two aligned spin
flips); the depolarizer is applied through the single-qubit identity
X A X + Y A Y + Z A Z = 2 Tr(A) I - A, i.e. one partial trace per site.

A Hamiltonian term costs one matrix product per application: on a
Hermitian state rho H = (H rho)^dag, so -i[H, rho] = -i(K - K^dag) with
K = H rho, and for the real TACT Hamiltonian K is one real GEMM on the
float view of rho.  The generators are therefore defined on Hermitian
states only.  The Hamiltonian terms and the depolarizer each map a
Hermitian state to an exactly Hermitian array, the Krylov sums combine
entries (a, b) and (b, a) alike, and `embed` mirrors the result in both
spaces, so `evolve` checks the Hermiticity of its input only.

Integration is classical fixed-step RK4 with automatic step halving
against the channel invariants, each pass evaluated as one polynomial of
the generator by restarted Arnoldi (`_rk4`); a dense superoperator
exponential is kept as an independent cross-check path for small N.  The
settings are fixed: a pass is accepted when |Tr rho - 1| <= 1e-9 and the
least eigenvalue is >= -1e-8; the first pass takes max(16, T * rate / 0.05)
steps, and the count is doubled at most 6 times.

The integrator runs in one of two state spaces, chosen by `evolve` with
no setting.  TACT flips spins in pairs, and the depolarizer's partial trace
over site i pairs rho[r, c] with rho[r ^ e_i, c ^ e_i], so both keep
parity(r) xor parity(c) of every entry (popcount parities).  From a state
whose entries of mixed parity are exactly 0, such as the diagonal initial
state, those entries stay exactly 0: rho is two Hermitian d/2 x d/2
blocks, the even and the odd popcount sector.  A gauge makes the TACT
state real: with cz(r) = N - 2 popcount(r) and S = diag(e^{i pi cz/8}),
e^{i pi Cz/4} = S^2 maps H to -H, so rho(t) = S^2 rho(t)* S^-2 and
rho' = S^dag rho S is real symmetric.  Within a sector cz(r) - cz(c) = 4q
for an integer q, so rho[r, c] = i^q rho'[r, c], q taken mod 4: the
gauge's `restrict` and `embed` only swap Re and Im and flip signs, and no
rounded e^{i pi/8} is formed.  The spaces:
  - the gauge (`_RealGauge`, which also holds the N's layout), when
    every generator keeps parity and the state's transform is exactly real:
    the real stack (2, d/2, d/2), d^2/2 reals per Krylov vector, the blocks
    themselves; L1 is K rho' + (K rho')^T with K = -i S^dag H S real
    antisymmetric (entries +-4J), one real GEMM per block, L2 is
    `apply_depolarizer` on the real stack, and an invariant check is two
    real block eigvalsh;
  - the dense d x d space (`_HermitianSpace`) otherwise: with the signal
    field, which flips one spin on one side and leaves the sector, with
    any nonzero entry of mixed parity in the input, or with an in-sector
    input whose transform is not real; d^2 complex numbers, 2d^2 reals per
    Krylov vector.
`trace_norm`, `channel_residuals` and `commutator_action_norm` (which
applies L1 and L2 to the initial state) read their matrix in its space,
so in the gauge on two real blocks.  Either way the integrator sees only an
array: a Krylov vector is the state's own float view.

The collective sums Cx, Cy and Cz are written from the basis-state bits
too.  The squeezing observables need only the mean spin and the 3x3
moment matrix <{C_a, C_b}>/2 (Kitagawa & Ueda, PRA 47, 5138 (1993)), which
`collective_moments` reads from the O(N^2 2^N) entries of rho within two
bit flips of its diagonal, with no operator matrix, into one `core.Moments`
record.  The squeeze generator's rate bound is 2|J| times the spectral
radius of Cx^2 - Cy^2, found once per N on its real blocks (`_RealGauge`).
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Moments
from .errors import IntegrationError, NumericalConsistencyError, ResourceLimitError

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "SpinOperatorSet", "Superoperator", "StepControl",
    "check_cap", "spin_operators", "site_operator",
    "build_initial_state", "tact_hamiltonian", "field_hamiltonian",
    "squeeze_generator", "depolarize_generator", "field_generator",
    "apply_depolarizer", "evolve", "evolve_expm",
    "channel_residuals", "measure", "trace_norm",
    "collective_moments", "squeezing_parameter_exact",
    "split_evolve", "factorization_error", "factorization_error_pair",
    "CommutatorNorm", "commutator_action_norm",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# One `exact` row, in state sizes of 16*4^N bytes at N = 8 and 9: a tracemalloc
# peak of 3.6 (5.6 with_factorization) + 7.25 of Krylov basis (_KRYLOV_CAP quarter
# states, touched only as far as it grows) = 10.9 (12.9), ~174 (206) MiB at N = 10
# (a dense-space vector is one state, so its basis is up to 29 states);
# one N = 10 criterion-06 `verify` row: 7.6 s and 232 MB peak RSS on 2 cores
DEFAULT_N_CAP = 10
EXPM_N_CAP = 5  # evolve_expm's: its dense superoperator has 16^N entries

# Channel invariant tolerances (also the integrator acceptance targets).
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
MIN_EIGENVALUE_TOL = -1e-8


def check_cap(n_spins: int, n_cap: int | None = None) -> None:
    """ResourceLimitError unless 1 <= n_spins <= n_cap (by default DEFAULT_N_CAP,
    read at each call): the oracle's one size decision, made by every builder.
    The size is given as a power of 2, so no integer of ~0.6 N digits is built."""
    n_cap = DEFAULT_N_CAP if n_cap is None else n_cap
    if not (1 <= n_spins <= n_cap):
        raise ResourceLimitError(
            f"n_spins={n_spins} exceeds the cap {n_cap}: a dense density matrix "
            f"costs 16*4^N = 2^{2 * n_spins + 4} bytes and superoperator action scales as 8^N")


def _basis_bits(n_spins: int) -> np.ndarray:
    """bits[r, i] = bit i of basis state r: 1 where sigma^z_i reads -1."""
    return (np.arange(2 ** n_spins)[:, None] >> np.arange(n_spins)) & 1


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


def spin_operators(n_spins: int) -> SpinOperatorSet:
    """Cx, Cy and Cz written from the basis-state bits, like `tact_hamiltonian`.

    sigma^x_i maps |r> to |r ^ e_i> and sigma^y_i to i z_i(r) |r ^ e_i>, with
    z_i(r) = 1 - 2 (bit i of r); Cz is diagonal, N - 2 popcount(r).  Every
    entry is a small integer, so these are the bits of the site sums
    sum_i site_operator(sigma^a, i, N).
    """
    check_cap(n_spins)
    dim = 2 ** n_spins
    index, bits = np.arange(dim), _basis_bits(n_spins)
    cx, cy, cz = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    for i in range(n_spins):
        flipped = index ^ (1 << i)
        cx.real[flipped, index] = 1.0
        cy.imag[flipped, index] = 1.0 - 2.0 * bits[:, i]
    cz.real[index, index] = n_spins - 2.0 * bits.sum(axis=1)
    return SpinOperatorSet(n_spins, cx, cy, cz)


def build_initial_state(n_spins: int, polarization_p: float) -> np.ndarray:
    """N-fold tensor product of (I + P sigma_z)/2; per-spin <sigma_z> = P.

    The product is diagonal: its diagonal is formed by the products np.kron
    takes, in its order, from the single-spin diagonal ((1 + P)/2, (1 - P)/2),
    so it has the bits of the kron product without building one."""
    check_cap(n_spins)
    if not (0.0 < polarization_p <= 1.0):
        raise ValueError(f"polarization_p must be in (0, 1], got {polarization_p}")
    single = np.array([1.0 + polarization_p, 1.0 - polarization_p]) / 2.0
    diagonal = np.ones(1)
    for _ in range(n_spins):
        diagonal = np.multiply.outer(diagonal, single).ravel()
    rho = np.zeros((2 ** n_spins, 2 ** n_spins), dtype=complex)
    np.fill_diagonal(rho.real, diagonal)
    return rho


def _check_finite(name: str, value: float, label: str, coefficient: float) -> None:
    """IntegrationError naming the parameter unless its scaled `coefficient`
    (a Python float, so an overflow is inf, not a warning) is finite."""
    if not np.isfinite(coefficient):
        raise IntegrationError(f"{name} = {value:.6g}: {label} is not finite")


def tact_hamiltonian(n_spins: int, j_coupling: float) -> np.ndarray:
    """H = J sum_{i != j} (sx_i sx_j - sy_i sy_j), ordered pairs, both orders.

    That is J (Cx^2 - Cy^2) with C = sum_i sigma_i (the i = j terms
    sx_i^2 - sy_i^2 = I - I cancel).  Per pair sx sx - sy sy = 2 (s+ s+ +
    s- s-), so Cx^2 - Cy^2 is 4 between two product states that differ by
    flipping two aligned spins and 0 elsewhere: it is written at the pairs
    of `_RealGauge.pairs`, without building the collective sums, and scaled
    by J once (the same bits as J (Cx @ Cx - Cy @ Cy)).  A J whose 4J is not
    finite is an IntegrationError.
    """
    check_cap(n_spins)
    _check_finite("j_coupling", j_coupling, "4J", 4.0 * float(j_coupling))
    state, partner = _real_gauge(n_spins).pairs
    pattern = np.zeros((2 ** n_spins, 2 ** n_spins), dtype=complex)
    pattern[state, partner] = pattern[partner, state] = 4.0
    return j_coupling * pattern


def field_hamiltonian(n_spins: int, b_field: float) -> np.ndarray:
    """H_B = B sum_i (sy_i - sx_i) = B (Cy - Cx)."""
    ops = spin_operators(n_spins)
    return b_field * (ops.collective_y - ops.collective_x)


def apply_depolarizer(rho: np.ndarray, gamma: float, n_spins: int,
                      same: np.ndarray | None = None) -> np.ndarray:
    """Depolarizing dissipator: Gamma sum_i (X r X + Y r Y + Z r Z) - 3 Gamma N r.

    The printed -3*Gamma*rho counter-term is read per site (trace
    preservation requires it).  The maximally mixed state is a fixed point.
    Per site, X A X + Y A Y + Z A Z = 2 Tr(A) I - A holds for any 2x2 A
    (Nielsen & Chuang, sec. 8.3.4), so the dissipator is
    2 Gamma sum_i I_i (x) Tr_i rho - 4 Gamma N rho: one partial trace per
    site, added back on both diagonal slices of that site.

    rho is a d x d matrix or the gauge's real stack (even, odd) of d/2 x d/2
    blocks; a matrix is the one-block stack.  In the gauge's layout
    (`_RealGauge`) the site of bit i + 1 of a state flips bit i of its
    block index and its sector, so each site of the block index pairs a block
    with the other one (`blocks[::-1]`, itself in a one-block stack); the
    bit-0 site keeps the index and adds the two blocks where the indices
    have equal parity, weighted by `same` (by default 2 Gamma times the
    gauge's mask).
    """
    blocks = rho.reshape(-1, *rho.shape[-2:])
    folded = len(blocks) - 1  # 1 in the gauge, whose block index holds bit 0
    out = -4.0 * gamma * n_spins * blocks
    for i in range(n_spins - folded):
        shape = (len(blocks), 2 ** i, 2, 2 ** (n_spins - folded - 1 - i))
        r = blocks.reshape(shape + shape[1:])
        o = out.reshape(shape + shape[1:])
        partial = r[:, :, 0, :, :, 0, :] + r[::-1, :, 1, :, :, 1, :]
        partial *= 2.0 * gamma  # in place: one temporary per site
        o[:, :, 0, :, :, 0, :] += partial
        o[::-1, :, 1, :, :, 1, :] += partial
    if folded:
        partial = blocks[0] + blocks[1]
        partial *= 2.0 * gamma * _real_gauge(n_spins).same if same is None else same
        out += partial
    return out.reshape(rho.shape)


# -- superoperators ----------------------------------------------------------

@dataclass(frozen=True)
class Superoperator:
    """One Lindblad term: rho -> contribution to d rho / dt.

    rate_bound is a spectral-scale estimate used for step sizing.  apply
    returns a new array (never its argument or a cached buffer): evolve
    accumulates generator outputs into it in place.

    apply is defined on Hermitian rho only, and maps it to an exactly
    Hermitian array.  The Hamiltonian terms do one matrix product per call,
    K = H rho, and read rho H as K^dag, which holds only when rho is
    Hermitian; on any other input their result is wrong.  dense() is the
    full superoperator and has no such restriction.

    keeps_parity records that the term maps a matrix with no entry of mixed
    parity (popcount(r) + popcount(c) odd) to another one, and one whose
    gauge transform is real (`_RealGauge`) to another one; apply then also
    takes the gauge's real stack (2, d/2, d/2) of blocks and returns one.
    """

    rate_bound: float
    apply: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dense: Callable[[], np.ndarray] = field(repr=False)
    keeps_parity: bool = False


def _anti_hermitian_term(k: np.ndarray) -> np.ndarray:
    """-i (K - K^dag), from the float view k of K = A + iB (or of a stack of
    them): real part B + B^T, imaginary part A^T - A; exactly Hermitian by
    construction."""
    a, b = k[..., 0::2], k[..., 1::2]
    out = np.empty(b.shape, dtype=complex)
    parts = out.view(np.float64)
    np.add(b, np.swapaxes(b, -1, -2), out=parts[..., 0::2])
    np.subtract(np.swapaxes(a, -1, -2), a, out=parts[..., 1::2])
    return out


def _commutator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """-i [op, rho] for Hermitian op and rho (or stacks of blocks of them), as
    -i (K - K^dag) with K = op rho: one GEMM, real on the float view of rho
    when op is real."""
    r = np.ascontiguousarray(rho, dtype=complex)
    k = op @ r.view(np.float64) if op.dtype == np.float64 else (op @ r).view(np.float64)
    return _anti_hermitian_term(k)


def _commutator_superop(op: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 matrix of rho -> -i [op, rho] on row-major vec(rho)."""
    eye = np.eye(op.shape[0])
    return -1j * (np.kron(op, eye) - np.kron(eye, op.T))


def squeeze_generator(n_spins: int, j_coupling: float) -> Superoperator:
    """L1(rho) = -i [H_Squ, rho].

    H flips spins in pairs, so it keeps the parity of popcount(r) (it
    commutes with Z^{(x)N}), and its spectral radius is |J| times the J-free
    `_RealGauge.radius`.  apply takes a d x d matrix (one real GEMM on its
    float view) or the gauge's real stack: there H is S^dag H S = iK, with
    K = J `_RealGauge.k` real antisymmetric, so L1 is K rho' - rho' K =
    K rho' + (K rho')^T, one real GEMM per block.  Each layout's operator is
    built on its first use.  A J whose 4J is not finite is an IntegrationError.
    """
    check_cap(n_spins)
    _check_finite("j_coupling", j_coupling, "4J", 4.0 * float(j_coupling))
    gauge = _real_gauge(n_spins)
    k_gauge = functools.cache(lambda: j_coupling * gauge.k)
    h = functools.cache(lambda: tact_hamiltonian(n_spins, j_coupling).real)

    def apply(rho: np.ndarray) -> np.ndarray:
        if rho.ndim == 2:
            return _commutator(h(), rho)
        k = k_gauge() @ rho
        return k + np.swapaxes(k, -1, -2)

    return Superoperator(rate_bound=2.0 * abs(float(j_coupling)) * gauge.radius, apply=apply,
                         dense=lambda: _commutator_superop(h()), keeps_parity=True)


def field_generator(n_spins: int, b_field: float) -> Superoperator:
    """L3(rho) = +i [B sum_i (sy_i - sx_i), rho], as printed: -i [-H_B, rho].
    Its rate bound is 2 sqrt(2) N |B|: Cy - Cx is sqrt(2) times the Pauli sum
    along (-1, 1, 0)/sqrt(2), of spectrum N - 2k.  A B that is not finite is
    an IntegrationError, raised before any array is built."""
    _check_finite("b_field", b_field, "B", float(b_field))
    h = field_hamiltonian(n_spins, b_field)
    op = -1.0 * (h if np.any(h.imag) else h.real)
    return Superoperator(rate_bound=2.0 * math.sqrt(2.0) * n_spins * abs(float(b_field)),
                         apply=lambda rho: _commutator(op, rho),
                         dense=lambda: _commutator_superop(op))


def depolarize_generator(n_spins: int, gamma: float) -> Superoperator:
    """L2, the per-site depolarizer (`apply_depolarizer`).  Each partial trace
    pairs (r, c) with (r ^ e_i, c ^ e_i), so it keeps parity(r) xor parity(c),
    and the gauge's phases of the two entries agree, so it maps the gauge's
    real stack to one.  A Gamma whose 2 Gamma or 4 Gamma N is not finite is
    an IntegrationError."""
    check_cap(n_spins)
    for label, coefficient in (("2 Gamma", 2.0 * float(gamma)),
                               ("4 Gamma N", 4.0 * float(gamma) * n_spins)):
        _check_finite("gamma", gamma, label, coefficient)
    same = 2.0 * gamma * _real_gauge(n_spins).same  # built once, for the gauge's stacks

    def dense() -> np.ndarray:
        dim = 2 ** n_spins
        out = -3.0 * gamma * n_spins * np.eye(dim * dim, dtype=complex)
        for i in range(n_spins):
            for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z):
                s = site_operator(pauli, i, n_spins)
                out += gamma * np.kron(s, s.T)
        return out

    return Superoperator(rate_bound=4.0 * gamma * n_spins,
                         apply=lambda rho: apply_depolarizer(rho, gamma, n_spins, same),
                         dense=dense, keeps_parity=True)


# -- integration -------------------------------------------------------------

@dataclass(frozen=True)
class StepControl:
    """The channel-invariant tolerances every RK4 pass is checked against.

    A record of the fixed TRACE_TOL, HERMITICITY_TOL and MIN_EIGENVALUE_TOL
    for code that reads them, such as the benchmark's row checks
    (perfbench/checks.py) and acceptance criterion 09; `evolve` takes no
    settings.
    """

    trace_tol: float = TRACE_TOL
    hermiticity_tol: float = HERMITICITY_TOL
    min_eigenvalue_tol: float = MIN_EIGENVALUE_TOL


_TARGET_STEP_RATE = 0.05  # bound on h * (summed generator rate) of the first pass
_MIN_STEPS = 16  # steps of the first pass at least
_MAX_REFINEMENTS = 6  # step doublings before IntegrationError


def _hermiticity_residual(rho: np.ndarray) -> float:
    return float(np.max(np.abs(rho - np.swapaxes(rho.conj(), -1, -2))))


def _mirrored(stack: np.ndarray) -> np.ndarray:
    """Each block's strict upper triangle and the real part of its diagonal,
    mirrored: exactly Hermitian (symmetric when real), whatever the lower
    triangle holds."""
    upper = np.tri(stack.shape[-1], k=-1, dtype=bool).T
    lower = np.swapaxes(stack, -1, -2).conj()
    return np.where(upper, stack, np.where(upper.T, lower, stack.real))


class _HermitianSpace:
    """A space of Hermitian matrices, held as a stack of blocks.  `restrict`
    maps a dense d x d matrix to the space's stack and `embed` maps a stack
    back, exactly Hermitian (`_mirrored`); `residuals` and `trace_norm` read
    a stack.  `_rk4` integrates the stack as it is.  The one instance of
    this class, `_DENSE`, is the dense space of every d: it holds nothing,
    and its restrict returns the matrix as a complex array."""

    name = "dense"

    def restrict(self, m: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(m, dtype=complex)

    def embed(self, state: np.ndarray) -> np.ndarray:
        return _mirrored(state)

    def residuals(self, state: np.ndarray) -> tuple[float, float, float]:
        """(|trace - 1|, max |m - m^dag|, least eigenvalue of the Hermitian
        part) of the block-diagonal matrix m whose blocks are `state`."""
        trace_dev = abs(np.trace(state, axis1=-2, axis2=-1).sum() - 1.0)
        sym = (state + np.swapaxes(state.conj(), -1, -2)) / 2.0
        min_eig = float(np.linalg.eigvalsh(sym)[..., 0].min())
        return float(trace_dev), _hermiticity_residual(state), min_eig

    def trace_norm(self, state: np.ndarray) -> float:
        """Sum of absolute eigenvalues of the Hermitian part, over the blocks."""
        sym = (state + np.swapaxes(state.conj(), -1, -2)) / 2.0
        return float(np.sum(np.abs(np.linalg.eigvalsh(sym))))


class _RealGauge(_HermitianSpace):
    """The d x d matrices m with no nonzero entry of mixed parity whose gauge
    transform S^dag m S, with S = diag(e^{i pi cz(r)/8}), is real, held as
    that real stack (even, odd) of the two d/2 x d/2 popcount-sector blocks,
    of `shape` (2, d/2, d/2): the one J-free record of an N's layout, built
    once per N and shared (`_real_gauge`), so nothing writes its arrays.
    `sectors` lists each sector's basis states in increasing order, so its
    a-th state is 2a + (parity(a) xor sector): bit i + 1 of the state is bit
    i of a, and bit 0 makes up the parity.  `same` marks the block indices of
    equal parity, read on bit 0 of the even sector's states.  `pairs` holds
    the dense (state, partner) pairs where Cx^2 - Cy^2 is 4: every r and
    r | flip, flip two bits both 0 in r.  A pair flip keeps its sector, so
    `k`, S^dag (Cx^2 - Cy^2) S / i on the stack, is -4 at block entry
    (r >> 1, partner >> 1) of r's sector and +4 at its mirror: real
    antisymmetric, +4 in the row of the larger popcount.  |k| holds the
    real blocks of Cx^2 - Cy^2, and `radius` is their spectral radius.  The
    TACT state is in the gauge: the rotation e^{i pi Cz/4} = S^2 maps H to
    -H, complex conjugation fixes the real H, the depolarizer and a real
    initial state and reverses time, so rho(t) = S^2 rho(t)* S^-2: S^dag rho
    S is real.

    Within a sector cz(r) - cz(c) = 4q, so (S^dag m S)[r, c] = (-i)^q m[r, c]
    and m[r, c] = i^q m'[r, c], q = (cz(r) - cz(c))/4 mod 4 = (h(c) - h(r))
    mod 4 with h = popcount // 2: restrict reads Re, Im, -Re or -Im of each
    entry and embed writes m' back to the same part with the same sign, so
    embed then restrict returns the bits it was given, the diagonal (q = 0)
    is untouched and no phase is rounded.  Both gather on the float view of
    m, one class of rows at a time (`_classes`: a sector's rows of one
    h mod 4, whose column parts and signs depend on the column only).  m is
    in the gauge when those reads hold all its nonzero reals; else restrict
    returns None.

    A Krylov vector is the real stack itself (d^2/2 reals, the Frobenius
    inner product).  L1's output is exactly symmetric, L2 keeps a symmetric
    input so, and the Krylov sums combine entries (a, b) and (b, a) alike,
    so the stacks stay symmetric; `embed` mirrors each block's upper
    triangle all the same, so a state leaves the gauge exactly Hermitian
    whatever the BLAS summation order."""

    name = "gauge"

    def __init__(self, n_spins: int):
        popcount = _basis_bits(n_spins).sum(axis=1)
        self.sectors = np.flatnonzero(popcount % 2 == 0), np.flatnonzero(popcount % 2 == 1)
        parity = self.sectors[0] & 1  # of the block index: bit 0 of its even state
        self.same = parity[:, None] == parity
        self.shape = (2, *self.same.shape)
        self._classes = []  # (sector, block rows, their states, float columns, int8 signs)
        for s, states in enumerate(self.sectors):
            h = popcount[states] // 2
            for turn in range(4):
                rows = np.flatnonzero(h & 3 == turn)
                q = (h - turn) & 3
                self._classes.append((s, rows, states[rows, None], 2 * states + (q & 1),
                                      np.where(q >= 2, -1, 1).astype(np.int8)))
        flips = (1 << np.array(np.tril_indices(n_spins, -1))).sum(axis=0)  # bits i > k
        state, which = np.nonzero((np.arange(2 ** n_spins)[:, None] & flips) == 0)
        self.pairs = state, state | flips[which]
        sector, low, high = popcount[state] & 1, state >> 1, self.pairs[1] >> 1
        self.k = np.zeros(self.shape)
        self.k[sector, low, high], self.k[sector, high, low] = -4.0, 4.0
        self.radius = float(np.max(np.abs(np.linalg.eigvalsh(np.abs(self.k)))))

    def restrict(self, m: np.ndarray) -> np.ndarray | None:
        floats = np.ascontiguousarray(m, dtype=complex).view(np.float64)
        out = np.empty(self.shape)
        for s, rows, states, columns, sign in self._classes:
            out[s, rows] = floats[states, columns] * sign
        # nonzero reals counted on `!= 0`, much the faster count
        return out if np.count_nonzero(out) == np.count_nonzero(floats != 0) else None

    def embed(self, state: np.ndarray) -> np.ndarray:
        state = _mirrored(state)
        d = 2 * state.shape[-1]
        out = np.zeros((d, d), dtype=complex)
        floats = out.view(np.float64)
        for s, rows, states, columns, sign in self._classes:
            floats[states, columns] = state[s, rows] * sign
        return out


_real_gauge = functools.cache(_RealGauge)  # one instance per N, for the process
_DENSE = _HermitianSpace()


def _space_of(m: np.ndarray, generators: Sequence[Superoperator] = ()
              ) -> tuple[_HermitianSpace, np.ndarray]:
    """(space, m's stack in it) for a d x d matrix m under `generators`, from
    one gather: the gauge if every generator keeps parity and m is in it,
    the dense space otherwise."""
    d = m.shape[0]
    if d >= 2 and d & (d - 1) == 0 and all(g.keeps_parity for g in generators):
        gauge = _real_gauge(d.bit_length() - 1)
        state = gauge.restrict(m)
        if state is not None:
            return gauge, state
    return _DENSE, _DENSE.restrict(m)


def channel_residuals(rho: np.ndarray) -> tuple[float, float, float]:
    """(|trace - 1|, max |rho - rho^dag|, min eigenvalue), read on the
    gauge's two real blocks when rho is in the gauge."""
    space, state = _space_of(rho)
    return space.residuals(state)


_KRYLOV_CAP = 29  # basis vectors per restart, each a row of the state's floats
# k steps pass while h_{m+1,m} |e_m^T P(hH_m)^k e1| <= this: the residual weighted at the
# restart's end only, not an error bound (~500x off on an N = 1 case, ROADMAP item 16)
_KRYLOV_TOL = 1e-14


def _rk4_advance(hm: np.ndarray, beta: float, h: float, remaining: int
                 ) -> tuple[int, np.ndarray]:
    """(k, P(h hm)^k e1 - e1), k <= remaining the largest, by binary search, whose
    estimate beta |e_m^T P(h hm)^k e1| is <= _KRYLOV_TOL, and at least (m - 1) // 4
    (degree < m is exact); powers held as D = P^s - I keep a small increment's digits."""
    m, z = hm.shape[0], h * hm
    eye = np.eye(m)
    powers = [z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)]
    while 2 ** len(powers) <= remaining:  # repeated squaring
        powers.append(powers[-1] @ powers[-1] + 2.0 * powers[-1])
    k, y = 0, np.zeros(m)
    for i in reversed(range(len(powers))):
        step = 1 << i
        if k + step <= remaining:
            trial = powers[i] @ y + powers[i][:, 0] + y  # P^s (y + e1) - e1
            if (k + step <= (m - 1) // 4
                    or beta * abs(trial[-1] + (m == 1)) <= _KRYLOV_TOL):
                k, y = k + step, trial
    return k, y


def _rk4(rho: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray],
         duration: float, n_steps: int, stats: dict | None = None) -> np.ndarray:
    """n_steps classical RK4 steps of the linear d rho/dt = rhs(rho), i.e.
    P(hL)^n_steps rho with P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and
    h = duration / n_steps, to round-off, by restarted Arnoldi (Saad, SIAM J.
    Numer. Anal. 29, 209 (1992); Hochbruck & Lubich, ibid. 34, 1911 (1997)).

    rho is any float64 or complex array, and rhs maps arrays of its dtype
    and shape to new ones.  Each restart grows an orthonormal Krylov basis
    of rhs from the state, advances the steps `_rk4_advance` allows and adds
    the increment to the state.  A vector is rho's float view, and rhs gets
    each one back with rho's dtype and shape, a view of the basis with no
    copy.  rho is not modified, and the result is a new array.  `stats`
    gets applies (rhs calls) and krylov_dim (the largest basis)."""
    h = duration / n_steps
    floats = np.ascontiguousarray(rho).view(np.float64).ravel()
    # own mapping, not malloc: a freed multi-MB malloc block keeps temporaries resident
    flat = np.frombuffer(mmap.mmap(-1, 8 * _KRYLOV_CAP * floats.size)).reshape(_KRYLOV_CAP, -1)
    spare = np.empty(floats.size)
    w = flat[0]  # the state times 2^-e, exactly
    np.copyto(w, floats)
    e, remaining, applies, dim = 0, n_steps, 0, 0
    while remaining:
        if not w.any():
            break
        shift = max(0, -int(np.frexp(max(w.max(), -w.min()))[1]))  # max |w| >= 0.5
        np.ldexp(w, shift, out=w)  # exact (never scales down); the norm cannot underflow
        e -= shift
        beta = np.linalg.norm(w)
        unit = np.r_[1.0 / beta, np.ones(_KRYLOV_CAP - 1)]  # row i is v_i / unit[i]
        hess = np.zeros((_KRYLOV_CAP + 1, _KRYLOV_CAP))
        for m in range(1, _KRYLOV_CAP + 1):
            v = rhs(flat[m - 1].view(rho.dtype).reshape(rho.shape)).view(np.float64).ravel()
            v *= unit[m - 1]
            for _ in range(2):  # classical Gram-Schmidt, twice
                c = (flat[:m] @ v) * unit[:m]
                v -= np.dot(c * unit[:m], flat[:m], out=spare)
                hess[:m, m - 1] += c
            hess[m, m - 1] = np.linalg.norm(v)
            k, y = _rk4_advance(hess[:m, :m], hess[m, m - 1], h, remaining)
            if k == remaining or m == _KRYLOV_CAP:
                break
            np.divide(v, hess[m, m - 1], out=flat[m])
        applies, dim = applies + m, max(dim, m)
        w += np.dot(beta * y * unit[:m], flat[:m], out=v)
        remaining -= k
    if stats is not None:
        stats.update(applies=applies, krylov_dim=dim)
    return np.ldexp(w, e).view(rho.dtype).reshape(rho.shape)


def evolve(rho: np.ndarray, generators: Sequence[Superoperator], duration: float,
           stats: dict | None = None) -> np.ndarray:
    """Integrate d rho/dt = sum_k L_k(rho) for `duration` with fixed-step RK4.

    Each pass is one polynomial of the generator sum (`_rk4`), in the space
    `_space_of` picks: the real gauge when every generator keeps parity and
    rho's gauge transform is real (the gauge is then invariant, so the
    result is exact up to round-off in the summation order), else the dense
    space, also for an in-sector rho whose transform is not real (only a
    direct call makes one), at 2d^2 reals per Krylov vector, four times a
    two-block stack's.  rho and the result are dense d x d arrays, read in
    and out of the space by one gather (`_space_of`) and one `embed`.  Steps
    are halved (count doubled, at most _MAX_REFINEMENTS times) until the
    trace and positivity invariants hold at TRACE_TOL and
    MIN_EIGENVALUE_TOL; `embed` makes the result exactly Hermitian.
    rho must be Hermitian (the generators are defined on Hermitian states
    only): max |rho - rho^dag| above HERMITICITY_TOL is a ValueError.

    If `stats` is given it is filled in, also when IntegrationError is
    raised: n_steps (of the last RK4 pass) and refinements (passes beyond
    the first); once the first step count is set also space (the space's
    name: dense or gauge); after at least one pass worst_residual (that pass's
    largest invariant residual over its tolerance), residuals (its
    `channel_residuals`), applies (its generator-sum applications) and
    krylov_dim (its largest Krylov basis).  With duration 0 or no
    generators no pass runs: n_steps = refinements = 0 and nothing else.

    A pass that overflows, divides by zero or makes a nan (huge rates,
    even at a benign rate x duration) raises IntegrationError at once;
    n_steps and refinements are then those of that pass.  So does a first
    step count that is not finite, before any pass.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    stats = {} if stats is None else stats
    space, state = _space_of(rho, generators)
    # read on the space's blocks: the same entries, up to exact quarter turns
    herm = _hermiticity_residual(state)
    if not herm <= HERMITICITY_TOL:
        raise ValueError(f"rho is not Hermitian: max |rho - rho^dag| = {herm:.3e} "
                         f"exceeds hermiticity_tol {HERMITICITY_TOL:.3e}")
    stats.update(n_steps=0, refinements=0)
    if duration == 0 or not generators:
        return rho.copy()
    rate = sum(g.rate_bound for g in generators)

    def rhs(r):
        out = generators[0].apply(r)
        for g in generators[1:]:
            out += g.apply(r)
        return out

    first = duration * rate / _TARGET_STEP_RATE
    if not np.isfinite(first):
        raise IntegrationError(f"no finite RK4 step count: T x rate = {duration * rate:.6g}")
    n_steps = max(_MIN_STEPS, int(np.ceil(first)))
    stats["space"] = space.name
    for refinement in range(_MAX_REFINEMENTS + 1):
        try:
            # raise, not ignore: an overflowed norm could divide a vector to
            # zero and leave a finite but wrong state
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                out = space.embed(_rk4(state, rhs, duration, n_steps, stats))
        except FloatingPointError as exc:
            stats.update(n_steps=n_steps, refinements=refinement)
            raise IntegrationError(f"RK4 pass of {n_steps:.6g} steps failed: {exc}") from exc
        # out is embedded, so exactly Hermitian: its Hermiticity residual is not weighed
        residuals = channel_residuals(out)
        trace_dev, _, min_eig = residuals
        worst = max(trace_dev / TRACE_TOL, max(0.0, -min_eig) / -MIN_EIGENVALUE_TOL)
        stats.update(n_steps=n_steps, refinements=refinement, worst_residual=worst,
                     residuals=residuals)
        if worst <= 1.0:
            return out
        n_steps *= 2
    raise IntegrationError(
        f"invariants violated after {_MAX_REFINEMENTS} refinements "
        f"(worst residual {worst:.3e}x tolerance)", worst_residual=worst)


def evolve_expm(rho: np.ndarray, generators: Sequence[Superoperator],
                duration: float) -> np.ndarray:
    """Cross-check path: dense superoperator exponential (small N only).

    Needs scipy (scipy.linalg.expm), which no other runtime path loads."""
    from scipy.linalg import expm

    dim = rho.shape[0]
    check_cap(int(round(np.log2(dim))), EXPM_N_CAP)
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
    """Sum of absolute eigenvalues of the Hermitian part: the sum over the
    gauge's two real blocks when m is in the gauge."""
    space, state = _space_of(m)
    return space.trace_norm(state)


def collective_moments(rho: np.ndarray, n_spins: int) -> Moments:
    """The record of mean_a = Tr(rho C_a) and second_ab = Re Tr(rho C_a C_b)
    = <{C_a, C_b}>/2 for Hermitian rho, in one pass over the O(N^2 2^N)
    entries of rho within two bit flips of its diagonal.

    With sigma^x_i |r> = |r ^ e_i>, sigma^y_i |r> = i z_i(r) |r ^ e_i> and
    sigma^z_i |r> = z_i(r) |r>, z_i(r) = 1 - 2 (bit i of r), cz = sum_i z_i,
    each trace reads p(r) = rho[r, r], f_i(r) = rho[r ^ e_i, r] or, for i < j,
    g_ij(r) = rho[r ^ e_i ^ e_j, r] (sums over r and the sites):
        <Cx> = sum f_i            <Cx^2> = N Tr rho + 2 sum Re g_ij
        <Cy> = -i sum z_i f_i     <Cy^2> = N Tr rho - 2 sum z_i z_j Re g_ij
        <Cz> = sum cz p           <Cz^2> = sum cz^2 p
        Re<Cx Cy> = sum (z_i + z_j) Im g_ij
        Re<Cx Cz> = sum cz Re f_i       Re<Cy Cz> = sum cz z_i Im f_i
    (the same-site products I and +-i sigma^c add N Tr rho to the diagonal
    and nothing real off it).  The first moments hold for any rho; an imaginary
    residual above 1e-8 is a consistency error, as in `measure`.
    """
    if rho.shape != (2 ** n_spins, 2 ** n_spins):
        raise ValueError("dimension mismatch between state and observable")
    r = np.arange(2 ** n_spins)[:, None]
    z = 1 - 2 * _basis_bits(n_spins)  # z[r, i] = z_i(r)
    cz = z.sum(axis=1)
    p = rho.diagonal()
    f = rho[r ^ (1 << np.arange(n_spins)), r]
    i, j = np.triu_indices(n_spins, 1)
    g = rho[r ^ (1 << i) ^ (1 << j), r]
    mean = np.array([f.sum(), -1j * (z * f).sum(), cz @ p])
    residual = float(np.max(np.abs(mean.imag)))
    if residual > 1e-8:
        raise NumericalConsistencyError(
            f"expectation has imaginary residual {residual:.3e}")
    fx, fy = f.real.sum(axis=1), (z * f.imag).sum(axis=1)
    same_site = n_spins * p.real.sum()
    xx = same_site + 2.0 * g.real.sum()
    yy = same_site - 2.0 * (z[:, i] * z[:, j] * g.real).sum()
    xy = ((z[:, i] + z[:, j]) * g.imag).sum()
    xz, yz = cz @ fx, cz @ fy
    second = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, cz ** 2 @ p.real]])
    return Moments(n_spins, mean.real, second)


KITAGAWA_UEDA = "kitagawa_ueda"
WINELAND = "wineland"
_CONVENTIONS = (KITAGAWA_UEDA, WINELAND)  # the order of `core.Moments.xi2`


def squeezing_parameter_exact(rho: np.ndarray, ops: SpinOperatorSet,
                              convention: str = KITAGAWA_UEDA) -> float:
    """The squeezing parameter of rho in one convention of `core.Moments.xi2`."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    return collective_moments(rho, ops.n_spins).xi2()[_CONVENTIONS.index(convention)]


# -- factorization / commutator diagnostics ----------------------------------

def split_evolve(rho: np.ndarray, gen_a: Superoperator, gen_b: Superoperator,
                 duration: float) -> np.ndarray:
    """e^{TA} e^{TB} rho: B acts first (in the factorization, the depolarizer
    before the squeeze)."""
    return evolve(evolve(rho, [gen_b], duration), [gen_a], duration)


def factorization_error_pair(rho: np.ndarray, gen_a: Superoperator,
                             gen_b: Superoperator, duration: float) -> float:
    """Trace-norm distance || e^{T(A+B)} rho - e^{TA} e^{TB} rho ||_1,
    both sides integrated with the same tolerances (B acts first in the split)."""
    joint = evolve(rho, [gen_a, gen_b], duration)
    return trace_norm(joint - split_evolve(rho, gen_a, gen_b, duration))


def factorization_error(n_spins: int, j_coupling: float, gamma: float,
                        t_squeeze: float, polarization_p: float) -> float:
    """Trace-norm error of splitting the squeeze + depolarize evolution."""
    rho = build_initial_state(n_spins, polarization_p)
    l1 = squeeze_generator(n_spins, j_coupling)
    l2 = depolarize_generator(n_spins, gamma)
    return factorization_error_pair(rho, l1, l2, t_squeeze)


class CommutatorNorm(NamedTuple):
    value: float
    degenerate: bool


def commutator_action_norm(n_spins: int, j_coupling: float, gamma: float,
                           polarization_p: float) -> CommutatorNorm:
    """||L1(L2 rho) - L2(L1 rho)||_1 normalized by ||L1 L2 rho||_1 + ||L2 L1 rho||_1
    on the initial product state.  Not a proxy for the factorization error: at alpha = 5,
    N = 2..9 (`verify`), it falls 0.3333 -> 0.0567 while that error rises 0.1427 -> 0.8379."""
    rho = build_initial_state(n_spins, polarization_p)
    l1 = squeeze_generator(n_spins, j_coupling)
    l2 = depolarize_generator(n_spins, gamma)
    space, rho = _space_of(rho, (l1, l2))  # the gauge: the product state is real, diagonal
    ab = l1.apply(l2.apply(rho))
    ba = l2.apply(l1.apply(rho))
    denom = space.trace_norm(ab) + space.trace_norm(ba)
    if denom < 1e-300:
        return CommutatorNorm(0.0, True)
    return CommutatorNorm(space.trace_norm(ab - ba) / denom, False)
