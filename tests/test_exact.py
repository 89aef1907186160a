import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from tactsqueeze import core, exact
from tactsqueeze.errors import (
    IntegrationError,
    NumericalConsistencyError,
    ResourceLimitError,
    UndefinedDirectionError,
)

RNG = np.random.default_rng(20240817)


def generator_sum(gens):
    """The right-hand side evolve integrates: the sum of the generators."""
    def rhs(r):
        out = gens[0].apply(r)
        for g in gens[1:]:
            out += g.apply(r)
        return out
    return rhs


def textbook_rk4(rho, rhs, duration, n_steps):
    """Classical RK4, stage by stage, as printed."""
    h = duration / n_steps
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def random_hermitian_unit_trace(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return m / np.trace(m)


class TestInitialState:
    def test_pure_spin_up(self):
        rho = exact.build_initial_state(1, 1.0)
        np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-15)

    def test_partial_polarization_eigenvalues(self):
        rho = exact.build_initial_state(1, 0.5)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(rho)),
                                   [0.25, 0.75], atol=1e-15)

    def test_three_site_per_site_polarization(self):
        # independent oracle: loop over the computational basis
        n, p = 3, 0.6
        rho = exact.build_initial_state(n, p)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        for site in range(n):
            expected = 0.0
            for b in range(2 ** n):
                prob = 1.0
                for k in range(n):
                    bit = (b >> (n - 1 - k)) & 1
                    prob *= (1 - p) / 2 if bit else (1 + p) / 2
                bit = (b >> (n - 1 - site)) & 1
                expected += prob * (-1.0 if bit else 1.0)
            assert exact.measure(rho, exact.site_operator(exact.SIGMA_Z, site, n)) == \
                pytest.approx(expected, abs=1e-13)
            assert expected == pytest.approx(p, abs=1e-13)

    def test_cap_error_names_memory_cost(self):
        with pytest.raises(ResourceLimitError, match="4\\^N"):
            exact.build_initial_state(12, 1.0)

    def test_check_cap_refuses_outside_one_to_the_cap(self, monkeypatch):
        for n in (0, exact.DEFAULT_N_CAP + 1):
            with pytest.raises(ResourceLimitError,
                               match=f"^n_spins={n} exceeds the cap 10: .* 16\\*4\\^N = "):
                exact.check_cap(n)
        exact.check_cap(1)
        exact.check_cap(exact.DEFAULT_N_CAP)
        with pytest.raises(ResourceLimitError, match="^n_spins=4 exceeds the cap 3: "):
            exact.check_cap(4, 3)
        # the default cap is read at each call, so a builder sees it lowered
        monkeypatch.setattr(exact, "DEFAULT_N_CAP", 3)
        with pytest.raises(ResourceLimitError, match="^n_spins=4 exceeds the cap 3: "):
            exact.build_initial_state(4, 1.0)

    @pytest.mark.parametrize("n", [8000, 10 ** 6])
    def test_check_cap_gives_a_huge_size_as_a_power_of_2(self, n):
        # 16*4^N as an integer has over 4300 digits from N = 7141 on, and
        # printing it raised ValueError instead of ResourceLimitError
        with pytest.raises(ResourceLimitError,
                           match=f"^n_spins={n} exceeds the cap 10: .* 16\\*4\\^N = "
                                 f"2\\^{2 * n + 4} bytes "):
            exact.check_cap(n)

    def test_only_check_cap_takes_a_cap(self):
        takes_cap = sorted(name for name in exact.__all__ if callable(getattr(exact, name))
                           and "n_cap" in inspect.signature(getattr(exact, name)).parameters)
        assert takes_cap == ["check_cap"]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_bytes_as_the_kron_chain(self, n):
        # the diagonal is formed by the kron chain's own products, in its order
        for p in (0.95, 0.3, 1.0, 0.7, 1e-3):
            single = (exact.IDENTITY_2 + p * exact.SIGMA_Z) / 2.0
            ref = np.array([[1.0]], dtype=complex)
            for _ in range(n):
                ref = np.kron(ref, single)
            assert exact.build_initial_state(n, p).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, np.nan])
    def test_polarization_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="polarization_p"):
            exact.build_initial_state(2, p)


class TestTactHamiltonian:
    def test_single_spin_is_zero(self):
        assert np.all(exact.tact_hamiltonian(1, 0.7) == 0)

    def test_two_spin_hand_expansion(self):
        j = 0.3
        h = exact.tact_hamiltonian(2, j)
        # 2J (sx sx - sy sy): only |00><11| + h.c. survive, amplitude 4J
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = 4 * j
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_pauli_rate_factor_matches_gaussian_rate(self):
        # driven at J / PAULI_TACT_RATE_FACTOR, the oracle's short-time
        # minimal transverse variance follows the Gaussian engine's
        # (1/2) e^{-2 kappa t} * 2 N P with kappa = J N P (ratio ~1.016 at
        # N = 6; ~0.785 if the oracle were driven at J itself)
        n, p, j, kappa_t = 6, 1.0, 1.0, 0.05
        kappa = j * n * p
        rho = exact.build_initial_state(n, p)
        gen = exact.squeeze_generator(n, j / core.PAULI_TACT_RATE_FACTOR)
        out = exact.evolve(rho, [gen], kappa_t / kappa)
        min_var, _ = exact.collective_moments(out, n).transverse_extrema()
        gaussian = 0.5 * np.exp(-2 * kappa_t) * 2 * n * p
        assert min_var / gaussian == pytest.approx(1.0, abs=0.03)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("j", [0.3, -1.7, 1e-3])
    def test_matches_ordered_pair_sum(self, n, j):
        sx = [exact.site_operator(exact.SIGMA_X, i, n) for i in range(n)]
        sy = [exact.site_operator(exact.SIGMA_Y, i, n) for i in range(n)]
        pairs = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for i in range(n):
            for k in range(n):
                if i != k:
                    pairs += j * (sx[i] @ sx[k] - sy[i] @ sy[k])
        h = exact.tact_hamiltonian(n, j)
        assert np.max(np.abs(h - pairs)) <= 1e-15 * abs(j)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_collective_sums_and_hamiltonians_equal_site_sums(self, n):
        # the per-site embeddings are the oracle; every entry is a small
        # integer before the one product with J or B, so equality is exact
        j, b = 0.37, -1.3
        zero = np.zeros((2 ** n, 2 ** n), dtype=complex)
        sx, sy, sz = ([exact.site_operator(pauli, i, n) for i in range(n)]
                      for pauli in (exact.SIGMA_X, exact.SIGMA_Y, exact.SIGMA_Z))
        ops = exact.spin_operators(n)
        assert np.array_equal(ops.collective_x, sum(sx, zero))
        assert np.array_equal(ops.collective_y, sum(sy, zero))
        assert np.array_equal(ops.collective_z, sum(sz, zero))
        # written from the basis bits, the sums keep the site sums' bits,
        # signed zeros included
        for op, sites in ((ops.collective_x, sx), (ops.collective_y, sy),
                          (ops.collective_z, sz)):
            assert op.tobytes() == sum(sites, zero).tobytes()
        pairs = sum((sx[i] @ sx[k] - sy[i] @ sy[k]
                     for i in range(n) for k in range(n) if i != k), zero)
        assert np.array_equal(exact.tact_hamiltonian(n, j), j * pairs)
        assert np.array_equal(exact.field_hamiltonian(n, b),
                              sum((b * (sy[i] - sx[i]) for i in range(n)), zero))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_bits_as_collective_square_difference(self, n):
        # written at the pair flips that L1's gauge blocks and rate_bound read:
        # the same bits as the collective square difference, signed zeros included
        ops = exact.spin_operators(n)
        cx, cy = ops.collective_x, ops.collective_y
        for j in (0.37, -1.7, 1e-3, -0.0):
            assert exact.tact_hamiltonian(n, j).tobytes() == \
                (j * (cx @ cx - cy @ cy)).tobytes()

    def test_spin_operators_peak_memory(self):
        # the three collective sums (3.01 state sizes at N = 8) and a few
        # 2^N index vectors: written from the basis bits, with no kron chain
        n = 8
        tracemalloc.start()
        try:
            exact.spin_operators(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 16 * 4 ** n

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rate_bound_from_parity_blocks_is_the_dense_spectral_radius(self, n):
        for j in (0.37, -1.7, 1e-3, -0.0):
            dense = 2.0 * np.max(np.abs(np.linalg.eigvalsh(exact.tact_hamiltonian(n, j))))
            assert abs(exact.squeeze_generator(n, j).rate_bound - dense) <= 1e-14 * dense

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_traceless_and_hermitian(self, n):
        h = exact.tact_hamiltonian(n, 0.11)
        assert abs(np.trace(h)) < 1e-12
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


class TestDepolarizer:
    def test_maximally_mixed_fixed_point(self):
        n = 3
        rho = np.eye(2 ** n, dtype=complex) / 2 ** n
        out = exact.apply_depolarizer(rho, 0.4, n)
        assert np.max(np.abs(out)) < 1e-14

    def test_single_spin_hand_computation(self):
        gamma = 0.3
        rho = (np.eye(2) + exact.SIGMA_Z) / 2
        out = exact.apply_depolarizer(rho, gamma, 1)
        np.testing.assert_allclose(out, -2 * gamma * exact.SIGMA_Z, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_annihilating_on_random_hermitian(self, n):
        rho = random_hermitian_unit_trace(2 ** n)
        out = exact.apply_depolarizer(rho, 0.7, n)
        assert abs(np.trace(out)) < 1e-12

    def test_matches_dense_superoperator(self):
        n = 2
        gen = exact.depolarize_generator(n, 0.25)
        rho = random_hermitian_unit_trace(4)
        via_dense = (gen.dense() @ rho.flatten()).reshape(4, 4)
        np.testing.assert_allclose(gen.apply(rho), via_dense, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4),
           gamma=st.floats(1e-3, 10.0, allow_nan=False))
    def test_partial_trace_identity_on_any_operator(self, data, n, gamma):
        # X A X + Y A Y + Z A Z = 2 Tr(A) I - A holds for any 2x2 A, so the
        # partial-trace form must match the Pauli-sum superoperator on
        # complex, non-Hermitian, non-unit-trace input too, contiguous
        # or not (a transposed view)
        dim = 2 ** n
        parts = arrays(np.float64, (2, dim, dim),
                       elements=st.floats(-1.0, 1.0, allow_nan=False))
        re, im = data.draw(parts)
        dense = exact.depolarize_generator(n, gamma).dense()
        for a in (re + 1j * im, (re + 1j * im).T):
            via_dense = (dense @ a.flatten()).reshape(dim, dim)
            out = exact.apply_depolarizer(a, gamma, n)
            assert np.max(np.abs(out - via_dense)) <= 1e-13 * gamma


class TestHamiltonianKernel:
    """One product per application, valid on Hermitian states."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5),
           rate=st.floats(1e-3, 10.0, allow_nan=False))
    def test_matches_dense_superoperator_on_hermitian(self, data, n, rate):
        # squeeze: real H (one real GEMM); field: complex H (one complex
        # product); both on contiguous and transposed (non-contiguous) input
        dim = 2 ** n
        parts = arrays(np.float64, (2, dim, dim),
                       elements=st.floats(-1.0, 1.0, allow_nan=False))
        re, im = data.draw(parts)
        m = re + 1j * im
        rho = m + m.conj().T
        scale = np.linalg.norm(rho)
        if scale > 0:
            rho /= scale
        for gen, h in ((exact.squeeze_generator(n, rate), exact.tact_hamiltonian(n, rate)),
                       (exact.field_generator(n, rate), exact.field_hamiltonian(n, rate))):
            dense = gen.dense()
            h_norm = np.linalg.norm(h, 2)
            for a in (rho, rho.T):
                via_dense = (dense @ a.flatten()).reshape(dim, dim)
                assert np.max(np.abs(gen.apply(a) - via_dense)) <= 1e-13 * h_norm

    @pytest.mark.parametrize("first", ["squeeze", "field"])
    def test_apply_and_evolve_exactly_hermitian(self, first):
        n = 4
        rho = exact.build_initial_state(n, 0.9)
        ham = (exact.squeeze_generator(n, 0.2) if first == "squeeze"
               else exact.field_generator(n, 0.7))
        gens = [ham, exact.depolarize_generator(n, 0.1)]
        state = exact.evolve(rho, gens, 0.6)
        assert np.array_equal(state, state.conj().T)
        for gen in gens:
            for x in (rho, state):
                out = gen.apply(x)
                assert np.array_equal(out, out.conj().T)

    def test_evolve_rejects_non_hermitian_state(self):
        # measured as in channel_residuals, against exact.HERMITICITY_TOL
        rho = exact.build_initial_state(2, 0.9)
        rho[0, 1] += 1e-6
        gens = [exact.squeeze_generator(2, 0.2)]
        with pytest.raises(ValueError, match="not Hermitian"):
            exact.evolve(rho, gens, 0.5)
        rho[0, 1] += 1e-4
        with pytest.raises(ValueError, match="not Hermitian"):
            exact.evolve(rho, gens, 0.5)


class TestEvolve:
    def test_depolarizing_decay_single_spin(self):
        rho = exact.build_initial_state(1, 1.0)
        l2 = exact.depolarize_generator(1, 0.1)
        out = exact.evolve(rho, [l2], 1.0)
        ops = exact.spin_operators(1)
        assert exact.measure(out, ops.collective_z) == pytest.approx(
            np.exp(-0.4), abs=1e-8)

    def test_zero_duration_identity(self):
        rho = exact.build_initial_state(2, 0.7)
        l2 = exact.depolarize_generator(2, 0.5)
        np.testing.assert_array_equal(exact.evolve(rho, [l2], 0.0), rho)

    def test_negative_duration_rejected(self):
        rho = exact.build_initial_state(2, 0.7)
        with pytest.raises(ValueError, match="duration"):
            exact.evolve(rho, [exact.depolarize_generator(2, 0.5)], -0.1)

    def test_unitary_evolution_conserves_purity_and_spectrum(self):
        rho = exact.build_initial_state(3, 0.7)
        l1 = exact.squeeze_generator(3, 0.3)
        out = exact.evolve(rho, [l1], 0.5)
        purity0 = np.trace(rho @ rho).real
        purity1 = np.trace(out @ out).real
        assert abs(purity1 - purity0) < 1e-8
        ev0 = np.sort(np.linalg.eigvalsh(rho))
        ev1 = np.sort(np.linalg.eigvalsh((out + out.conj().T) / 2))
        assert np.max(np.abs(ev0 - ev1)) < 1e-8

    def test_rk4_matches_dense_exponential(self):
        rho = exact.build_initial_state(3, 0.8)
        gens = [exact.squeeze_generator(3, 0.2),
                exact.depolarize_generator(3, 0.3),
                exact.field_generator(3, 0.7)]
        a = exact.evolve(rho, gens, 0.7)
        b = exact.evolve_expm(rho, gens, 0.7)
        assert np.max(np.abs(a - b)) < 1e-8

    @pytest.mark.parametrize("duration, gens", [(0.0, "both"), (0.4, "none")])
    def test_expm_without_a_pass_returns_a_copy(self, duration, gens):
        rho = exact.build_initial_state(3, 0.8)
        generators = ([exact.squeeze_generator(3, 0.2), exact.depolarize_generator(3, 0.3)]
                      if gens == "both" else [])
        out = exact.evolve_expm(rho, generators, duration)
        assert out is not rho
        np.testing.assert_array_equal(out, rho)

    def test_real_state_with_depolarizer_listed_first(self):
        # the depolarizer keeps a real input real; the Hamiltonian term
        # that follows it is complex
        rho = exact.build_initial_state(3, 0.8)
        gens = [exact.depolarize_generator(3, 0.3), exact.squeeze_generator(3, 0.2)]
        np.testing.assert_array_equal(exact.evolve(rho.real, gens, 0.7),
                                      exact.evolve(rho, gens, 0.7))

    def test_rk4_in_place_stages_match_textbook_rk4(self):
        # the Krylov pass gives the RK4 polynomial to round-off, not the
        # stage loop's bits
        n, duration, n_steps = 3, 0.7, 20
        rhs = generator_sum([exact.squeeze_generator(n, 0.2),
                             exact.depolarize_generator(n, 0.3)])
        rho = exact.build_initial_state(n, 0.8)
        before = rho.copy()
        ref = textbook_rk4(rho, rhs, duration, n_steps)
        got = exact._rk4(rho, rhs, duration, n_steps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.linalg.norm(rho)
        assert np.array_equal(rho, before)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), n_steps=st.integers(1, 300),
           kinds=st.sets(st.sampled_from(["squeeze", "depolarize", "field"]), min_size=1),
           rate=st.floats(1e-3, 5.0), step_rate=st.floats(1e-3, 0.1))
    def test_krylov_pass_is_the_textbook_rk4_polynomial(self, data, n, n_steps, kinds,
                                                        rate, step_rate):
        dim = 2 ** n
        re, im = data.draw(arrays(np.float64, (2, dim, dim),
                                  elements=st.floats(-1.0, 1.0, allow_nan=False)))
        m = re + 1j * im
        rho = m + m.conj().T
        make = {"squeeze": exact.squeeze_generator, "depolarize": exact.depolarize_generator,
                "field": exact.field_generator}
        gens = [make[kind](n, rate) for kind in sorted(kinds)]
        total = sum(g.rate_bound for g in gens)  # 0 for the squeeze alone at N = 1
        duration = n_steps * step_rate / total if total > 0 else 1.0
        rhs = generator_sum(gens)
        before = rho.copy()
        got = exact._rk4(rho, rhs, duration, n_steps)
        ref = textbook_rk4(rho, rhs, duration, n_steps)
        # max |rho| <= ||rho|| does not underflow; below the smallest normal
        # float no relative precision is left to compare
        bound = 1e-12 * np.max(np.abs(rho)) + np.finfo(float).tiny
        assert np.max(np.abs(got - ref)) <= bound
        assert np.array_equal(got, got.conj().T)
        assert np.array_equal(rho, before)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
    def test_krylov_pass_keeps_a_small_trace(self):
        # the property above at one draw: at N = 1 with {depolarize, squeeze}
        # at rate 1, 128 steps at step rate 0.0625, the Krylov pass returns a
        # trace of 1.9e-15 where textbook RK4 keeps 5.7e-12, 2.849e-12 apart
        d, n_steps = 2.85e-12, 128
        rho = np.array([[d, 1.0], [1.0, d]], dtype=complex)
        gens = [exact.depolarize_generator(1, 1.0), exact.squeeze_generator(1, 1.0)]
        duration = n_steps * 0.0625 / sum(g.rate_bound for g in gens)
        rhs = generator_sum(gens)
        got = exact._rk4(rho, rhs, duration, n_steps)
        assert np.max(np.abs(got - textbook_rk4(rho, rhs, duration, n_steps))) <= 1e-12

    def test_every_restart_at_a_small_basis_cap(self, monkeypatch):
        monkeypatch.setattr(exact, "_KRYLOV_CAP", 9)
        n, n_steps = 3, 100
        gens = [exact.squeeze_generator(n, 0.3), exact.depolarize_generator(n, 0.1),
                exact.field_generator(n, 0.2)]
        duration = n_steps * 0.05 / sum(g.rate_bound for g in gens)
        rhs = generator_sum(gens)
        rho = exact.build_initial_state(n, 0.8)
        stats = {}
        got = exact._rk4(rho, rhs, duration, n_steps, stats)
        assert stats["krylov_dim"] == 9 and stats["applies"] >= 3 * 9
        ref = textbook_rk4(rho, rhs, duration, n_steps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.linalg.norm(rho)

    def test_breakdown_at_a_fixed_point(self):
        # L(I/d) = 0 up to the depolarizer's rounding: the basis stops at
        # one vector and the state is kept
        n = 3
        rhs = generator_sum([exact.squeeze_generator(n, 0.3), exact.depolarize_generator(n, 0.1),
                             exact.field_generator(n, 0.2)])
        rho = np.eye(2 ** n, dtype=complex) / 2 ** n
        stats = {}
        got = exact._rk4(rho, rhs, 2.0, 50, stats)
        assert stats == {"applies": 1, "krylov_dim": 1}
        assert np.max(np.abs(got - rho)) <= 1e-15
        assert np.max(np.abs(got - textbook_rk4(rho, rhs, 2.0, 50))) <= 1e-15

    def test_zero_and_subnormal_states(self):
        # a zero state stays zero with no application; a state whose
        # squared entries underflow is still integrated
        rhs = generator_sum([exact.squeeze_generator(2, 0.3), exact.depolarize_generator(2, 0.1)])
        stats = {}
        zero = np.zeros((4, 4), dtype=complex)
        assert np.array_equal(exact._rk4(zero, rhs, 1.0, 20, stats), zero)
        assert stats == {"applies": 0, "krylov_dim": 0}
        tiny = exact.build_initial_state(2, 0.9) * 1e-300
        got = exact._rk4(tiny, rhs, 1.0, 20)
        ref = textbook_rk4(tiny, rhs, 1.0, 20)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(tiny))
        assert np.max(np.abs(got)) > 0

    def test_breakdown_of_a_depolarizer_on_a_diagonal_state(self):
        # diagonal states stay diagonal, where L2 has N + 1 eigenvalues
        # (-4 Gamma times the number of sites a Z-string acts on)
        n, n_steps = 4, 200
        rhs = generator_sum([exact.depolarize_generator(n, 0.3)])
        rho = np.diag(np.random.default_rng(3).uniform(0.0, 1.0, 2 ** n)).astype(complex)
        stats = {}
        got = exact._rk4(rho, rhs, 3.0, n_steps, stats)
        assert stats["applies"] == stats["krylov_dim"] <= n + 1
        ref = textbook_rk4(rho, rhs, 3.0, n_steps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.linalg.norm(rho)
        assert np.array_equal(got, np.diag(np.diag(got)))

    @pytest.mark.parametrize("k", range(3, 7))
    def test_rk4_on_a_classical_rate_equation(self, k):
        # dp/dt = R p on a 1-D real vector: _rk4 takes any array, not only a
        # Hermitian matrix
        rng = np.random.default_rng(700 + k)
        rates = rng.uniform(0.0, 1.0, (k, k))
        np.fill_diagonal(rates, 0.0)
        rates -= np.diag(rates.sum(axis=0))  # columns sum to 0
        p = rng.uniform(0.0, 1.0, k)
        p /= p.sum()
        duration, n_steps = 1.0, 64
        h, r = duration / n_steps, np.linalg.norm(rates, 1)
        # with I + hR >= 0, P(hR) = 3/8 + B/3 + B^2/4 + B^4/24 (B = I + hR) is
        # column stochastic, and so is e^{hR}: each step adds at most
        # ||P(hR) - e^{hR}||_1 <= (hr)^5 e^{hr} / 120 to the 1-norm error
        assert h * np.max(-np.diag(rates)) <= 1.0
        truncation = n_steps * (h * r) ** 5 * np.exp(h * r) / 120.0
        rhs = lambda q: rates @ q  # noqa: E731
        before = p.copy()
        stats = {}
        got = exact._rk4(p, rhs, duration, n_steps, stats)
        assert got.shape == p.shape and got.dtype == np.float64
        assert np.array_equal(p, before)
        ref = textbook_rk4(p, rhs, duration, n_steps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(p))
        assert np.sum(np.abs(got - expm(duration * rates) @ p)) <= truncation + 1e-14
        assert stats.keys() == {"applies", "krylov_dim"}
        assert 1 <= stats["krylov_dim"] <= stats["applies"]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_per_site_decay_law(self, n):
        # every single-site <sigma_z> decays as P exp(-4 Gamma T)
        p, gamma, t = 0.8, 0.35, 0.9
        rho = exact.build_initial_state(n, p)
        out = exact.evolve(rho, [exact.depolarize_generator(n, gamma)], t)
        for site in range(n):
            assert exact.measure(out, exact.site_operator(exact.SIGMA_Z, site, n)) == \
                pytest.approx(p * np.exp(-4 * gamma * t), abs=1e-6)

    def test_stats_report_the_accepted_pass(self):
        n, t = 3, 0.6
        rho = exact.build_initial_state(n, 0.9)
        calls = []
        l1 = exact.squeeze_generator(n, 0.2)
        counted = dataclasses.replace(l1, apply=lambda r: calls.append(1) or l1.apply(r))
        gens = [counted, exact.depolarize_generator(n, 0.1)]
        stats = {"stale": 1}
        out = exact.evolve(rho, gens, t, stats=stats)
        assert stats["applies"] == len(calls)  # one generator-sum application each
        assert 1 <= stats["krylov_dim"] <= min(stats["applies"], exact._KRYLOV_CAP)
        np.testing.assert_array_equal(out, exact.evolve(rho, gens, t))
        rate = sum(g.rate_bound for g in gens)
        assert stats["n_steps"] == max(16, int(np.ceil(t * rate / 0.05)))
        assert stats["refinements"] == 0 and stats["stale"] == 1
        assert stats["residuals"] == exact.channel_residuals(out)
        trace_dev, herm, min_eig = stats["residuals"]
        assert stats["worst_residual"] == max(trace_dev / 1e-9, herm / 1e-10,
                                              max(0.0, -min_eig) / 1e-8) <= 1.0

    def test_stats_filled_when_refinements_run_out(self, monkeypatch):
        # every pass fails its check: trace off by 1e-6 against 1e-9
        monkeypatch.setattr(exact, "channel_residuals", lambda rho: (1e-6, 0.0, 0.0))
        monkeypatch.setattr(exact, "_MAX_REFINEMENTS", 2)
        rho = exact.build_initial_state(2, 0.9)
        gens = [exact.squeeze_generator(2, 0.2), exact.depolarize_generator(2, 0.1)]
        stats = {}
        with pytest.raises(IntegrationError) as info:
            exact.evolve(rho, gens, 0.3, stats)
        assert stats["refinements"] == 2 and stats["n_steps"] == 16 * 4
        assert stats["residuals"] == (1e-6, 0.0, 0.0)
        assert stats["worst_residual"] == info.value.worst_residual == pytest.approx(1e3)

    @pytest.mark.parametrize("rate", [np.inf, np.nan, 8e307])
    def test_step_count_that_is_not_finite_is_an_integration_error(self, rate):
        # 8e307 is finite, but T x rate / 0.05 overflows to inf
        gen = exact.Superoperator(rate_bound=rate, apply=lambda r: 0.0 * r, dense=None,
                                  keeps_parity=True)
        stats = {}
        with pytest.raises(IntegrationError, match=r"no finite RK4 step count: T x rate"):
            exact.evolve(exact.build_initial_state(2, 0.9), [gen], 1.0, stats)
        assert stats == {"n_steps": 0, "refinements": 0}

    @pytest.mark.parametrize("duration, gens", [(0.0, "both"), (0.5, "none")])
    def test_stats_without_a_pass(self, duration, gens):
        rho = exact.build_initial_state(2, 0.9)
        generators = ([exact.squeeze_generator(2, 0.2), exact.depolarize_generator(2, 0.1)]
                      if gens == "both" else [])
        stats = {}
        exact.evolve(rho, generators, duration, stats=stats)
        assert stats == {"n_steps": 0, "refinements": 0}

    # n_steps of one verify row's joint, depolarize-only and squeeze-only
    # evolves (alpha = 5, 4 Gamma T = 1, P = 1, Gamma = 0.225), recorded with
    # the squeeze rate bound from a dense complex eigvalsh; some sit on a ceil
    # step (T rate / exact._TARGET_STEP_RATE is 440.0 for the N = 2 joint
    # evolve, so a rate bound one ulp larger gives 441)
    VERIFY_STEPS = {2: (440, 40, 400), 3: (522, 61, 462), 4: (773, 80, 693),
                    5: (947, 100, 847), 6: (1174, 121, 1054), 7: (1382, 140, 1242)}

    @pytest.mark.parametrize("n", range(2, 8))
    def test_verify_step_counts_are_pinned(self, n):
        gamma, alpha = 0.225, 5.0
        t = 1.0 / (4.0 * gamma)
        rho = exact.build_initial_state(n, 1.0)
        l1 = exact.squeeze_generator(n, 4.0 * gamma * alpha / n)
        l2 = exact.depolarize_generator(n, gamma)
        counts = []

        def run(state, gens):
            stats = {}
            out = exact.evolve(state, gens, t, stats=stats)
            counts.append((stats["n_steps"], stats["refinements"]))
            return out

        run(rho, [l1, l2])
        run(run(rho, [l2]), [l1])  # the split: depolarize, then squeeze
        assert counts == [(steps, 0) for steps in self.VERIFY_STEPS[n]]

    def test_invariants_after_evolution(self):
        rho = exact.build_initial_state(4, 0.9)
        gens = [exact.squeeze_generator(4, 0.2), exact.depolarize_generator(4, 0.1)]
        out = exact.evolve(rho, gens, 1.2)
        trace_dev, herm, min_eig = exact.channel_residuals(out)
        assert trace_dev <= 1e-9
        assert herm <= 1e-10
        assert min_eig >= -1e-8


class TestMeasure:
    def test_maximally_mixed_collective_z(self):
        n = 3
        rho = np.eye(2 ** n, dtype=complex) / 2 ** n
        ops = exact.spin_operators(n)
        assert exact.measure(rho, ops.collective_z) == pytest.approx(0.0, abs=1e-14)

    def test_product_state_linearity(self):
        n, p = 4, 0.7
        rho = exact.build_initial_state(n, p)
        ops = exact.spin_operators(n)
        assert exact.measure(rho, ops.collective_z) == pytest.approx(n * p, abs=1e-12)

    def test_collective_x_squared_brute_force(self):
        # brute-force double sum over sites at N=3
        n, p = 3, 0.55
        rho = exact.build_initial_state(n, p)
        sx = [exact.site_operator(exact.SIGMA_X, i, n) for i in range(n)]
        brute = sum(np.trace(rho @ sx[i] @ sx[j]).real
                    for i in range(n) for j in range(n))
        ops = exact.spin_operators(n)
        via_op = exact.measure(rho, ops.collective_x @ ops.collective_x)
        assert via_op == pytest.approx(brute, abs=1e-12)
        assert via_op == pytest.approx(n, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact.measure(np.eye(2) / 2, np.eye(4))

    def test_imaginary_residual_rejected(self):
        rho = np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex)  # not Hermitian
        with pytest.raises(NumericalConsistencyError):
            exact.measure(rho, exact.SIGMA_Y)


class TestCollectiveMoments:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), evolved=st.booleans())
    def test_matrix_free_moments_match_dense_traces(self, n, seed, evolved):
        # Tr(rho C_a) and Re Tr(rho C_a C_b) read from the entries within two
        # bit flips of the diagonal, against dense products of the site sums,
        # on any Hermitian matrix (any trace, not positive) or on a state
        # evolved with a field (mean off every axis)
        rng = np.random.default_rng(seed)
        dim = 2 ** n
        if evolved:
            j, gamma, b = rng.uniform(0.01, 1.0, 3)
            t = rng.uniform(0.01, 0.3)
            rho = exact.evolve(exact.build_initial_state(n, rng.uniform(0.1, 1.0)),
                               [exact.squeeze_generator(n, j),
                                exact.depolarize_generator(n, gamma),
                                exact.field_generator(n, b)], t)
        else:
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = (m + m.conj().T) * 10.0 ** rng.uniform(-3, 3)
        zero = np.zeros((dim, dim), dtype=complex)
        sums = [sum((exact.site_operator(pauli, i, n) for i in range(n)), zero)
                for pauli in (exact.SIGMA_X, exact.SIGMA_Y, exact.SIGMA_Z)]
        moments = exact.collective_moments(rho, n)
        bound = 1e-13 * n ** 2 * np.sum(np.abs(rho))
        assert moments.n_spins == n
        assert np.max(np.abs(moments.mean - [np.trace(rho @ a).real for a in sums])) <= bound
        assert np.max(np.abs(moments.second - [[np.trace(rho @ a @ b).real for b in sums]
                                               for a in sums])) <= bound

    def test_imaginary_mean_rejected(self):
        rho = np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex)  # Tr(rho Y) = i
        with pytest.raises(NumericalConsistencyError):
            exact.collective_moments(rho, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact.collective_moments(np.eye(2) / 2, 2)

    def test_views_read_the_record(self):
        rho = exact.evolve(exact.build_initial_state(4, 0.9),
                           [exact.squeeze_generator(4, 0.05),
                            exact.depolarize_generator(4, 0.1)], 0.3)
        ops, moments = exact.spin_operators(4), exact.collective_moments(rho, 4)
        assert [exact.squeezing_parameter_exact(rho, ops, c)
                for c in (exact.KITAGAWA_UEDA, exact.WINELAND)] == list(moments.xi2())

    def test_variance_allocates_less_than_one_state(self):
        # the moment pass gathers O(N^2 2^N) entries; the operator products
        # it replaced allocated several 2^N x 2^N matrices
        n = 8
        rho = exact.build_initial_state(n, 0.95)
        tracemalloc.start()
        try:
            exact.collective_moments(rho, n).transverse_extrema()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4 ** n


class TestSqueezingParameter:
    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="unknown convention"):
            exact.squeezing_parameter_exact(exact.build_initial_state(4, 1.0),
                                            exact.spin_operators(4), "ku")

    def test_coherent_state_both_conventions(self):
        rho = exact.build_initial_state(4, 1.0)
        ops = exact.spin_operators(4)
        assert exact.squeezing_parameter_exact(rho, ops, "kitagawa_ueda") == \
            pytest.approx(1.0, abs=1e-10)
        assert exact.squeezing_parameter_exact(rho, ops, "wineland") == \
            pytest.approx(1.0, abs=1e-10)

    def test_partially_polarized_product_state(self):
        p = 0.5
        rho = exact.build_initial_state(3, p)
        ops = exact.spin_operators(3)
        assert exact.squeezing_parameter_exact(rho, ops, "kitagawa_ueda") == \
            pytest.approx(1.0, abs=1e-10)
        assert exact.squeezing_parameter_exact(rho, ops, "wineland") == \
            pytest.approx(1 / p ** 2, abs=1e-10)

    def test_short_tact_evolution_squeezes(self):
        rho = exact.build_initial_state(4, 1.0)
        out = exact.evolve(rho, [exact.squeeze_generator(4, 0.05)], 0.5)
        min_var, _ = exact.collective_moments(out, 4).transverse_extrema()
        assert min_var < 4.0

    def test_rotation_about_mean_axis_invariance(self):
        rho = exact.build_initial_state(4, 1.0)
        out = exact.evolve(rho, [exact.squeeze_generator(4, 0.05)], 0.5)
        ops = exact.spin_operators(4)
        xi = exact.squeezing_parameter_exact(out, ops, "wineland")
        u = expm(-0.35j * ops.collective_z)
        rotated = u @ out @ u.conj().T
        assert exact.squeezing_parameter_exact(rotated, ops, "wineland") == \
            pytest.approx(xi, abs=1e-8)

    def test_undefined_direction(self):
        n = 2
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(UndefinedDirectionError):
            exact.squeezing_parameter_exact(rho, exact.spin_operators(n))


class TestFactorization:
    def test_zero_coupling_commutes(self):
        assert exact.factorization_error(3, 0.0, 0.4, 1.0, 0.9) < 1e-8

    def test_zero_dissipation_commutes(self):
        assert exact.factorization_error(3, 0.3, 0.0, 1.0, 0.9) < 1e-8

    def test_matches_direct_composition(self):
        n, j, gamma, t, p = 2, 0.5, 0.25, 1.0, 1.0
        rho = exact.build_initial_state(n, p)
        l1 = exact.squeeze_generator(n, j)
        l2 = exact.depolarize_generator(n, gamma)
        joint = exact.evolve(rho, [l1, l2], t)
        split = exact.evolve(exact.evolve(rho, [l2], t), [l1], t)
        direct = exact.trace_norm(joint - split)
        assert exact.factorization_error(n, j, gamma, t, p) == \
            pytest.approx(direct, rel=1e-10)

    def test_field_and_depolarizer_commute(self):
        rho = exact.build_initial_state(3, 0.8)
        l2 = exact.depolarize_generator(3, 0.3)
        l3 = exact.field_generator(3, 0.7)
        assert exact.factorization_error_pair(rho, l2, l3, 0.8) <= 1e-8


class TestCommutatorNorm:
    def test_degenerate_cases(self):
        assert exact.commutator_action_norm(2, 0.0, 0.4, 0.9) == (0.0, True)
        assert exact.commutator_action_norm(2, 0.3, 0.0, 0.9) == (0.0, True)

    def test_generic_point_positive(self):
        val, degenerate = exact.commutator_action_norm(2, 0.4, 0.3, 0.8)
        assert not degenerate
        assert val > 0.0

    def test_suppression_with_ensemble_size(self):
        # fixed alpha protocol: J = 4 Gamma alpha / (N P)
        alpha, gamma, p = 5.0, 0.25, 1.0
        vals = [exact.commutator_action_norm(n, 4 * gamma * alpha / (n * p),
                                             gamma, p).value
                for n in range(2, 7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestThresholdAtTimeZero:
    """The paper's threshold claim at t = 0, exactly, with no integration:
    collective_moments is linear in rho, so on L1(rho0) + L2(rho0) it reads
    the moments' t = 0 slopes."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_slopes_and_the_wineland_threshold(self, n):
        rng = np.random.default_rng(900 + n)
        j, p = rng.uniform(0.05, 0.5), rng.uniform(0.3, 1.0)
        kappa = 4.0 * j * n * p  # the oracle's Pauli-unit contraction rate
        alpha_c = n / (n - 1.0)  # alpha = kappa / (4 Gamma) at the threshold
        rho = exact.build_initial_state(n, p)
        start = exact.collective_moments(rho, n)
        min_var = start.transverse_extrema()[0]
        for alpha, sign in ((1.1 * alpha_c, -1.0), (0.9 * alpha_c, 1.0)):
            gamma = kappa / (4.0 * alpha)
            l1, l2 = exact.squeeze_generator(n, j), exact.depolarize_generator(n, gamma)
            slope = exact.collective_moments(l1.apply(rho) + l2.apply(rho), n)
            least = np.linalg.eigvalsh(slope.second[:2, :2])[0]
            assert least == pytest.approx(-2.0 * kappa * (n - 1), rel=1e-12)
            decay = slope.mean[2] / start.mean[2]
            assert decay == pytest.approx(-4.0 * gamma, rel=1e-12)
            # xi2_W = N Var_min / <Cz>^2, with Var_min(0) = N
            log_slope = least / min_var - 2.0 * decay
            assert log_slope == pytest.approx(8.0 * gamma - 2.0 * kappa * (n - 1) / n,
                                              rel=1e-12)
            assert np.sign(log_slope) == sign


class TestTraceNorm:
    def test_matches_singular_value_sum_for_hermitian(self):
        m = random_hermitian_unit_trace(8)
        m = m - np.eye(8) / 8  # traceless Hermitian difference
        assert exact.trace_norm(m) == pytest.approx(
            np.sum(np.linalg.svd(m, compute_uv=False)), rel=1e-10)


def in_sector_hermitian(n, rng):
    """A random Hermitian 2^N x 2^N matrix with every entry of mixed parity
    (popcount(r) + popcount(c) odd) set to 0."""
    dim = 2 ** n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    parity = exact._basis_bits(n).sum(axis=1) % 2
    return np.where(parity[:, None] == parity, m + m.conj().T, 0.0)


def picking(monkeypatch, pick=lambda space, n: space):
    """Run every space choice through `pick(chosen space, n)`, and record
    the names of the spaces chosen."""
    names, space_of = [], exact._space_of

    def patched(m, generators=()):
        space = pick(space_of(m, generators)[0], m.shape[0].bit_length() - 1)
        names.append(space.name)
        return space, space.restrict(m)

    monkeypatch.setattr(exact, "_space_of", patched)
    return names


class TestParitySector:
    """The even and odd popcount sectors: which space `_space_of` picks, the
    sectors' real gauge for every TACT state, the dense space for everything
    else."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_generators_keep_the_sector_and_match_on_the_blocks(self, n):
        # any in-sector state, not only a gauge-real one: keeps_parity is what
        # `_space_of` reads before it picks the gauge
        rng = np.random.default_rng(100 + n)
        sectors = exact._real_gauge(n).sectors
        parity = exact._basis_bits(n).sum(axis=1) % 2
        mixed = parity[:, None] != parity
        for _ in range(3):
            rho = in_sector_hermitian(n, rng)
            l1, l2 = exact.squeeze_generator(n, 0.37), exact.depolarize_generator(n, 0.21)
            for gen in (l1, l2):
                assert gen.keeps_parity
                dense = gen.apply(rho)
                assert np.all(dense[mixed] == 0.0)
                assert np.array_equal(dense, dense.conj().T)
            # the depolarizer kernel reads only the sector layout, not the
            # gauge's phases: complex sector blocks give the dense bits
            blocks = np.stack([rho[s][:, s] for s in sectors])
            on_blocks = exact.apply_depolarizer(blocks, 0.21, n)
            assert on_blocks.shape == (2, 2 ** (n - 1), 2 ** (n - 1))
            dense = l2.apply(rho)
            assert np.array_equal(on_blocks, np.stack([dense[s][:, s] for s in sectors]))

    def test_one_layout_per_n_over_an_exact_run(self, tmp_path, monkeypatch):
        # 3 N x 4 rows, with factorization: every generator, space and
        # trace norm of an N reads the one gauge built for it
        from tactsqueeze import cli
        built, init = [], exact._RealGauge.__init__

        def counting(self, n_spins):
            built.append(n_spins)
            init(self, n_spins)

        monkeypatch.setattr(exact._RealGauge, "__init__", counting)
        exact._real_gauge.cache_clear()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[params]\nj_coupling = 0.05\n[sweep]\n"
                       "axis0 = n_spins 2 4 3 linear\naxis1 = gamma 0.02 0.2 2 linear\n"
                       "axis2 = t_squeeze 0.02 0.1 2 linear\n[run]\nwith_factorization = true\n")
        out = tmp_path / "o.csv"
        assert cli.main(["exact", "--config", str(cfg), "--out", str(out), "--no-timing"]) == 0
        assert out.read_text().count(",ok\n") == 12
        assert built == [2, 3, 4]

    def test_field_generator_leaves_the_sector(self):
        assert not exact.field_generator(3, 0.7).keeps_parity
        rho = exact.build_initial_state(3, 0.8)
        assert exact._space_of(exact.field_generator(3, 0.7).apply(rho))[0] is exact._DENSE

    @staticmethod
    def spaces_of_rk4(monkeypatch):
        """The state shape of every _rk4 pass, recorded."""
        shapes, rk4 = [], exact._rk4

        def spy(rho, rhs, duration, n_steps, stats=None):
            shapes.append(rho.shape)
            return rk4(rho, rhs, duration, n_steps, stats)

        monkeypatch.setattr(exact, "_rk4", spy)
        return shapes

    def test_squeeze_and_depolarize_run_in_the_sector(self, monkeypatch):
        shapes = self.spaces_of_rk4(monkeypatch)
        rho = exact.build_initial_state(4, 0.9)
        exact.evolve(rho, [exact.squeeze_generator(4, 0.2),
                           exact.depolarize_generator(4, 0.1)], 0.5)
        assert shapes == [(2, 8, 8)]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_mixed_parity_entry_or_field_runs_dense_and_matches_expm(self, monkeypatch, n):
        shapes = self.spaces_of_rk4(monkeypatch)
        dim = 2 ** n
        l1, l2 = exact.squeeze_generator(n, 0.3), exact.depolarize_generator(n, 0.2)
        l3 = exact.field_generator(n, 0.4)
        rho = exact.build_initial_state(n, 0.8)
        off = rho.copy()
        off[0, 1] = off[1, 0] = 0.01  # states 0 and 1 differ in one bit: mixed parity
        cases = [(off, [l1, l2]), (off, [l2]), (rho, [l1, l3]), (rho, [l3, l2]),
                 (rho, [l1, l2, l3])]
        for state, gens in cases:
            stats = {}
            got = exact.evolve(state, gens, 0.6, stats)
            assert shapes[-1] == (dim, dim) and stats["space"] == "dense"
            assert np.max(np.abs(got - exact.evolve_expm(state, gens, 0.6))) < 1e-8
        assert len(shapes) == len(cases)

    def test_every_oracle_row_runs_in_the_gauge(self, tmp_path, monkeypatch):
        # the traffic: no evolve, trace norm or commutator of an `exact`
        # (with_factorization) or `verify` row falls back to the dense space,
        # and none builds the dense H or applies an operator to a d x d state
        from tactsqueeze import cli
        names = picking(monkeypatch)
        dense_calls = []
        for name in ("tact_hamiltonian", "_commutator"):
            def spy(*args, _fn=getattr(exact, name), _name=name):
                dense_calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(exact, name, spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[params]\nj_coupling = 0.05\npolarization_p = 0.95\n"
                       "gamma = 0.2\nt_squeeze = 0.1\n[sweep]\n"
                       "axis = n_spins 2 8 7 linear\n[run]\nwith_factorization = true\n"
                       "[verify]\nn_min = 2\nn_max = 7\n")
        for command, rows in (("exact", 7), ("verify", 6)):
            out = tmp_path / f"{command}.csv"
            assert cli.main([command, "--config", str(cfg), "--out", str(out), "--no-timing"]) == 0
            assert out.read_text().count(",ok\n") == rows
        assert names and set(names) == {"gauge"}
        assert dense_calls == []


def krylov_mapped(array):
    """Whether the array's memory is (a view of) an mmap, as _rk4's basis is."""
    import mmap
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):  # np.frombuffer's base wraps the buffer
        base = base.obj
    return isinstance(base, mmap.mmap)


class TestRealGauge:
    """The real symmetric stack S^dag rho S, S = diag(e^{i pi cz/8}), integrated
    under the one _rk4."""

    # fixed before the run: gauge against dense, per oracle cell
    CELL_RTOL, CELL_ATOL = 1e-11, 1e-14

    @staticmethod
    def turned(m, n):
        """(-i)^q m on the sector entries, q = (cz(r) - cz(c))/4, by exact
        quarter turns (multiplying by 1, -1j, -1 or 1j rounds nothing), and
        the mixed-parity entries, which the gauge leaves out."""
        cz = n - 2 * exact._basis_bits(n).sum(axis=1)
        diff = cz[:, None] - cz
        mixed = diff % 4 != 0
        turns = np.array([1.0, -1j, -1.0, 1j])[(diff // 4) % 4]
        return np.where(mixed, 0.0, turns * m), m[mixed]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_state_under_squeeze_and_depolarize_is_gauge_real(self, n):
        rng = np.random.default_rng(300 + n)
        gauge = exact._real_gauge(n)
        for _ in range(2):
            p = rng.uniform(0.05, 1.0)
            rho = exact.build_initial_state(n, p)
            gens = [exact.squeeze_generator(n, rng.uniform(-0.5, 0.5)),
                    exact.depolarize_generator(n, rng.uniform(0.0, 0.3))]
            stats = {}
            out = exact.evolve(rho, gens, rng.uniform(0.05, 0.6), stats)
            assert stats["space"] == "gauge"
            turned, mixed = self.turned(out, n)
            assert not mixed.any() and not turned.imag.any()
            # restrict reads the turned real parts, block by block
            assert exact._space_of(out)[0] is gauge
            blocks = np.stack([turned.real[s][:, s] for s in gauge.sectors])
            assert np.array_equal(gauge.restrict(out), blocks)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_embed_then_restrict_is_the_identity_bit_for_bit(self, n):
        rng = np.random.default_rng(400 + n)
        gauge = exact._real_gauge(n)
        x = rng.normal(size=gauge.shape)
        x = x + np.swapaxes(x, -1, -2)
        x[0, 0, -1] = x[0, -1, 0] = -0.0  # signed zeros too
        x[-1, -1, 0] = x[-1, 0, -1] = 0.0
        m = gauge.embed(x)
        assert np.array_equal(m, m.conj().T)
        assert m.shape == (2 ** n, 2 ** n) and m.dtype == complex
        assert gauge.restrict(m).tobytes() == x.tobytes()
        diagonal = np.empty(2 ** n)  # q = 0 on the diagonal: its bits untouched
        for states, block in zip(gauge.sectors, x):
            diagonal[states] = block.diagonal()
        assert m.diagonal().real.tobytes() == diagonal.tobytes() and not m.diagonal().imag.any()
        turned, mixed = self.turned(m, n)
        assert not mixed.any() and not turned.imag.any()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_generators_on_the_gauge_stack_match_the_dense_ones(self, n):
        rng = np.random.default_rng(500 + n)
        gauge = exact._real_gauge(n)
        x = rng.normal(size=gauge.shape)
        x = x + np.swapaxes(x, -1, -2)
        rho = gauge.embed(x)
        l1, l2 = exact.squeeze_generator(n, -0.37), exact.depolarize_generator(n, 0.21)
        for gen in (l1, l2):
            on_stack = gen.apply(x)
            assert on_stack.dtype == np.float64 and on_stack.shape == gauge.shape
            assert np.array_equal(on_stack, np.swapaxes(on_stack, -1, -2))
            dense = gen.apply(rho)
            assert gauge.restrict(dense) is not None
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(on_stack - gauge.restrict(dense))) <= 1e-13 * scale
        # L2 is one kernel, with each entry's sums in the same order
        assert np.array_equal(l2.apply(x), gauge.restrict(l2.apply(rho)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_k_is_the_squeeze_operator_on_the_stack(self, n):
        # L1's gauge operator at J = 1; the rate bound, 2|J| times its spectral
        # radius, is checked against the dense H's at N = 1..9 by
        # TestTactHamiltonian::test_rate_bound_from_parity_blocks_is_the_dense_spectral_radius
        gauge = exact._real_gauge(n)
        k = gauge.k
        assert k.shape == gauge.shape and k.dtype == np.float64
        assert np.array_equal(k, -np.swapaxes(k, -1, -2))
        assert set(np.unique(k)) <= {-4.0, 0.0, 4.0}
        popcount = exact._basis_bits(n).sum(axis=1)
        h = exact.tact_hamiltonian(n, 1.0).real
        for s, states in enumerate(gauge.sectors):
            larger = popcount[states][:, None] > popcount[states]
            assert np.array_equal(k[s] > 0, (k[s] != 0) & larger)
            assert np.array_equal(np.abs(k[s]), h[states][:, states])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_embed_is_exactly_hermitian_whatever_the_lower_triangle(self, n):
        # the hermiticity_residual column reads 0 because `embed` mirrors
        # each block's upper triangle, in both spaces
        rng = np.random.default_rng(800 + n)
        dim = 2 ** n
        gauge, dense = exact._real_gauge(n), exact._DENSE
        stacks = [(gauge, rng.normal(size=gauge.shape)),
                  (dense, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))]
        for space, stack in stacks:
            upper = np.triu(stack, 1)
            mirror = upper + np.swapaxes(upper, -1, -2).conj()
            mirror += np.eye(stack.shape[-1]) * stack.real  # the diagonal's real part
            if n > 1:
                assert not np.array_equal(stack, mirror)
            m = space.embed(stack)
            assert m.shape == (dim, dim) and m.dtype == complex
            assert np.array_equal(m, m.conj().T)
            assert m.tobytes() == space.embed(mirror).tobytes()
            assert exact.channel_residuals(m)[1] == 0.0

    def test_every_rhs_input_is_a_view_of_the_krylov_basis(self):
        # no copy per application, in either space
        n = 4
        l1, l2 = exact.squeeze_generator(n, 0.3), exact.depolarize_generator(n, 0.2)
        l3 = exact.field_generator(n, 0.4)
        rho = exact.build_initial_state(n, 0.8)
        for gens, name in (([l1, l2], "gauge"), ([l1, l2, l3], "dense")):
            mapped = []

            def recording(apply):
                def spied(r):
                    mapped.append(krylov_mapped(r))
                    return apply(r)
                return spied

            spied = [dataclasses.replace(g, apply=recording(g.apply)) for g in gens]
            stats = {}
            exact.evolve(rho, spied, 0.5, stats)
            assert stats["space"] == name
            assert len(mapped) == len(gens) * stats["applies"] and all(mapped)

    def test_rk4_result_is_a_new_array(self):
        n = 4
        gauge = exact._real_gauge(n)
        rho = gauge.restrict(exact.build_initial_state(n, 0.8))
        before = rho.copy()
        rhs = generator_sum([exact.squeeze_generator(n, 0.3), exact.depolarize_generator(n, 0.1)])
        got = exact._rk4(rho, rhs, 0.5, 20)
        assert got.dtype == np.float64 and got.shape == gauge.shape
        assert not krylov_mapped(got) and not np.shares_memory(got, rho)
        assert np.array_equal(rho, before)
        ref = textbook_rk4(rho, rhs, 0.5, 20)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.linalg.norm(rho)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_field_runs_dense(self, n):
        l1, l2 = exact.squeeze_generator(n, 0.3), exact.depolarize_generator(n, 0.2)
        l3 = exact.field_generator(n, 0.4)
        rho = exact.build_initial_state(n, 0.8)
        for gens in ([l3], [l1, l3], [l3, l2], [l1, l2, l3]):
            stats = {}
            got = exact.evolve(rho, gens, 0.6, stats)
            assert stats["space"] == "dense"
            assert np.max(np.abs(got - exact.evolve_expm(rho, gens, 0.6))) < 1e-8

    @staticmethod
    def in_sector_state(n, rng):
        """A complex density matrix with no entry of mixed parity, whose gauge
        transform is not real."""
        m = in_sector_hermitian(n, rng)
        m = m @ m
        return m / np.trace(m).real

    @pytest.mark.parametrize("n", range(2, 6))
    def test_complex_in_sector_state_runs_dense(self, n):
        rho = self.in_sector_state(n, np.random.default_rng(600 + n))
        gens = [exact.squeeze_generator(n, 0.3), exact.depolarize_generator(n, 0.2)]
        assert exact._real_gauge(n).restrict(rho) is None
        stats = {}
        got = exact.evolve(rho, gens, 0.6, stats)
        assert stats["space"] == "dense"
        assert np.max(np.abs(got - exact.evolve_expm(rho, gens, 0.6))) < 1e-8

    def test_stats_name_the_space(self):
        n = 3
        l1, l2 = exact.squeeze_generator(n, 0.3), exact.depolarize_generator(n, 0.2)
        rho = exact.build_initial_state(n, 0.8)
        off = rho.copy()
        off[0, 1] = off[1, 0] = 0.01
        in_sector = self.in_sector_state(n, np.random.default_rng(9))
        for state, gens, name in ((rho, [l1, l2], "gauge"), (rho, [l2], "gauge"),
                                  (in_sector, [l1, l2], "dense"), (off, [l1, l2], "dense"),
                                  (rho, [l1, exact.field_generator(n, 0.1)], "dense")):
            stats = {}
            exact.evolve(state, gens, 0.4, stats)
            assert stats["space"] == name

    @staticmethod
    def dense(space, n):
        return exact._DENSE

    def assert_cells_close(self, got, ref):
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            if isinstance(value, float):
                assert abs(got[key] - value) <= self.CELL_ATOL + self.CELL_RTOL * abs(value), key
            else:
                assert got[key] == value, key

    @pytest.mark.parametrize("row", ["exact", "verify"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_cells_match_the_dense_space(self, monkeypatch, row, n):
        # every `_space_of` choice of the row is forced: each evolve and trace
        # norm, and for verify also the commutator, whose L1 and L2 then apply
        # to the dense d x d state
        from tactsqueeze import cli
        if row == "exact":
            points = [dict(cli._DEFAULT_PARAMS, n_spins=n, j_coupling=0.05, polarization_p=0.95,
                           gamma=gamma, t_squeeze=t)
                      for gamma in (0.02, 0.2) for t in (0.02, 0.1)]
            run = [lambda p: cli._row_exact(*(p[k] for k in cli._ORACLE_INPUTS),
                                            factorize=True)]
        else:
            gamma, alpha = 0.25, 5.0
            points = [dict(n_spins=n, j_coupling=4.0 * gamma * alpha / n, gamma=gamma,
                           polarization_p=1.0, t_squeeze=1.0 / (4.0 * gamma))]
            run = [lambda p: cli._row_verify(*(p[k] for k in cli._ORACLE_INPUTS))]
        cells = {}
        for name, pick in (("gauge", lambda space, n: space), ("dense", self.dense)):
            with monkeypatch.context() as patch:
                names = picking(patch, pick)
                cells[name] = [run[0](p) for p in points]
            assert set(names) == {name}
        for got, ref in zip(cells["gauge"], cells["dense"]):
            self.assert_cells_close(got, ref)

    @pytest.mark.parametrize("fact, bound", [(False, 5.0), (True, 7.0)])
    def test_row_peak_memory(self, fact, bound):
        # one N = 8 exact row, in state sizes of 16 * 4^N bytes (tracemalloc
        # sees no mmap: _rk4's Krylov basis is not counted); the N's layout
        # record is built by a first row
        from tactsqueeze import cli
        n = 8
        point = dict(cli._DEFAULT_PARAMS, n_spins=n, j_coupling=0.05, polarization_p=0.95,
                     gamma=0.2, t_squeeze=0.1)
        inputs = [point[k] for k in cli._ORACLE_INPUTS]
        cli._row_exact(*inputs, factorize=fact)
        tracemalloc.start()
        try:
            cli._row_exact(*inputs, factorize=fact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 16 * 4 ** n


class TestHugeRates:
    """A rate whose scaled coefficient overflows is an IntegrationError that
    names it, raised before any array is scaled."""

    @pytest.mark.parametrize("j", [1e308, -1e308, np.inf, np.nan, np.float64(1e308)])
    def test_squeeze(self, j):
        for build in (exact.squeeze_generator, exact.tact_hamiltonian):
            with pytest.raises(IntegrationError, match=r"^j_coupling = .*: 4J is not finite$"):
                build(3, j)

    @pytest.mark.parametrize("n, gamma, label", [(2, 1e308, "2 Gamma"), (8, 1e307, "4 Gamma N"),
                                                 (2, np.inf, "2 Gamma"),
                                                 (2, np.float64(1e308), "2 Gamma")])
    def test_depolarize(self, n, gamma, label):
        with pytest.raises(IntegrationError, match=rf"^gamma = .*: {label} is not finite$"):
            exact.depolarize_generator(n, gamma)

    @pytest.mark.parametrize("b", [np.inf, -np.inf, np.nan, np.float64(np.inf)])
    def test_field(self, b):
        with pytest.raises(IntegrationError, match=r"^b_field = .*: B is not finite$"):
            exact.field_generator(3, b)

    def test_field_whose_rate_overflows_is_a_step_count_error(self):
        rho = exact.build_initial_state(2, 0.8)
        with pytest.raises(IntegrationError, match="no finite RK4 step count"):
            exact.evolve(rho, [exact.field_generator(2, 1e308)], 1.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_field_rate_bound_is_the_dense_spectral_radius(self, n):
        for b in (0.4, -1.3, 1e-3, 1e150, -0.0):
            dense = 2.0 * np.max(np.abs(np.linalg.eigvalsh(exact.field_hamiltonian(n, b))))
            assert abs(exact.field_generator(n, b).rate_bound - dense) <= 1e-12 * dense

    def test_largest_finite_coefficients_build(self):
        # 4J and 2 Gamma, 4 Gamma N finite: the step count, not the build, fails
        assert exact.squeeze_generator(2, 1e307).rate_bound == 2.0 * 1e307 * 4.0
        assert exact.depolarize_generator(2, 2e307).rate_bound == 4.0 * 2e307 * 2
