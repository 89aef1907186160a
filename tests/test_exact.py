import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from tactsqueeze import core, exact
from tactsqueeze.errors import (
    NumericalConsistencyError,
    ResourceLimitError,
    UndefinedDirectionError,
)

RNG = np.random.default_rng(20240817)


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
        min_var, _, _ = exact.transverse_variance_extrema(
            out, exact.spin_operators(n))
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
        pairs = sum((sx[i] @ sx[k] - sy[i] @ sy[k]
                     for i in range(n) for k in range(n) if i != k), zero)
        assert np.array_equal(exact.tact_hamiltonian(n, j), j * pairs)
        assert np.array_equal(exact.field_hamiltonian(n, b),
                              sum((b * (sy[i] - sx[i]) for i in range(n)), zero))

    def test_spin_operators_peak_memory(self):
        # the three collective sums and their construction temporaries; the
        # 3N per-site matrices once kept alongside came to 27 state sizes
        n = 8
        tracemalloc.start()
        try:
            exact.spin_operators(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * 4 ** n

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

    def test_real_state_with_depolarizer_listed_first(self):
        # the depolarizer keeps a real input real; the Hamiltonian term
        # that follows it is complex
        rho = exact.build_initial_state(3, 0.8)
        gens = [exact.depolarize_generator(3, 0.3), exact.squeeze_generator(3, 0.2)]
        np.testing.assert_array_equal(exact.evolve(rho.real, gens, 0.7),
                                      exact.evolve(rho, gens, 0.7))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_per_site_decay_law(self, n):
        # every single-site <sigma_z> decays as P exp(-4 Gamma T)
        p, gamma, t = 0.8, 0.35, 0.9
        rho = exact.build_initial_state(n, p)
        out = exact.evolve(rho, [exact.depolarize_generator(n, gamma)], t)
        for site in range(n):
            assert exact.measure(out, exact.site_operator(exact.SIGMA_Z, site, n)) == \
                pytest.approx(p * np.exp(-4 * gamma * t), abs=1e-6)

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


class TestSqueezingParameter:
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
        ops = exact.spin_operators(4)
        min_var, _, _ = exact.transverse_variance_extrema(out, ops)
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


class TestTraceNorm:
    def test_matches_singular_value_sum_for_hermitian(self):
        m = random_hermitian_unit_trace(8)
        m = m - np.eye(8) / 8  # traceless Hermitian difference
        assert exact.trace_norm(m) == pytest.approx(
            np.sum(np.linalg.svd(m, compute_uv=False)), rel=1e-10)
