import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactsqueeze import linearized
from tactsqueeze.errors import DegenerateShiftError


class TestEffectivePolarization:
    def test_no_dissipation(self):
        assert linearized.effective_polarization(0.8, 0.0, 2.0) == 0.8

    def test_unit_theta(self):
        assert linearized.effective_polarization(1.0, 0.25, 1.0) == \
            pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_two_phase_window(self):
        assert linearized.effective_polarization(0.9, 0.5, 0.5, 0.5) == \
            pytest.approx(0.9 * math.exp(-2.0), rel=1e-14)


class TestBogoliubovPropagate:
    def test_zero_duration(self):
        st = linearized.vacuum_state(2.0, 50.0)
        out = linearized.bogoliubov_propagate(st, 0.0)
        np.testing.assert_array_equal(out.mean, st.mean)
        np.testing.assert_array_equal(out.cov, st.cov)

    def test_unit_squeezing_eigenvalues(self):
        st = linearized.vacuum_state(1.0, 50.0)
        out = linearized.bogoliubov_propagate(st, 1.0)
        w = np.sort(np.linalg.eigvalsh(out.cov))
        assert w[0] == pytest.approx(0.5 * math.exp(-2.0), rel=1e-12)
        assert w[1] == pytest.approx(0.5 * math.exp(2.0), rel=1e-12)

    def test_determinant_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0.5, 2.0)
            c = rng.uniform(-0.3, 0.3)
            b = c ** 2 / a + rng.uniform(0.3, 1.5)  # keep positive definite
            cov = np.array([[a, c], [c, b]])
            st = linearized.GaussianState(mean=rng.normal(size=2), cov=cov,
                                          kappa=rng.uniform(0.1, 3.0), n_p_eff=10.0)
            out = linearized.bogoliubov_propagate(st, rng.uniform(0.0, 1.5))
            assert np.linalg.det(out.cov) == pytest.approx(
                np.linalg.det(cov), rel=1e-9)

    def test_determinant_invariance_from_vacuum(self):
        st = linearized.vacuum_state(1.2, 30.0)
        for dt in (0.2, 0.7, 1.5):
            out = linearized.bogoliubov_propagate(st, dt)
            assert np.linalg.det(out.cov) == pytest.approx(0.25, abs=1e-10)

    def test_pure_squeezed_variance_product(self):
        st = linearized.vacuum_state(0.7, 20.0)
        out = linearized.bogoliubov_propagate(st, 1.3)
        w = np.linalg.eigvalsh(out.cov)
        assert w[0] * w[1] == pytest.approx(0.25, rel=1e-12)

    def test_uncertainty_bound(self):
        st = linearized.bogoliubov_propagate(linearized.vacuum_state(1.5, 30.0), 2.0)
        assert np.linalg.det(st.cov) >= 0.25 - 1e-9


class TestDisplacedModeMeans:
    def test_zero_field(self):
        v_minus, v_plus = linearized.displaced_mode_means(0.0, 0.2, 40.0, 1.0)
        assert v_minus == 0 and v_plus == 0

    def test_zero_duration(self):
        v_minus, v_plus = linearized.displaced_mode_means(0.5, 0.2, 40.0, 0.0)
        assert v_minus == 0 and v_plus == 0

    def test_plus_mode_always_zero(self):
        for t in (0.1, 0.7, 2.0):
            _, v_plus = linearized.displaced_mode_means(0.4, 0.3, 25.0, t)
            assert v_plus == 0

    def test_small_time_expansion(self):
        b_field, j, n_p = 0.4, 0.2, 36.0
        t = 1e-7
        v_minus, _ = linearized.displaced_mode_means(b_field, j, n_p, t)
        first_order = -b_field * math.sqrt(n_p) * t * (1 + 1j)
        assert v_minus == pytest.approx(first_order, rel=1e-5)

    def test_degenerate_at_zero_coupling(self):
        with pytest.raises(DegenerateShiftError):
            linearized.displaced_mode_means(0.4, 0.0, 36.0, 1.0)


class TestSignal:
    def test_zero_duration(self):
        assert linearized.signal(0.5, 0.2, 40.0, 0.0).value == 0.0

    def test_saturates_at_field_over_coupling(self):
        b_field, j = 0.5, 0.2
        val = linearized.signal(b_field, j, 40.0, 1e6).value
        assert val == pytest.approx(b_field / j, rel=1e-12)

    def test_monotone_in_time(self):
        vals = [linearized.signal(0.5, 0.2, 40.0, t).value
                for t in np.linspace(0, 3, 30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_short_time_linear(self):
        b_field, n_p, t = 0.5, 40.0, 1e-9
        val = linearized.signal(b_field, 0.2, n_p, t).value
        assert val == pytest.approx(b_field * n_p * t, rel=1e-6)

    def test_zero_coupling_flagged_limit(self):
        out = linearized.signal(0.5, 0.0, 40.0, 2.0)
        assert out.degenerate
        assert out.value == pytest.approx(0.5 * 40.0 * 2.0, rel=1e-14)

    def test_array_call_has_the_bits_of_the_scalar_calls(self):
        points = [(b, j, n_p, t) for b in (0.0, 0.2) for j in (0.0, 0.05, 1.0)
                  for n_p in (1.0, 90.0) for t in (0.0, 0.7)]
        with np.errstate(all="ignore"):
            out = linearized.signal(*(np.array(c) for c in zip(*points)))
        for i, point in enumerate(points):
            one = linearized.signal(*point)
            assert float(out.value[i]).hex() == float(one.value).hex()
            assert out.degenerate[i] == one.degenerate


class TestMinVarianceDirection:
    def test_vacuum_isotropic(self):
        out = linearized.min_variance_direction(linearized.vacuum_state(1.0, 10.0))
        assert out.isotropic
        assert out.angle == 0.0
        assert out.variance == pytest.approx(0.5, rel=1e-14)

    def test_unit_squeezing(self):
        st = linearized.bogoliubov_propagate(linearized.vacuum_state(1.0, 10.0), 1.0)
        out = linearized.min_variance_direction(st)
        assert not out.isotropic
        assert out.variance == pytest.approx(0.5 * math.exp(-2.0), rel=1e-12)

    def test_rotation_equivariance(self):
        st = linearized.bogoliubov_propagate(linearized.vacuum_state(0.8, 10.0), 1.0)
        base = linearized.min_variance_direction(st)
        for phi in (0.3, 1.1, 2.5):
            c, s = math.cos(phi), math.sin(phi)
            r = np.array([[c, -s], [s, c]])
            rotated = linearized.GaussianState(
                mean=r @ st.mean, cov=r @ st.cov @ r.T,
                kappa=st.kappa, n_p_eff=st.n_p_eff)
            out = linearized.min_variance_direction(rotated)
            expected = math.fmod(base.angle + phi, math.pi)
            if expected < 0:
                expected += math.pi
            assert min(abs(out.angle - expected),
                       abs(abs(out.angle - expected) - math.pi)) < 1e-10
            assert out.variance == pytest.approx(base.variance, rel=1e-12)


class TestSqueezedVacuum:
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(1e-9, 350.0))
    def test_eigenframe_against_50_digits(self, x):
        with mpmath.workdps(50):
            lo = mpmath.exp(-2 * mpmath.mpf(x)) / 2
            hi = mpmath.exp(2 * mpmath.mpf(x)) / 2
            want = (lo, 3 * mpmath.pi / 4, lo * hi)
        out = linearized.squeezed_vacuum(x)
        for got, ref in zip((out.min_variance, out.angle, out.cov_det), want):
            assert abs(got - ref) <= 3e-16 * abs(ref)
        assert out.isotropic is False

    def test_matches_propagated_covariance_where_it_does_not_cancel(self):
        # 1e-13: eigenvalues within the isotropy tolerance, no direction
        for kappa, t in ((1.0, 0.0), (0.7, 1.3), (1.0, 1.0), (-0.8, 0.5), (1.0, 1e-13)):
            st_ = linearized.bogoliubov_propagate(linearized.vacuum_state(kappa, 10.0), t)
            ref = linearized.min_variance_direction(st_)
            out = linearized.squeezed_vacuum(kappa * t)
            assert out.min_variance == pytest.approx(ref.variance, rel=1e-14)
            assert out.angle == pytest.approx(ref.angle, abs=1e-14)
            assert out.isotropic == ref.isotropic
            assert out.cov_det == pytest.approx(np.linalg.det(st_.cov), rel=1e-14)

    def test_array_and_scalar_calls_agree(self):
        x = np.array([0.0, 1e-13, 0.3, 2.0, 60.0, 355.0, 400.0, 800.0])
        arr = linearized.squeezed_vacuum(x)
        for i, xi in enumerate(x.tolist()):
            one = linearized.squeezed_vacuum(xi)
            assert type(one.min_variance) is float and type(one.isotropic) is bool
            np.testing.assert_array_equal([getattr(arr, f)[i] for f in one._fields],
                                          list(one))

    def test_overflowing_major_axis_is_not_isotropic(self):
        out = linearized.squeezed_vacuum(400.0)
        assert out.min_variance == 0.0 and not out.isotropic
        assert out.angle == 0.75 * math.pi
