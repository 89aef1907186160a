import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactsqueeze import analytic, core, exact, linearized, optimize
from tactsqueeze.errors import DomainError


def make_params(**kw):
    base = dict(n_spins=4, polarization_p=0.8, j_coupling=0.1, gamma=0.05,
                b_field=0.0, t_squeeze=1.0, t_signal=0.5)
    base.update(kw)
    return core.ProtocolParams(**base)


class TestDeriveDimensionless:
    def test_alpha_one_at_threshold(self):
        p = make_params(j_coupling=0.2, n_spins=2, polarization_p=0.5, gamma=0.05)
        g = core.derive_dimensionless(p)
        assert g.alpha == pytest.approx(1.0, abs=0)

    def test_zero_squeeze_time(self):
        p = make_params(t_squeeze=0.0)
        g = core.derive_dimensionless(p)
        assert g.theta == 0.0
        assert g.p_eff == p.polarization_p

    def test_definition_arithmetic(self):
        p = make_params(j_coupling=1e-3, n_spins=1000, polarization_p=0.8, gamma=0.05)
        g = core.derive_dimensionless(p)
        assert g.alpha == pytest.approx(4.0, rel=1e-15)

    def test_exact_arithmetic_matches_independent_recompute(self):
        p = make_params(j_coupling=0.37, n_spins=17, polarization_p=0.61, gamma=0.083)
        g = core.derive_dimensionless(p)
        assert g.alpha == 0.37 * 17 * 0.61 / (4 * 0.083)
        assert g.theta == 4 * 0.083 * p.t_squeeze
        assert g.p_eff == 0.61 * math.exp(-4 * 0.083 * p.t_squeeze)

    def test_gamma_zero_gives_infinite_alpha(self):
        g = core.derive_dimensionless(make_params(gamma=0.0))
        assert g.alpha_infinite
        assert g.alpha == core.squeeze_to_noise(0.1, 4, 0.8, 0.0) == math.inf

    def test_infinite_alpha_reaches_the_closed_forms_as_a_number(self):
        # a noiseless point: the closed forms that need a finite alpha raise
        # DomainError, the others take the limit
        alpha = core.derive_dimensionless(make_params(gamma=0.0)).alpha
        for call in (lambda: analytic.improvement_factor(alpha),
                     lambda: analytic.snr_optimum_strong(alpha, 4, 0.0, 0.8),
                     lambda: optimize.optimal_theta(alpha),
                     lambda: optimize.optimal_u(alpha)):
            with pytest.raises(DomainError):
                call()
        assert analytic.xi2_strong_squeezing(alpha, 0.8) == 0.0
        assert analytic.xi2_min_dimensionless(alpha, 1.0, 0.8).regime == analytic.STRONG

    def test_array_fields_give_the_scalar_bits(self):
        points = [make_params(j_coupling=j, gamma=g, t_squeeze=t)
                  for j in (0.0, 0.3) for g in (0.0, 0.05, 2.0) for t in (0.0, 1.7)]
        fields = {name: np.array([getattr(p, name) for p in points], dtype=float)
                  for name in core.ProtocolParams.__dataclass_fields__}
        out = core.derive_dimensionless(core.ProtocolParams(**fields))
        for i, p in enumerate(points):
            one = core.derive_dimensionless(p)
            assert out.alpha_infinite[i] == one.alpha_infinite
            for got, want in ((out.theta[i], one.theta), (out.alpha[i], one.alpha),
                              (out.p_eff[i], one.p_eff)):
                assert float(got).hex() == float(want).hex()


class TestValidate:
    def test_nominal_params_ok(self):
        assert core.validate(make_params()) == []

    def test_polarization_out_of_range(self):
        codes = [v.code for v in core.validate(make_params(polarization_p=1.2))]
        assert "P_OUT_OF_RANGE" in codes

    def test_nonpositive_spin_count(self):
        codes = [v.code for v in core.validate(make_params(n_spins=0))]
        assert "N_POSITIVE" in codes

    def test_reports_every_violation(self):
        bad = make_params(n_spins=0, polarization_p=-1.0, gamma=-0.1, t_squeeze=-1.0)
        codes = {v.code for v in core.validate(bad)}
        assert {"N_POSITIVE", "P_OUT_OF_RANGE", "GAMMA_NONNEGATIVE",
                "T_SQUEEZE_NONNEGATIVE"} <= codes

    def test_nonfinite_rate_rejected(self):
        codes = [v.code for v in core.validate(make_params(j_coupling=math.inf))]
        assert "J_NONNEGATIVE" in codes


class TestCheckField:
    def test_validate_is_the_per_field_checks(self):
        bad = make_params(n_spins=0, polarization_p=math.nan, j_coupling=-1.0,
                          t_signal=math.inf)
        per_field = [core.check_field(name, getattr(bad, name))
                     for name in ("n_spins", "polarization_p", "j_coupling", "gamma",
                                  "b_field", "t_squeeze", "t_signal")]
        assert core.validate(bad) == [v for v in per_field if v is not None]
        assert [v.code for v in core.validate(bad)] == [
            "N_POSITIVE", "P_OUT_OF_RANGE", "J_NONNEGATIVE", "T_SIGNAL_NONNEGATIVE"]
        assert core.check_field("gamma", 0.0) is None
        assert core.check_field("n_spins", 3.0).message == (
            "n_spins must be a positive integer, got 3.0")


class TestStatusExp:
    def test_overflow_flagged_from_the_first_float_past_log_float_max(self):
        top = math.log(sys.float_info.max)
        x = np.array([top, np.nextafter(top, math.inf), math.inf, math.nan, -math.inf])
        status = core.Status(x.shape)
        with np.errstate(over="ignore"):  # as inside core.closed_form
            out = status.exp(x)
        assert math.isfinite(out[0]) and out[1] == math.inf == out[2]
        assert math.isnan(out[3]) and out[4] == 0.0
        assert status.code.tolist() == [core.OK, core.OVERFLOW, core.OK, core.OK, core.OK]
        error = status.error(1)
        assert isinstance(error, OverflowError) and str(error) == "math range error"


def random_moments(rng: np.random.Generator) -> core.Moments:
    """A mean off every axis and second = covariance + mean mean^T, the
    covariance positive semidefinite, at a random overall scale."""
    scale = 10.0 ** rng.uniform(-3, 3)
    mean = rng.normal(size=3) * scale
    a = rng.normal(size=(3, 3)) * scale
    return core.Moments(4, mean, a @ a.T + np.outer(mean, mean))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


class TestMoments:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_extrema_are_rotation_invariant(self, seed):
        # (R mean, R second R^T) is the same state seen in rotated axes
        rng = np.random.default_rng(seed)
        m, rot = random_moments(rng), random_rotation(rng)
        turned = core.Moments(m.n_spins, rot @ m.mean, rot @ m.second @ rot.T)
        bound = 1e-12 * np.max(np.abs(m.second))
        got, want = turned.transverse_extrema(), m.transverse_extrema()
        assert np.max(np.abs(np.subtract(got, want))) <= bound

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_every_transverse_variance_lies_between_the_extrema(self, seed):
        rng = np.random.default_rng(seed)
        m = random_moments(rng)
        lo, hi = m.transverse_extrema()
        n_hat = m.mean / np.linalg.norm(m.mean)
        u = rng.normal(size=(20, 3))
        u -= np.outer(u @ n_hat, n_hat)
        u /= np.linalg.norm(u, axis=1)[:, None]
        var = np.einsum("ka,ab,kb->k", u, m.second, u) - (u @ m.mean) ** 2
        bound = 1e-12 * np.max(np.abs(m.second))
        assert lo <= hi
        assert np.all(var >= lo - bound) and np.all(var <= hi + bound)


@pytest.mark.parametrize("module", [core, analytic, linearized, optimize, exact],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    # every name in __all__ exists, and every public function and class
    # defined in the module is listed, so a deleted name cannot linger
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = [name for name, obj in vars(module).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []
