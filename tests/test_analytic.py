import itertools
import math

import numpy as np
import pytest

from tactsqueeze import analytic, core, optimize
from tactsqueeze.errors import DomainError, NonFiniteObjectiveError


def dense_max(f, lo, hi):
    """Brute-force maximum of a vectorized f on [lo, hi]: a dense grid, then
    a second one across the best point's two neighbouring cells."""
    xs = np.linspace(lo, hi, 4001)
    best = int(np.argmax(f(xs)))
    return float(f(np.linspace(xs[max(best - 1, 0)], xs[min(best + 1, xs.size - 1)],
                               20001)).max())


class TestXi2Min:
    def test_no_squeezing_time(self):
        res = analytic.xi2_min(0.1, 100, 0.8, 0.05, 0.0)
        assert res.xi2 == pytest.approx(1 / 0.8, rel=1e-14)

    def test_noiseless(self):
        res = analytic.xi2_min(0.01, 50, 1.0, 0.0, 2.0)
        assert res.xi2 == pytest.approx(math.exp(-0.01 * 50 * 2.0), rel=1e-14)
        assert res.regime == analytic.STRONG

    def test_nan_alpha_has_no_regime(self):
        with pytest.raises(DomainError):
            analytic.xi2_min(math.nan, 10, 1.0, 0.1, 1.0)
        with pytest.raises(DomainError):
            analytic.xi2_min_dimensionless(math.nan, 1.0, 1.0)
        # the noiseless case stays strong
        assert analytic.xi2_min_dimensionless(math.inf, 1.0, 1.0).regime == analytic.STRONG

    def test_balanced_exponent(self):
        # alpha e^{-Theta} = 1 exactly: exponent vanishes, xi^2 = 1/P
        alpha, theta, p = math.e, 1.0, 0.7
        res = analytic.xi2_min_dimensionless(alpha, theta, p)
        assert res.exponent_arg == pytest.approx(0.0, abs=1e-15)
        assert res.xi2 == pytest.approx(1 / p, rel=1e-14)


class TestXi2MinDimensionless:
    def test_zero_theta(self):
        assert analytic.xi2_min_dimensionless(3.0, 0.0, 0.5).xi2 == \
            pytest.approx(2.0, rel=1e-14)

    def test_sub_threshold_never_gains(self):
        for alpha in (0.1, 0.5, 1.0):
            for theta in (0.1, 1.0, 5.0):
                res = analytic.xi2_min_dimensionless(alpha, theta, 0.9)
                assert res.xi2 >= 1 / 0.9 - 1e-12
                assert res.regime == analytic.SUB_THRESHOLD

    def test_infinite_alpha_at_zero_theta_is_outside_the_domain(self):
        # the exponent is 0 * inf: DomainError on the scalar call, nan on arrays
        with pytest.raises(DomainError, match="alpha = inf, Theta = 0"):
            analytic.xi2_min_dimensionless(math.inf, 0.0, 0.5)
        with np.errstate(all="ignore"):
            res = analytic.xi2_min_dimensionless(np.array([math.inf, math.inf, 3.0]),
                                                 np.array([0.0, 1.0, 0.0]), 0.5)
        assert math.isnan(res.xi2[0]) and math.isnan(res.exponent_arg[0])
        # Theta > 0 keeps the alpha -> inf limit; a finite alpha is unchanged
        assert res.xi2[1] == analytic.xi2_min_dimensionless(math.inf, 1.0, 0.5).xi2 == 0.0
        assert res.xi2[2] == analytic.xi2_min_dimensionless(3.0, 0.0, 0.5).xi2

    def test_reference_point(self):
        res = analytic.xi2_min_dimensionless(10.0, 1.0, 1.0)
        assert res.xi2 == pytest.approx(math.exp(-(10 / math.e - 1)), rel=1e-12)
        assert res.xi2 == pytest.approx(0.0686458629361, abs=1e-10)

    def test_substitution_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            j, p, gamma, t = rng.uniform(0.01, 1.0, size=4)
            n = int(rng.integers(2, 500))
            full = analytic.xi2_min(j, n, p, gamma, t)
            dim = analytic.xi2_min_dimensionless(j * n * p / (4 * gamma),
                                                 4 * gamma * t, p)
            assert full.xi2 == pytest.approx(dim.xi2, rel=1e-12)
            assert full.exponent_arg == pytest.approx(dim.exponent_arg, abs=1e-12)


class TestXi2Strong:
    def test_balanced_alpha(self):
        assert analytic.xi2_strong_squeezing(math.e, 0.5) == \
            pytest.approx(2.0, rel=1e-14)

    def test_matches_unit_theta_slice(self):
        for alpha in (2.0, 10.0, 40.0):
            assert analytic.xi2_strong_squeezing(alpha, 0.8) == pytest.approx(
                analytic.xi2_min_dimensionless(alpha, 1.0, 0.8).xi2, rel=1e-12)

    def test_converges_to_optimized_value(self):
        ratios = []
        for alpha in (100.0, 1000.0):
            theta_star = optimize.optimal_theta(alpha).argmax
            opt = analytic.xi2_min_dimensionless(alpha, theta_star, 1.0).xi2
            ratios.append(analytic.xi2_strong_squeezing(alpha, 1.0) / opt)
        assert abs(ratios[1] - 1) < abs(ratios[0] - 1)
        assert abs(ratios[1] - 1) < 0.002

    def test_domain(self):
        with pytest.raises(DomainError):
            analytic.xi2_strong_squeezing(0.9, 1.0)


class TestSnrWhileMeasure:
    def test_vanishes_without_accumulated_signal(self):
        # short acquisition windows: numerator ~ J N P T beats the 1/sqrt(T)
        vals = [analytic.snr_squeeze_while_measure(0.1, 10, 1.0, 0.1, t_sq)
                .snr_per_root_time for t_sq in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_vanishes_fully_depolarized(self):
        res = analytic.snr_squeeze_while_measure(0.1, 10, 1.0, 1e6, 1.0)
        assert res.snr_per_root_time == pytest.approx(0.0, abs=1e-12)

    def test_golden_fixture(self):
        res = analytic.snr_squeeze_while_measure(0.01, 100, 1.0, 0.25, 1.0)
        assert res.snr_per_root_time == pytest.approx(4.35294047001157, rel=1e-12)
        assert res.protocol == analytic.WHILE_MEASURING

    def test_domain(self):
        with pytest.raises(DomainError):
            analytic.snr_squeeze_while_measure(0.0, 10, 1.0, 0.1, 1.0)


class TestSnrSqueezeThenMeasure:
    def test_unsqueezed_baseline_form(self):
        n, p, gamma, t = 100, 0.8, 0.2, 1.5
        res = analytic.snr_squeeze_then_measure(0.3, n, p, gamma, 0.0, t)
        assert res.protocol == analytic.UNSQUEEZED
        assert res.snr_per_root_time == pytest.approx(
            math.sqrt(t * n) * p * math.exp(-4 * gamma * t), rel=1e-12)

    def test_no_acquisition(self):
        res = analytic.snr_squeeze_then_measure(0.3, 100, 0.8, 0.2, 1.0, 0.0)
        assert res.snr_per_root_time == 0.0

    def test_matches_strong_intermediate_form(self):
        alpha, gamma, n, p = 50.0, 0.25, 200, 0.9
        j = 4 * gamma * alpha / (n * p)
        for u in (0.2, 0.5, 0.8):
            t_sq = u / (4 * gamma)
            t_sig = 1 / (4 * gamma) - t_sq
            lhs = analytic.snr_squeeze_then_measure(
                j, n, p, gamma, t_sq, t_sig).snr_per_root_time
            rhs = (math.sqrt(n) / math.sqrt(4 * gamma) * p * math.exp(-1)
                   * math.exp(alpha * math.exp(-1) * u) * (1 - u))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_baseline_gamma_scaling(self):
        # optimal unsqueezed SNR ~ P sqrt(N)/sqrt(Gamma)
        def best(gamma):
            return dense_max(lambda t: analytic.snr_squeeze_then_measure(
                0.0, 100, 0.9, gamma, 0.0, t).snr_per_root_time, 1e-9, 50.0)

        assert best(0.1) / best(0.2) == pytest.approx(math.sqrt(2), abs=1e-6)


class TestSnrOptimumStrong:
    def test_u_max_examples(self):
        res = analytic.snr_optimum_strong(math.e ** 2, 100, 0.2, 1.0)
        assert res.u_split == pytest.approx((math.e - 1) / math.e, rel=1e-12)
        res = analytic.snr_optimum_strong(10.0, 100, 0.2, 1.0)
        a = 10 / math.e
        assert res.u_split == pytest.approx((a - 1) / a, rel=1e-12)
        assert res.u_split == pytest.approx(0.728171817, rel=1e-8)

    def test_matches_numeric_u_maximum(self):
        alpha, gamma, n, p = 30.0, 0.25, 200, 0.9
        a = alpha * math.exp(-1)

        def objective(u):
            return (math.sqrt(n) / math.sqrt(4 * gamma) * p * math.exp(-1)
                    * np.exp(a * u) * (1 - u))

        closed = analytic.snr_optimum_strong(alpha, n, gamma, p)
        assert closed.snr_per_root_time == pytest.approx(
            dense_max(objective, 0.0, 1.0 - 1e-9), rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            analytic.snr_optimum_strong(math.e, 100, 0.2, 1.0)

    @pytest.mark.parametrize("alpha", [3.0, 30.0, 700.0, 1900.0])
    def test_bits_below_the_underflow(self, alpha):
        # the formula as printed, before its divisor was guarded
        a = alpha * math.exp(-1.0)
        want = math.sqrt(100) / math.sqrt(4.0 * 0.2) * 0.9 / alpha / math.exp(-(a - 1.0))
        got = analytic.snr_optimum_strong(alpha, 100, 0.2, 0.9).snr_per_root_time
        assert got.hex() == want.hex()
        arr = analytic.snr_optimum_strong(np.array([alpha]), 100, 0.2, 0.9)
        assert float(arr.snr_per_root_time[0]).hex() == want.hex()


class TestImprovementFactor:
    def test_balanced(self):
        assert analytic.improvement_factor(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_reference_point(self):
        assert analytic.improvement_factor(10.0) == pytest.approx(
            math.exp(10 / math.e) / 10, rel=1e-14)

    def test_monotone_above_e(self):
        xs = np.linspace(math.e, 50, 100)
        vals = [analytic.improvement_factor(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            analytic.improvement_factor(0.0)
        with pytest.raises(DomainError):
            analytic.improvement_factor(math.inf)


def grid_columns(**axes) -> list[list[float]]:
    """The row-major product of the axes, one list per argument."""
    return [list(col) for col in zip(*itertools.product(*axes.values()))]


def bare(fn):
    """A closed form with a bare value, in the shape of the others: a float
    call's value, or an array call's core.Checked, as an SnrResult."""
    def call(*args):
        out = fn(*args)
        if isinstance(out, core.Checked):
            return analytic.SnrResult(out.value, "", status=out.status)
        return analytic.SnrResult(out, "")
    return call


class TestArrayCalls:
    """Over arrays each formula, and each closed-form optimum of `optimize`,
    gives every element the bits of its scalar call, and nan in its value
    (the first field) where the scalar call raises DomainError (or, for an
    optimum, the other errors its test names); there the array call's
    status has that error's code and message, elsewhere the code OK."""

    CODES = {DomainError: core.DOMAIN, NonFiniteObjectiveError: core.NON_FINITE,
             OverflowError: core.OVERFLOW}

    @staticmethod
    def assert_elementwise(fn, columns, fields, raises=(DomainError,)) -> int:
        """The check over the grid `columns`; `raises` are the exception
        types that mean nan.  Returns how many scalar calls raised."""
        with np.errstate(all="ignore"):
            arrays = fn(*(np.array(c, dtype=float) for c in columns))
        raised = 0
        for i, point in enumerate(zip(*columns)):
            try:
                one = fn(*point)
            except raises as exc:
                assert math.isnan(getattr(arrays, fields[0])[i]), point
                error = arrays.status.error(i)
                assert arrays.status.code[i] == TestArrayCalls.CODES[type(exc)], point
                assert (type(error), str(error)) == (type(exc), str(exc)), point
                assert getattr(error, "abscissa", None) == getattr(exc, "abscissa", None)
                raised += 1
                continue
            assert arrays.status.code[i] == core.OK, point
            for field in fields:
                got, want = getattr(arrays, field)[i], getattr(one, field)
                if isinstance(want, str):
                    assert got == want, (field, point)
                else:
                    assert float(got).hex() == float(want).hex(), (field, point)
        return raised

    def test_xi2_and_snr_formulas(self):
        cols = grid_columns(j=[0.0, 0.05, 0.3], n=[1, 100], p=[0.9], g=[0.0, 0.01, 0.25],
                            t_sq=[0.0, 0.5, 3.0])
        self.assert_elementwise(analytic.xi2_min, cols, ("xi2", "exponent_arg", "regime"))
        self.assert_elementwise(analytic.snr_squeeze_while_measure, cols,
                                ("snr_per_root_time",))
        for t_sig in (0.0, 1.0):
            self.assert_elementwise(analytic.snr_squeeze_then_measure,
                                    cols + [[t_sig] * len(cols[0])],
                                    ("snr_per_root_time", "protocol", "u_split"))

    def test_dimensionless_formulas(self):
        alphas = [0.0, 0.5, 1.0, math.e, 3.0, 10.0, 400.0, math.inf]
        self.assert_elementwise(analytic.xi2_min_dimensionless,
                                grid_columns(alpha=alphas, theta=[0.0, 0.4, 1.0],
                                             p=[0.9]), ("xi2", "exponent_arg", "regime"))
        self.assert_elementwise(analytic.snr_optimum_strong,
                                grid_columns(alpha=alphas[:-1], n=[100], g=[0.1], p=[0.9]),
                                ("snr_per_root_time", "u_split"))

        # e^{alpha/e} overflows at alpha = 1931 (alpha/e = 710.4), not at 1929
        self.assert_elementwise(bare(analytic.improvement_factor), [alphas + [1929.0, 1931.0]],
                                ("snr_per_root_time",), raises=(DomainError, OverflowError))
        self.assert_elementwise(bare(analytic.xi2_strong_squeezing),
                                grid_columns(alpha=alphas + [math.nan], p=[0.9]),
                                ("snr_per_root_time",))

    OPTIMA = [0.0, 0.5, 1.0, 1.0 + 1e-12, 1.5, math.e, 10.0, 1e3, 1e6,
              -1.0, math.inf, math.nan, -math.inf]
    OUTCOME = ("argmax", "value", "at_boundary")

    @pytest.mark.parametrize("tol", [1e-8, 1e-17])
    def test_optimal_theta(self, monkeypatch, tol):
        # at tol 1e-17 some residuals fail: nan where the scalar call raises
        monkeypatch.setattr(optimize, "_STATIONARITY_TOL", tol)
        raised = self.assert_elementwise(optimize.optimal_theta, [self.OPTIMA], self.OUTCOME,
                                         raises=(DomainError, NonFiniteObjectiveError))
        assert (raised > 2) == (tol < 1e-8)  # alpha = inf and nan always raise

    def test_optimal_u(self):
        # nan where the scalar call raises: alpha not finite and > 0, and
        # alpha = 1e6, where its value e^{a-1}/a overflows; the last two
        # alphas straddle that overflow, one float apart
        alphas = self.OPTIMA + [1932.1077324409084, 1932.1077324409086]
        raised = self.assert_elementwise(optimize.optimal_u, [alphas], self.OUTCOME,
                                         raises=(DomainError, OverflowError))
        assert raised == 7
        with pytest.raises(OverflowError):
            optimize.optimal_u(alphas[-1])
        assert optimize.optimal_u(alphas[-2]).value < math.inf


class TestUnderflowingDivisor:
    """A divisor that underflows to 0 is outside the formula's domain: a
    DomainError on scalars, nan on arrays, and the next point unchanged."""

    @pytest.mark.parametrize("fn, point, fine, field", [
        # 4 Gamma T = 800: P e^{-4 Gamma T} = 0
        (analytic.xi2_min, (0.1, 3, 1.0, 1.0, 200.0), (0.1, 3, 1.0, 0.1, 200.0), "xi2"),
        # J N P T = 1000: exp(-(J N P T - 1)) = 0
        (analytic.snr_squeeze_while_measure, (20.0, 100, 1.0, 0.0, 0.5),
         (0.05, 100, 1.0, 0.0, 0.5), "snr_per_root_time"),
        # J sqrt(T N) = 1e-300 * 1e-150 = 0
        (analytic.snr_squeeze_while_measure, (1e-300, 1, 1.0, 0.0, 1e-300),
         (1e-300, 1, 1.0, 0.0, 1.0), "snr_per_root_time"),
        # J N P_eff T = 1000: exp(-J N P_eff T) = 0
        (analytic.snr_squeeze_then_measure, (20.0, 100, 1.0, 0.0, 0.5, 1.0),
         (0.05, 100, 1.0, 0.0, 0.5, 1.0), "snr_per_root_time"),
        # alpha/e - 1 = 1103 and +inf: exp(-(alpha/e - 1)) = 0
        (analytic.snr_optimum_strong, (3000.0, 100, 0.25, 1.0), (30.0, 100, 0.25, 1.0),
         "snr_per_root_time"),
        (analytic.snr_optimum_strong, (math.inf, 100, 0.25, 1.0), (30.0, 100, 0.25, 1.0),
         "snr_per_root_time"),
    ])
    def test_scalar_raises_and_array_gives_nan(self, fn, point, fine, field):
        with pytest.raises(DomainError, match="underflow"):
            fn(*point)
        with np.errstate(all="ignore"):
            arrays = fn(*(np.array(c, dtype=float) for c in zip(point, fine)))
        got = getattr(arrays, field)
        assert math.isnan(got[0])
        assert got[1] == getattr(fn(*fine), field)
