import decimal
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tactsqueeze
from tactsqueeze import optimize
from tactsqueeze.errors import DomainError, NonFiniteObjectiveError


class TestMaximizeScalar:
    def test_quadratic(self):
        out = optimize.maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 1e-10)
        assert abs(out.argmax - 0.3) < 1e-9
        assert not out.at_boundary

    def test_constant_reports_left_boundary(self):
        out = optimize.maximize_scalar(lambda x: 1.0, 0.0, 1.0, 1e-10)
        assert out.at_boundary
        assert abs(out.argmax - 0.0) < 1e-9

    def test_monotone_reports_right_boundary(self):
        out = optimize.maximize_scalar(lambda x: x, 0.0, 1.0, 1e-10)
        assert out.at_boundary
        assert out.argmax == pytest.approx(1.0, abs=1e-9)

    def test_value_beats_endpoints(self):
        out = optimize.maximize_scalar(lambda x: math.sin(x), 0.0, 3.0, 1e-10)
        assert out.value >= math.sin(0.0) - 1e-12
        assert out.value >= math.sin(3.0) - 1e-12

    def test_nonfinite_objective_carries_abscissa(self):
        with pytest.raises(NonFiniteObjectiveError) as err:
            optimize.maximize_scalar(lambda x: math.inf if x > 0.5 else x,
                                     0.0, 1.0, 1e-6)
        assert err.value.abscissa is not None

    @pytest.mark.parametrize("lo, hi, tol", [(1.0, 1.0, 1e-10), (1.0, 0.0, 1e-10),
                                             (0.0, 1.0, 0.0), (0.0, 1.0, -1e-10)])
    def test_empty_bracket_or_nonpositive_tol_rejected(self, lo, hi, tol):
        with pytest.raises(ValueError):
            optimize.maximize_scalar(lambda x: x, lo, hi, tol)


class TestOptimalTheta:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.99, 1.0])
    def test_boundary_below_threshold(self, alpha):
        out = optimize.optimal_theta(alpha, 1.0)
        assert out.at_boundary
        assert out.argmax == 0.0

    def test_reference_point_against_brute_force(self):
        alpha = 10.0
        out = optimize.optimal_theta(alpha, 1.0)
        # independent oracle: dense grid on the gain function
        grid = np.arange(0.0, 3.0, 1e-5)
        gains = grid * (alpha * np.exp(-grid) - 1.0)
        brute = grid[np.argmax(gains)]
        assert abs(out.argmax - brute) < 2e-5
        assert out.argmax == pytest.approx(0.7815, abs=1e-4)

    def test_strong_limit_near_unity(self):
        out = optimize.optimal_theta(1000.0, 1.0)
        assert abs(out.argmax - 1.0) <= 0.01

    def test_stationarity_residual(self):
        for alpha in (1.5, 5.0, 50.0):
            out = optimize.optimal_theta(alpha, 1.0)
            theta = out.argmax
            assert abs(alpha * math.exp(-theta) * (1 - theta) - 1) <= 1e-8

    def test_gain_positive_above_threshold(self):
        for alpha in (1.01, 2.0, 10.0):
            out = optimize.optimal_theta(alpha, 1.0)
            assert out.value > 0.0
            assert not out.at_boundary

    def test_infinite_alpha_rejected(self):
        with pytest.raises(DomainError):
            optimize.optimal_theta(math.inf, 1.0)
        # alpha = -inf is below threshold, not noiseless
        out = optimize.optimal_theta(-math.inf, 1.0)
        assert out.argmax == 0.0 and out.at_boundary

    @pytest.mark.parametrize("alpha", [1.0 + 1e-12, 1.0 + 1e-9, 1.0001, 10.0, 1e3])
    def test_gain_value_to_rounding_near_threshold(self, alpha):
        # 50-digit decimal reference: near alpha = 1, alpha e^{-Theta} - 1
        # cancels to a few bits in floating point
        out = optimize.optimal_theta(alpha, 1.0)
        with decimal.localcontext(decimal.Context(prec=50)):
            th = decimal.Decimal(out.argmax)
            ref = float(th * (decimal.Decimal(alpha) * (-th).exp() - 1))
        assert out.value == pytest.approx(ref, rel=1e-14, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e3, exclude_min=True))
    def test_closed_form_against_numeric_search(self, alpha):
        out = optimize.optimal_theta(alpha, 1.0)
        theta = out.argmax
        assert abs(alpha * math.exp(-theta) * (1.0 - theta) - 1.0) <= 1e-12
        oracle = optimize.grid_then_golden(
            lambda th: optimize.squeeze_gain(th, alpha), 0.0, 2.0, tol=1e-12)
        assert abs(theta - oracle.argmax) <= 1e-7
        assert out.value >= oracle.value * (1.0 - 1e-12)


class TestOptimalU:
    def test_boundary_at_balanced_alpha(self):
        out = optimize.optimal_u(math.e)
        assert out.at_boundary
        assert out.argmax == 0.0

    @pytest.mark.parametrize("alpha", [5.0, 10.0, 50.0, 200.0])
    def test_matches_closed_form(self, alpha):
        a = alpha * math.exp(-1)
        out = optimize.optimal_u(alpha)
        assert abs(out.argmax - (a - 1) / a) <= 1e-6

    def test_reference_values(self):
        assert optimize.optimal_u(10.0).argmax == pytest.approx(0.728189, abs=2e-5)
        assert optimize.optimal_u(50.0).argmax == pytest.approx(0.945634, abs=2e-6)

    def test_determinism(self):
        a = optimize.optimal_u(37.5)
        b = optimize.optimal_u(37.5)
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1.0, max_value=400.0, exclude_min=True))
    def test_closed_form_against_numeric_search(self, a):
        out = optimize.optimal_u(a * math.e)
        u = out.argmax
        assert abs(a * (1.0 - u) - 1.0) <= 1e-12
        oracle = optimize.grid_then_golden(
            lambda x: (1.0 - x) * math.exp(a * x), 0.0, 1.0 - 1e-9, tol=1e-12)
        assert abs(u - oracle.argmax) <= 1e-7
        assert out.value >= oracle.value * (1.0 - 1e-12)


class TestOptimalSplitFull:
    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_budget_rejected(self, tau):
        with pytest.raises(ValueError, match="tau_budget"):
            optimize.optimal_split_full(0.1, 20, 1.0, 0.05, tau)

    def test_no_squeezing_below_threshold(self):
        gamma, n, p = 0.2, 100, 1.0
        j = 4 * gamma * 0.5 / (n * p)  # alpha = 0.5
        out = optimize.optimal_split_full(j, n, p, gamma, tau_budget=20.0)
        t_sq, _ = out.argmax
        assert t_sq == pytest.approx(0.0, abs=1e-6)

    def test_strong_squeezing_window_near_unity(self):
        gamma, n, p = 0.25, 200, 0.9
        j = 4 * gamma * 50.0 / (n * p)  # alpha = 50
        out = optimize.optimal_split_full(j, n, p, gamma, tau_budget=4.0)
        assert 0.8 <= out.diagnostics["four_gamma_window"] <= 1.2

    def test_rate_rescaling_halves_optimum(self):
        n, p, alpha = 150, 1.0, 20.0
        gamma = 0.2
        j = 4 * gamma * alpha / (n * p)
        out1 = optimize.optimal_split_full(j, n, p, gamma, tau_budget=8.0)
        out2 = optimize.optimal_split_full(2 * j, n, p, 2 * gamma, tau_budget=4.0)
        t1, s1 = out1.argmax
        t2, s2 = out2.argmax
        assert t2 == pytest.approx(t1 / 2, rel=1e-4)
        assert s2 == pytest.approx(s1 / 2, rel=1e-4)
        u1 = 4 * gamma * t1
        u2 = 4 * (2 * gamma) * t2
        assert u2 == pytest.approx(u1, rel=1e-4)

    def test_determinism(self):
        args = (0.05, 100, 0.9, 0.25, 4.0)
        assert optimize.optimal_split_full(*args) == optimize.optimal_split_full(*args)

    @staticmethod
    def _snr(j, n, p, gamma, t_sq, t_sig):
        # the squeeze-then-measure objective, written out independently
        p_eff = p * np.exp(-4.0 * gamma * (t_sq + t_sig))
        with np.errstate(invalid="ignore", divide="ignore"):
            val = (t_sig * np.sqrt(n) / np.sqrt(t_sq + t_sig) * p_eff
                   * np.exp(j * n * p_eff * t_sq))
        return np.where(t_sq + t_sig > 0, val, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(0.3, 300.0), budget=st.floats(0.05, 6.0),
           gamma=st.floats(0.05, 1.0), n=st.integers(10, 500), p=st.floats(0.5, 1.0))
    def test_against_dense_grid_and_closed_form_fraction(self, alpha, budget, gamma, n, p):
        # budget = 4 Gamma tau; small budgets make the box bind
        j, tau = 4.0 * gamma * alpha / (n * p), budget / (4.0 * gamma)
        out = optimize.optimal_split_full(j, n, p, gamma, tau)
        t_sq, t_sig = out.argmax
        assert 0.0 <= t_sq <= tau and 0.0 <= t_sig <= tau
        xs = np.linspace(0.0, tau, 401)
        grid_max = float(self._snr(j, n, p, gamma, xs[:, None], xs[None, :]).max())
        assert out.value >= grid_max * (1.0 - 1e-12)
        assert out.value == pytest.approx(float(self._snr(j, n, p, gamma, t_sq, t_sig)),
                                          rel=1e-12, abs=0.0)
        if not out.at_boundary:
            s = t_sq + t_sig
            c = j * n * p * s * math.exp(-4.0 * gamma * s)
            assert abs(t_sq / s - (1.0 - 1.0 / c)) <= 1e-12


def test_import_loads_no_scipy():
    # optimal_theta imports scipy lazily: at import time it would add ~0.3 s
    # to every command, the exact engines included
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tactsqueeze.__file__)))
    code = ("import sys, tactsqueeze; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_tolerance_below_float_spacing_terminates():
    # tol = 1e-9 is finer than the float spacing near 1e9 (1.2e-7): the
    # golden loop must still end; run in a subprocess so a hang times out
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tactsqueeze.__file__)))
    code = ("from tactsqueeze import optimize\n"
            "r = optimize.maximize_scalar(lambda x: -(x - 1e9) ** 2, 0.0, 2e9, 1e-9)\n"
            "gamma, alpha, n = 1e-9, 5.0, 100\n"
            "s = optimize.optimal_split_full(4 * gamma * alpha / n, n, 1.0, gamma,\n"
            "                                4.0 / (4 * gamma))\n"
            "print(r.argmax, s.value)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    argmax, value = map(float, out.stdout.split())
    assert argmax == pytest.approx(1e9, rel=1e-15)
    assert value > 0


class TestElementwise:
    ALPHAS = [0.0, 0.5, 1.0, 1.0 + 1e-12, 1.5, math.e, 10.0, 1e3, 1e6]

    @pytest.mark.parametrize("tol", [1e-8, 1e-17])
    def test_theta_star_bits_of_the_scalar_call(self, monkeypatch, tol):
        # at tol 1e-17 some residuals fail: nan where the scalar call raises
        monkeypatch.setattr(optimize, "_STATIONARITY_TOL", tol)
        theta, at_boundary = optimize.optimal_theta_elementwise(np.array(self.ALPHAS))
        raised = 0
        for i, alpha in enumerate(self.ALPHAS):
            try:
                one = optimize.optimal_theta(alpha, 1.0)
            except NonFiniteObjectiveError:
                assert math.isnan(theta[i])
                raised += 1
                continue
            assert float(theta[i]).hex() == one.argmax.hex()
            assert at_boundary[i] == one.at_boundary
        assert (raised > 0) == (tol < 1e-8)

    def test_theta_star_at_infinite_and_nan_alpha(self):
        # +inf: the scalar call raises; nan: it returns nan, not at the
        # boundary; -inf: the boundary
        theta, at_boundary = optimize.optimal_theta_elementwise(
            np.array([math.inf, math.nan, -math.inf]))
        with pytest.raises(DomainError):
            optimize.optimal_theta(math.inf, 1.0)
        assert math.isnan(theta[0])
        for i, alpha in ((1, math.nan), (2, -math.inf)):
            one = optimize.optimal_theta(alpha, 1.0)
            assert float(theta[i]).hex() == float(one.argmax).hex()
            assert at_boundary[i] == one.at_boundary
        assert math.isnan(theta[1]) and not at_boundary[1]
        assert theta[2] == 0.0 and at_boundary[2]

    def test_u_star_bits_of_the_scalar_call(self):
        # nan exactly where the scalar call raises: alpha = 0 (not > 0) and
        # alpha = 1e6, where its value e^{a-1}/a overflows; the last two
        # finite alphas straddle that overflow, one float apart
        alphas = self.ALPHAS + [-1.0, math.inf, math.nan,
                                1932.1077324409084, 1932.1077324409086]
        with np.errstate(invalid="ignore"):  # U* at alpha = inf is inf/inf
            u, at_boundary = optimize.optimal_u_elementwise(np.array(alphas))
        raised = []
        for i, alpha in enumerate(alphas):
            try:
                one = optimize.optimal_u(alpha)
            except (DomainError, OverflowError):
                assert math.isnan(u[i]), alpha
                raised.append(alpha)
                continue
            assert float(u[i]).hex() == float(one.argmax).hex()
            assert at_boundary[i] == one.at_boundary
        assert raised[:4] == [0.0, 1e6, -1.0, math.inf] and raised[-1] == alphas[-1]
        assert len(raised) == 6 and math.isnan(raised[4])
