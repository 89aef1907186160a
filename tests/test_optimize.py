import decimal
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tactsqueeze
from tactsqueeze import analytic, optimize
from tactsqueeze.errors import DomainError, NonFiniteObjectiveError


def dense_argmax(f, lo, hi):
    """Brute-force (argmax, max) of a vectorized f on [lo, hi]: a dense grid,
    then a second one across the best point's two neighbouring cells."""
    xs = np.linspace(lo, hi, 4001)
    best = int(np.argmax(f(xs)))
    xs = np.linspace(xs[max(best - 1, 0)], xs[min(best + 1, xs.size - 1)], 20001)
    ys = f(xs)
    best = int(np.argmax(ys))
    return float(xs[best]), float(ys[best])


class TestOptimalTheta:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.99, 1.0])
    def test_boundary_below_threshold(self, alpha):
        out = optimize.optimal_theta(alpha)
        assert out.at_boundary
        assert out.argmax == 0.0

    def test_reference_point_against_brute_force(self):
        alpha = 10.0
        out = optimize.optimal_theta(alpha)
        # independent oracle: dense grid on the gain function
        grid = np.arange(0.0, 3.0, 1e-5)
        gains = grid * (alpha * np.exp(-grid) - 1.0)
        brute = grid[np.argmax(gains)]
        assert abs(out.argmax - brute) < 2e-5
        assert out.argmax == pytest.approx(0.7815, abs=1e-4)

    def test_strong_limit_near_unity(self):
        out = optimize.optimal_theta(1000.0)
        assert abs(out.argmax - 1.0) <= 0.01

    def test_stationarity_residual(self):
        for alpha in (1.5, 5.0, 50.0):
            out = optimize.optimal_theta(alpha)
            theta = out.argmax
            assert abs(alpha * math.exp(-theta) * (1 - theta) - 1) <= 1e-8

    def test_gain_positive_above_threshold(self):
        for alpha in (1.01, 2.0, 10.0):
            out = optimize.optimal_theta(alpha)
            assert out.value > 0.0
            assert not out.at_boundary

    def test_infinite_alpha_rejected(self):
        with pytest.raises(DomainError):
            optimize.optimal_theta(math.inf)
        # alpha = -inf is below threshold, not noiseless
        out = optimize.optimal_theta(-math.inf)
        assert out.argmax == 0.0 and out.at_boundary

    def test_nan_alpha_rejected(self):
        # as optimal_u rejects it; an array element stays nan (TestArrayCalls)
        with pytest.raises(DomainError):
            optimize.optimal_theta(math.nan)

    def test_array_value_is_the_float_squeeze_gain_at_each_interior_alpha(self):
        alpha = np.concatenate([[0.5, 1.0, math.inf, math.nan],
                                np.geomspace(1.0 + 1e-12, 1e8, 997)])
        out = optimize.optimal_theta(alpha)
        interior = np.flatnonzero((out.status.code == 0) & ~out.at_boundary)
        assert interior.size == 997
        for i in interior.tolist():
            assert out.value[i] == optimize.squeeze_gain(out.argmax[i], alpha[i])

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_squeeze_gain_outside_its_domain_raises(self, alpha):
        with pytest.raises(DomainError, match="squeeze_gain requires alpha > 0"):
            optimize.squeeze_gain(0.5, alpha)

    @pytest.mark.parametrize("alpha", [1.0 + 1e-12, 1.0 + 1e-9, 1.0001, 10.0, 1e3])
    def test_gain_value_to_rounding_near_threshold(self, alpha):
        # 50-digit decimal reference: near alpha = 1, alpha e^{-Theta} - 1
        # cancels to a few bits in floating point
        out = optimize.optimal_theta(alpha)
        with decimal.localcontext(decimal.Context(prec=50)):
            th = decimal.Decimal(out.argmax)
            ref = float(th * (decimal.Decimal(alpha) * (-th).exp() - 1))
        assert out.value == pytest.approx(ref, rel=1e-14, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e3, exclude_min=True))
    def test_closed_form_against_numeric_search(self, alpha):
        out = optimize.optimal_theta(alpha)
        theta = out.argmax
        assert abs(alpha * math.exp(-theta) * (1.0 - theta) - 1.0) <= 1e-12
        # squeeze_gain's expm1 form, over an array
        argmax, best = dense_argmax(
            lambda th: th * np.expm1(math.log(alpha) - th), 0.0, 2.0)
        assert abs(theta - argmax) <= 1e-7
        assert out.value >= best * (1.0 - 1e-12)

    W0_ALPHAS = [1.0 + 1e-15, 1.0 + 1e-12, math.e, 10.0, 2250.0, 1e8, 1e300]

    @staticmethod
    def check_w0_against_the_library(alpha):
        # scipy's lambertw is the reference only; the package evaluates W0 in numpy
        from scipy.special import lambertw
        ref = 1.0 - lambertw(math.e / alpha).real
        theta, _ = optimize._theta_star(np.array([alpha]))
        assert abs(theta[0] - ref) <= 2.3e-16
        if alpha <= 1e8:  # raises for the same alpha as the reference form
            residual = abs(alpha * math.exp(-ref) * (1.0 - ref) - 1.0)
            try:
                optimize.optimal_theta(alpha)
            except NonFiniteObjectiveError:
                assert residual > 1e-8
            else:
                assert residual <= 1e-8

    @pytest.mark.parametrize("alpha", W0_ALPHAS)
    def test_w0_against_the_library_at_listed_alpha(self, alpha):
        self.check_w0_against_the_library(alpha)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(min_value=1.0, max_value=1e300, exclude_min=True),
                     st.floats(min_value=-15.0, max_value=300.0).map(
                         lambda e: 1.0 + 10.0 ** e)))
    def test_w0_against_the_library(self, alpha):
        self.check_w0_against_the_library(alpha)


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
        argmax, best = dense_argmax(lambda x: (1.0 - x) * np.exp(a * x), 0.0, 1.0 - 1e-9)
        assert abs(u - argmax) <= 1e-7
        assert out.value >= best * (1.0 - 1e-12)


class TestOptimalSplitFull:
    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_budget_rejected(self, tau):
        with pytest.raises(ValueError, match="tau_budget"):
            optimize.optimal_split_full(0.1, 20, 1.0, 0.05, tau)

    @pytest.mark.parametrize("field, value", [
        ("j_coupling", -0.1), ("j_coupling", math.nan), ("j_coupling", math.inf),
        ("n_spins", 0), ("n_spins", 20.0), ("polarization_p", 1.5),
        ("polarization_p", 0.0), ("polarization_p", math.nan),
        ("gamma", -0.05), ("gamma", math.inf)])
    def test_invalid_field_rejected(self, field, value):
        args = dict(j_coupling=0.1, n_spins=20, polarization_p=1.0, gamma=0.05, tau_budget=4.0)
        with pytest.raises(ValueError, match=field):
            optimize.optimal_split_full(**{**args, field: value})

    @pytest.mark.parametrize("args", [(20.0, 100, 1.0, 0.25, 1.0),  # alpha = 2000, 4 Gamma tau = 1
                                      (1000.0, 100, 1.0, 0.01, 50.0)])
    def test_infinite_optimum_raises_nonfinite(self, args):
        # the first overflows to inf, the second underflows the divisor
        with pytest.raises(NonFiniteObjectiveError) as err:
            optimize.optimal_split_full(*args)
        t_sq, t_sig = err.value.abscissa
        assert 0.0 <= t_sq <= args[-1] and 0.0 < t_sig <= args[-1]

    def test_objective_evaluations_are_counted(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return analytic.snr_squeeze_then_measure(*args)

        monkeypatch.setattr(optimize, "snr_squeeze_then_measure", counted)
        for args in [(0.05, 100, 0.9, 0.25, 4.0), (0.01, 100, 1.0, 0.0, 2.0),
                     (0.0, 100, 1.0, 0.1, 2.0), (4 * 0.25 * 4.168 / 100, 100, 1.0, 0.25, 0.1951)]:
            calls.clear()
            out = optimize.optimal_split_full(*args)
            assert 1 <= len(calls) <= 8
            assert type(out.iterations) is int and out.iterations == len(calls)

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
    @given(alpha=st.floats(0.3, 300.0), budget=st.floats(1e-3, 6.0),
           gamma=st.floats(0.05, 1.0), n=st.integers(10, 500), p=st.floats(0.5, 1.0))
    @example(alpha=4.168, budget=0.1951, gamma=0.25, n=100, p=1.0)
    @example(alpha=math.e, budget=4.0, gamma=0.25, n=100, p=1.0)
    @example(alpha=3.10, budget=4.0, gamma=0.25, n=100, p=1.0)
    def test_against_dense_grid_and_closed_form_fraction(self, alpha, budget, gamma, n, p):
        # budget = 4 Gamma tau; small budgets make the box bind.  At
        # alpha = 4.168, budget = 0.1951 the edge t = tau has a minimum
        # before its maximum; alpha = e and 3.10 are where pieces change.
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

    def test_outputs_at_zero_gamma_and_zero_coupling(self):
        # Gamma = 0: f grows with T and t, so the corner (tau, tau)
        out = optimize.optimal_split_full(0.01, 100, 1.0, 0.0, 2.0)
        assert out.argmax == (2.0, 2.0) and out.at_boundary
        assert out.value == pytest.approx(73.8905609893065, rel=1e-15)
        # J = 0: no squeezing, and t* = 1/(8 Gamma) maximizes sqrt(t) e^{-4 Gamma t}
        out = optimize.optimal_split_full(0.0, 100, 1.0, 0.1, 2.0)
        assert out.argmax[0] == 0.0 and out.argmax[1] == pytest.approx(1.25, rel=1e-15)
        assert out.value == pytest.approx(6.781218927776206, rel=1e-15)


def test_import_loads_no_scipy(tmp_path):
    # W0 is evaluated in numpy, so no command loads scipy (~20 MB and ~0.3 s
    # at import); only exact.evolve_expm, the dense cross-check, needs it
    point = "[params]\nn_spins = 3\n"
    runs = [("analytic", point), ("linearized", point), ("optimize", point),
            ("sweep", point + "[run]\nengine = all\n"),
            ("verify", "[verify]\nn_min = 2\nn_max = 2\n")]
    argvs = []
    for command, text in runs:
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / f"{command}.csv")])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tactsqueeze.__file__)))
    code = ("import contextlib, io, sys\n"
            "from tactsqueeze import cli\n"
            "for argv in %r:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(argv)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n" % argvs)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
    for command, _ in runs:  # a header and one row each
        lines = (tmp_path / f"{command}.csv").read_text().splitlines()
        assert len([ln for ln in lines if not ln.startswith("#")]) == 2, command


def test_tolerance_below_float_spacing_terminates():
    # a budget of 1e9, where the float spacing is 1.2e-7: the split must
    # still end; run in a subprocess so a hang times out
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tactsqueeze.__file__)))
    code = ("from tactsqueeze import optimize\n"
            "gamma, alpha, n = 1e-9, 5.0, 100\n"
            "s = optimize.optimal_split_full(4 * gamma * alpha / n, n, 1.0, gamma,\n"
            "                                4.0 / (4 * gamma))\n"
            "print(s.value)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert float(out.stdout) > 0
