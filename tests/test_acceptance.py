"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.

The exact oracle's TACT Hamiltonian is written in Pauli units and
contracts at 4 J N P, while the Gaussian engine and the closed forms read
J as the coupling with kappa = J N P.  Criteria 6 and 7 drive the oracle
at J / core.PAULI_TACT_RATE_FACTOR so that both sides describe one
Hamiltonian.

Criterion 7 passes under that drive: at N = 8 the exact/Gaussian ratios
are 1.012, 1.023 and 1.044 over kappa t = 0.05, 0.1, 0.2, and at fixed
kappa t = 0.2 the gap shrinks like 0.35/N over N = 3..8.

Criterion 6 is asserted at its stated tolerances and fails: at alpha = 5
and 4 Gamma T = 1 the trace-norm error grows from 0.152 at N = 2 to 0.664
at N = 8 (log-log slope +0.99).  The oracle agrees with dense
superoperator exponentials; the linearized picture gives the likely cause.
Depolarizing during squeezing relaxes pair correlations at 8 Gamma and
refills the squeezed variance (0.32 N in the linearized picture), while
depolarizing first leaves a product state that then squeezes without that
loss (0.025 N).  The gap does not depend on N, so the error should tend to
a constant rather than fall like 1/N.  Whether the paper means the
equivalence for second moments only, or asymptotically, is not settled
by the abstract in PAPER.md.  See the README's Tests section.
"""

import math
import time

import numpy as np
import pytest

from tactsqueeze import analytic, cli, core, exact, linearized, optimize

# channel residuals accumulated across every oracle run in criteria 5-7
ORACLE_RESIDUALS: list[tuple[float, float, float]] = []


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _tracked_evolve(rho, gens, duration):
    out = exact.evolve(rho, gens, duration)
    ORACLE_RESIDUALS.append(exact.channel_residuals(out))
    return out


def test_criterion_01_formula_consistency():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        j, gamma, t = 10.0 ** rng.uniform(-2, 1, size=3)
        n = float(rng.integers(2, 1000))
        p = rng.uniform(0.05, 1.0)
        full = analytic.xi2_min(j, n, p, gamma, t)
        dim = analytic.xi2_min_dimensionless(j * n * p / (4 * gamma),
                                             4 * gamma * t, p)
        if math.isfinite(full.xi2) and full.xi2 > 0:
            worst = max(worst, abs(full.xi2 - dim.xi2) / dim.xi2)
    elapsed = time.perf_counter() - start
    _report(1, "formula consistency", worst <= 1e-12 and elapsed < 1.0,
            f"worst rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_squeezing_threshold():
    p = 0.8
    ok = True
    details = []
    for alpha in (0.2, 0.5, 0.99):
        out = optimize.optimal_theta(alpha)
        ok &= out.at_boundary and out.argmax == 0.0
    for alpha in (1.01, 2.0, 10.0):
        out = optimize.optimal_theta(alpha)
        xi2 = analytic.xi2_min_dimensionless(alpha, out.argmax, p).xi2
        ok &= (not out.at_boundary) and out.argmax > 0.0 and xi2 < 1 / p
        details.append(f"a={alpha}: theta*={out.argmax:.4f} xi2={xi2:.4f}")
    # dichotomy matches the sign of g'(0) = alpha - 1 exactly
    ok &= optimize.optimal_theta(1.0).at_boundary
    ok &= not optimize.optimal_theta(1.0 + 1e-9).at_boundary
    _report(2, "squeezing threshold", ok, "; ".join(details))


def test_criterion_03_strong_squeezing_limit():
    alpha, p = 1000.0, 1.0
    out = optimize.optimal_theta(alpha)
    xi2 = analytic.xi2_min_dimensionless(alpha, out.argmax, p).xi2
    strong = analytic.xi2_strong_squeezing(alpha, p)
    theta_ok = abs(out.argmax - 1.0) <= 0.01
    xi2_ok = abs(xi2 - strong) / strong <= 0.02
    _report(3, "strong-squeezing limit", theta_ok and xi2_ok,
            f"theta*={out.argmax:.5f}, xi2/asymptote={xi2 / strong:.5f}")


def test_criterion_04_optimal_split():
    ok = True
    for alpha in (5.0, 10.0, 50.0, 200.0):
        a = alpha * math.exp(-1)
        closed = (a - 1) / a
        numeric = optimize.optimal_u(alpha).argmax
        ok &= abs(numeric - closed) <= 1e-6
    oracle = math.exp(10.0 * math.exp(-1.0)) / 10.0  # independent arithmetic
    dev = abs(analytic.improvement_factor(10.0) - oracle)
    ok &= dev <= 1e-9
    _report(4, "optimum split / improvement factor", ok,
            f"improvement(10)={oracle:.6f}, dev {dev:.1e}")


def test_criterion_05_depolarizing_decay():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        for gamma in (0.05, 0.5):
            gen = [exact.depolarize_generator(n, gamma)]
            for p in (0.3, 1.0):
                rho = exact.build_initial_state(n, p)
                for t in (0.2, 1.0, 3.0):
                    out = _tracked_evolve(rho, gen, t)
                    expected = p * math.exp(-4 * gamma * t)
                    for site in range(n):
                        got = exact.measure(out, exact.site_operator(exact.SIGMA_Z, site, n))
                        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    _report(5, "depolarizing decay law", worst <= 1e-6 and elapsed < 30.0,
            f"worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_factorization_scaling():
    # fixed alpha = 5 with 4 Gamma T = 1: the engines' coupling is
    # J = 4 Gamma alpha / (N P); the Pauli-unit oracle is driven at
    # J / PAULI_TACT_RATE_FACTOR so that it describes the same Hamiltonian
    alpha, gamma, t_squeeze, p = 5.0, 0.25, 1.0, 1.0
    start = time.perf_counter()
    errors = []
    for n in range(2, 9):
        j = 4 * gamma * alpha / (core.PAULI_TACT_RATE_FACTOR * n * p)
        rho = exact.build_initial_state(n, p)
        l1 = exact.squeeze_generator(n, j)
        l2 = exact.depolarize_generator(n, gamma)
        joint = _tracked_evolve(rho, [l1, l2], t_squeeze)
        split = _tracked_evolve(_tracked_evolve(rho, [l2], t_squeeze),
                                [l1], t_squeeze)
        errors.append(exact.trace_norm(joint - split))
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    slope = float(np.polyfit(np.log(np.arange(2, 9)), np.log(errors), 1)[0])
    detail = (f"errors={['%.3e' % e for e in errors]}, slope={slope:.3f}, "
              f"{elapsed:.0f}s")
    _report(6, "factorization error O(1/N) scaling",
            decreasing and slope <= -0.5 and elapsed < 300.0, detail)


def test_criterion_07_linearized_vs_exact():
    n, p, j = 8, 1.0, 1.0
    start = time.perf_counter()
    rho = exact.build_initial_state(n, p)
    # the Pauli-unit oracle contracts at PAULI_TACT_RATE_FACTOR * J N P;
    # drive it so that both sides describe kappa = J N P
    l1 = exact.squeeze_generator(n, j / core.PAULI_TACT_RATE_FACTOR)
    kappa = j * n * p  # linearized engine convention
    ratios = []
    for jnt in (0.05, 0.1, 0.2):
        duration = jnt / (j * n)
        out = _tracked_evolve(rho, [l1], duration)
        min_var, _ = exact.collective_moments(out, n).transverse_extrema()
        exact_scaled = min_var / (2 * n * p)
        gauss = linearized.min_variance_direction(
            linearized.bogoliubov_propagate(
                linearized.vacuum_state(kappa, n * p), duration)).variance
        ratios.append(exact_scaled / gauss)
    elapsed = time.perf_counter() - start
    ok = all(abs(r - 1) <= 0.10 for r in ratios) and elapsed < 120.0
    _report(7, "linearized vs exact agreement", ok,
            f"ratios={['%.3f' % r for r in ratios]}, {elapsed:.0f}s")


def test_criterion_08_channel_invariants():
    assert ORACLE_RESIDUALS, "criteria 5-7 must run first"
    worst_trace = max(r[0] for r in ORACLE_RESIDUALS)
    worst_herm = max(r[1] for r in ORACLE_RESIDUALS)
    worst_eig = min(r[2] for r in ORACLE_RESIDUALS)
    ok = worst_trace <= 1e-9 and worst_herm <= 1e-10 and worst_eig >= -1e-8
    _report(8, "channel invariants", ok,
            f"{len(ORACLE_RESIDUALS)} runs: trace {worst_trace:.1e}, "
            f"herm {worst_herm:.1e}, min eig {worst_eig:.1e}")


def test_criterion_09_field_depolarizer_commutation():
    rho = exact.build_initial_state(3, 0.8)
    l2 = exact.depolarize_generator(3, 0.3)
    l3 = exact.field_generator(3, 0.7)
    err = exact.factorization_error_pair(rho, l2, l3, 0.8)
    tol = 10 * exact.StepControl().trace_tol
    _report(9, "field/depolarizer exact commutation", err <= tol,
            f"error {err:.2e} vs {tol:.0e}")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[params]\nn_spins = 20\npolarization_p = 0.9\n"
        "[sweep]\naxis = j_coupling 0.01 0.5 10 linear\n"
        "axis2 = gamma 0.01 1.0 10 log\n"
        "[run]\nengine = analytic\n")
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    code1 = cli.main(["sweep", "--config", str(cfg), "--out", str(out1),
                      "--workers", "1", "--no-timing"])
    code8 = cli.main(["sweep", "--config", str(cfg), "--out", str(out8),
                      "--workers", "8", "--no-timing"])
    identical = out1.read_bytes() == out8.read_bytes()
    rows = [ln for ln in out1.read_text().splitlines()
            if ln and not ln.startswith("#")]
    ok = code1 == 0 and code8 == 0 and identical and len(rows) == 101
    _report(10, "CLI sweep determinism", ok,
            f"identical={identical}, rows={len(rows) - 1}")
