"""Correctness checks on the outputs of one pass.

Independent paths are used wherever one exists:

* N <= 4 exact rows (both exact workloads): the dense superoperator
  exponential `exact.evolve_expm`, and dense superoperator products for the
  commutator norm, against the RK4 values the CLI printed;
* exact_sweep: the printed channel residual columns within the default
  `StepControl` tolerances;
* closed_form_sweep: the criterion-01 identity xi2_min = xi2_min_dimensionless,
  Theta* stationarity, u* = (a - 1)/a, the Gaussian closed form of the
  linearized variance, byte-identical analytic CSVs for 1 and 2 workers, and a
  brute-force grid bound on every optimal_split_full value, all evaluated
  here with numpy formulas;
* rows above N = 4 with no affordable independent integrator: dimensionless
  values recorded when the benchmark was introduced (reference.json).  The
  time-unit seed leaves them unchanged up to rounding.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import CF_N, CF_P, EXACT_P, Step, Workload

REFERENCE = Path(__file__).with_name("reference.json")

# RK4 at h * rate <= 0.05 against the dense exponential.  Observables of one
# evolve: worst relative deviation measured when this check was written 8e-11.
EXPM_RTOL = 1e-7
# the factorization error is a trace-norm difference of two RK4 results, so
# their errors add in absolute terms; measured worst 7e-8 (N = 2)
FACTORIZATION_ATOL = 1e-6
# recorded dimensionless values under a change of time unit (rounding only)
REFERENCE_RTOL = 1e-8
# CSV values carry 15 significant digits
CSV_RTOL = 1e-12
STATIONARITY_TOL = 1e-8
# golden-section search resolves the argmax of a smooth maximum only to
# about sqrt(machine epsilon)
U_STAR_ATOL = 1e-6


@dataclass
class CheckReport:
    failed_rows: dict[str, set] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)
    diagnostics: dict[str, float] = field(default_factory=dict)

    def fail(self, step: str, row: int, message: str) -> None:
        self.failed_rows.setdefault(step, set()).add(row)
        if len(self.messages) < 20:
            self.messages.append(f"{step} row {row}: {message}")

    @property
    def failed(self) -> int:
        return sum(len(r) for r in self.failed_rows.values())


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    """(comment lines, data rows) of a CLI output file."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    return comments, list(csv.DictReader(data))


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _expm_verify_row(n: int, j: float, gamma: float, t: float) -> tuple[float, float]:
    from tactsqueeze import exact
    rho = exact.build_initial_state(n, 1.0)
    l1 = exact.squeeze_generator(n, j)
    l2 = exact.depolarize_generator(n, gamma)
    joint = exact.evolve_expm(rho, [l1, l2], t)
    split = exact.evolve_expm(exact.evolve_expm(rho, [l2], t), [l1], t)
    dim = rho.shape[0]
    d1, d2 = l1.dense(), l2.dense()
    vec = rho.reshape(-1)
    ab = (d1 @ (d2 @ vec)).reshape(dim, dim)
    ba = (d2 @ (d1 @ vec)).reshape(dim, dim)
    comm = exact.trace_norm(ab - ba) / (exact.trace_norm(ab) + exact.trace_norm(ba))
    return exact.trace_norm(joint - split), comm


def check_verify(wl: Workload, step: Step, rows: list[dict], report: CheckReport) -> None:
    ref = _reference()["oracle_verify"]
    gamma, t, alpha = wl.inputs["gamma"], wl.inputs["t_squeeze"], wl.inputs["alpha"]
    for i, r in enumerate(rows):
        n = int(r["n_spins"])
        if r["status"] != "ok":
            report.fail(step.label, i, f"status {r['status']!r}")
            continue
        got = (float(r["factorization_error"]), float(r["commutator_norm"]))
        if n <= 4:
            want = _expm_verify_row(n, 4.0 * gamma * alpha / n, gamma, t)
            tols = ((0.0, FACTORIZATION_ATOL), (CSV_RTOL, 0.0))
        else:
            want = (ref[str(n)]["factorization_error"], ref[str(n)]["commutator_norm"])
            tols = ((REFERENCE_RTOL, 0.0),) * 2
        for col, g, w, (rtol, atol) in zip(("factorization_error", "commutator_norm"),
                                           got, want, tols):
            if not _close(g, w, rtol, atol):
                report.fail(step.label, i, f"N={n} {col} {g!r} != {w!r}")


EXACT_COLUMNS = ("mean_sz_per_site", "xi2_kitagawa_ueda", "xi2_wineland")


def exact_row_values(n: int, j: float, gamma: float, t: float) -> tuple[float, ...]:
    """Dimensionless exact_sweep columns from the dense exponential."""
    from tactsqueeze import exact
    rho = exact.build_initial_state(n, EXACT_P)
    gens = [exact.squeeze_generator(n, j), exact.depolarize_generator(n, gamma)]
    rho = exact.evolve_expm(rho, gens, t)
    ops = exact.spin_operators(n)
    return (exact.measure(rho, ops.collective_z) / n,
            exact.squeezing_parameter_exact(rho, ops, exact.KITAGAWA_UEDA),
            exact.squeezing_parameter_exact(rho, ops, exact.WINELAND))


def exact_row_key(n: int, t_index: int, g_index: int) -> str:
    return f"n={n},t={t_index},gamma={g_index}"


def check_exact(wl: Workload, step: Step, rows: list[dict], report: CheckReport) -> None:
    from tactsqueeze import exact
    ctl = exact.StepControl()
    ref = _reference()["exact_sweep"]
    inp = wl.inputs
    n_lo, n_hi = inp["n_spins"]
    t_grid = np.geomspace(*inp["t_squeeze"][:2], inp["t_squeeze"][2])
    g_grid = inp["gamma"]
    expected_rows = [(n, ti, gi) for n in range(n_lo, n_hi + 1)
                     for ti in range(len(t_grid)) for gi in range(len(g_grid))]
    if len(rows) != len(expected_rows):
        report.messages.append(f"{step.label}: {len(rows)} rows, expected {len(expected_rows)}")
    for i, (r, (n, ti, gi)) in enumerate(zip(rows, expected_rows)):
        t, gamma = float(t_grid[ti]), g_grid[gi]
        if r["status"] != "ok" or int(r["n_spins"]) != n:
            report.fail(step.label, i, f"status {r['status']!r}, n_spins {r['n_spins']}")
            continue
        if not (float(r["trace_residual"]) <= ctl.trace_tol
                and float(r["hermiticity_residual"]) <= ctl.hermiticity_tol
                and float(r["min_eigenvalue"]) >= ctl.min_eigenvalue_tol):
            report.fail(step.label, i, "channel residual outside StepControl tolerances")
        for col, want in (("theta", 4.0 * gamma * t),
                          ("alpha", inp["j_coupling"] * n * EXACT_P / (4.0 * gamma))):
            if not _close(float(r[col]), want, CSV_RTOL):
                report.fail(step.label, i, f"{col} {r[col]} != {want!r}")
        if n <= 4:
            want, rtol = exact_row_values(n, inp["j_coupling"], gamma, t), EXPM_RTOL
        else:
            rec = ref[exact_row_key(n, ti, gi)]
            want, rtol = [rec[c] for c in EXACT_COLUMNS], REFERENCE_RTOL
        for col, w in zip(EXACT_COLUMNS, want):
            if not _close(float(r[col]), w, rtol):
                report.fail(step.label, i, f"N={n} {col} {r[col]} != {w!r}")


def _cf_grid(step: Step) -> tuple[np.ndarray, ...]:
    """Per-row (J, Gamma, T) of a closed-form step, row-major as the CLI builds it."""
    axes = {name: np.geomspace(lo, hi, count) for name, lo, hi, count in step.grid}
    mesh = np.meshgrid(*axes.values(), indexing="ij")
    cols = dict(zip(axes, (m.ravel() for m in mesh)))
    return cols["j_coupling"], cols["gamma"], cols["t_squeeze"]


def _column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) if r[name] != "" else np.nan for r in rows])


def _fail_mask(report: CheckReport, step: str, bad: np.ndarray, message: str) -> None:
    for i in np.flatnonzero(bad):
        report.fail(step, int(i), message)


def _statuses(rows: list[dict]) -> np.ndarray:
    return np.array([r["status"] for r in rows], dtype=object)


def _grid_prefix(step: Step, rows: list[dict], report: CheckReport):
    """Grid inputs of the written rows; flags rows whose inputs do not match."""
    j, g, t = (c[:len(rows)] for c in _cf_grid(step))
    for name, want in (("j_coupling", j), ("gamma", g), ("t_squeeze", t)):
        _fail_mask(report, step.label,
                   ~np.isclose(_column(rows, name), want, rtol=CSV_RTOL, atol=0),
                   f"{name} out of row-major grid order")
    alpha = j * CF_N * CF_P / (4.0 * g)
    return j, g, t, alpha


def check_analytic(wl: Workload, step: Step, rows: list[dict], report: CheckReport) -> None:
    _, g, t, alpha = _grid_prefix(step, rows, report)
    _fail_mask(report, step.label, _statuses(rows) != "ok", "status not ok")
    # criterion 01: the dimensional and dimensionless forms of xi2_min agree
    theta = 4.0 * g * t
    xi2 = np.exp(-theta * (alpha * np.exp(-theta) - 1.0)) / CF_P
    got = _column(rows, "xi2_paper")
    _fail_mask(report, step.label, ~(np.abs(got - xi2) <= CSV_RTOL * xi2),
               "xi2_min differs from xi2_min_dimensionless")


def check_linearized(wl: Workload, step: Step, rows: list[dict], report: CheckReport) -> None:
    j, g, t, _ = _grid_prefix(step, rows, report)
    _fail_mask(report, step.label, _statuses(rows) != "ok", "status not ok")
    kappa = j * CF_N * CF_P * np.exp(-4.0 * g * t)
    _fail_mask(report, step.label,
               ~np.isclose(_column(rows, "kappa"), kappa, rtol=CSV_RTOL, atol=0),
               "kappa != J N P_eff")
    # cov = M M^T / 2 with M = [[cosh, sinh], [sinh, cosh]](kappa T): the minor
    # eigenvalue is e^{-2 kappa T}/2.  The engine forms it as mid - half_diff
    # of entries of size cosh(2 kappa T)/2, so its rounding error scales with
    # that size; the bound below admits exactly that rounding.
    want = np.exp(-2.0 * kappa * t) / 2.0
    scale = np.cosh(2.0 * kappa * t)
    err = np.abs(_column(rows, "min_quadrature_variance") - want)
    _fail_mask(report, step.label,
               ~(err <= 8.0 * np.finfo(float).eps * scale + CSV_RTOL * want),
               "min_quadrature_variance beyond rounding of the Gaussian closed form")
    report.diagnostics["linearized_rows_off_by_1e-6_rel"] = int((err > 1e-6 * want).sum())


def check_optimize(wl: Workload, step: Step, rows: list[dict], report: CheckReport) -> None:
    _, _, _, alpha = _grid_prefix(step, rows, report)
    a = alpha / math.e
    # below a = alpha/e = 1 the strong-regime SNR optimum is a domain-status row
    domain = np.array([s.startswith("snr_optimum_strong: no interior optimum")
                       for s in _statuses(rows)], dtype=bool)
    _fail_mask(report, step.label, np.where(a > 1.0, _statuses(rows) != "ok", ~domain),
               "unexpected status")
    theta = _column(rows, "theta_star")
    interior = alpha > 1.0
    residual = np.abs(alpha * np.exp(-theta) * (1.0 - theta) - 1.0)
    at_boundary = np.array([r["theta_at_boundary"] == "true" for r in rows], dtype=bool)
    _fail_mask(report, step.label, interior & ~((residual <= STATIONARITY_TOL) & ~at_boundary),
               "Theta* not stationary")
    _fail_mask(report, step.label, ~interior & ~((theta == 0.0) & at_boundary),
               "Theta* != 0 below threshold")
    u_want = np.where(a > 1.0, 1.0 - 1.0 / a, 0.0)  # (a - 1)/a, alpha > 0 on this grid
    u = _column(rows, "u_star")
    _fail_mask(report, step.label, ~(np.abs(u - u_want) <= U_STAR_ATOL), "u* != (a - 1)/a")
    report.diagnostics["u_star_worst_abs_dev"] = float(np.max(np.abs(u - u_want), initial=0.0))


def _snr_then(s: dict, t_sq, t_sig):
    p_eff = s["polarization_p"] * np.exp(-4.0 * s["gamma"] * (t_sq + t_sig))
    with np.errstate(invalid="ignore", divide="ignore"):
        val = (t_sig * np.sqrt(s["n_spins"]) / np.sqrt(t_sq + t_sig) * p_eff
               * np.exp(s["j_coupling"] * s["n_spins"] * p_eff * t_sq))
    return np.where(t_sq + t_sig > 0, val, 0.0)


def check_split(split_sets: list[dict], outcomes: list, report: CheckReport) -> None:
    """Each optimum reproduces its own value and beats an independent 97^2 grid."""
    for i, (s, out) in enumerate(zip(split_sets, outcomes)):
        t_sq, t_sig = out.argmax
        if not _close(out.value, float(_snr_then(s, t_sq, t_sig)), 1e-12):
            report.fail("split_full", i, "value does not match the objective at argmax")
        xs = np.linspace(0.0, s["tau_budget"], 97)
        grid_max = float(_snr_then(s, xs[:, None], xs[None, :]).max())
        if out.value < grid_max * (1.0 - 1e-12):
            report.fail("split_full", i, f"value {out.value!r} below grid max {grid_max!r}")


def identical_bytes(path_a: str, path_b: str, step: str, report: CheckReport) -> None:
    """The 1- and 2-worker CSVs must match byte for byte under --no-timing;
    every differing line of `path_b` counts as a failed row."""
    a = Path(path_a).read_bytes().splitlines()
    b = Path(path_b).read_bytes().splitlines()
    for i in range(max(len(a), len(b))):
        if i >= len(a) or i >= len(b) or a[i] != b[i]:
            report.fail(step, i, "line differs from the --workers 1 output")
