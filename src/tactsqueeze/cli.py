"""Command-line front end: config ingestion, sweeps, CSV persistence.

Subcommands: analytic, exact, linearized, optimize, verify, sweep.
Config files are INI-style key = value with [section] headers; unknown
keys are hard errors.  Output is deterministic CSV (15 significant
digits, '#' comment lines for metadata); the wall-time column is
dropped under --no-timing so files are byte-identical across worker
counts.  Exit codes: 0 success (row-level domain errors allowed),
1 runtime failure, 2 config error.

The closed-form engines (analytic, linearized, optimize) are evaluated
over the whole grid at once, as numpy columns, in process; exact and all
run one task per grid point on up to --workers processes.  Both write
through one column-wise CSV writer.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import hashlib
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analytic, core, exact, linearized, optimize
from .errors import ConfigError, ResourceLimitError, TactError

PARAM_FIELDS = ["n_spins", "polarization_p", "j_coupling", "gamma",
                "b_field", "t_squeeze", "t_signal", "tau_total"]


def _flag(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _positive(x: float) -> bool:
    return 0.0 < x < math.inf


# [run], [verify] and [integrator] keys: (parse, range check, the range in words)
_OPTIONS = {
    "run": {
        "engine": (str, lambda v: v in _ENGINES,
                   "one of analytic, exact, linearized, optimize, all"),
        "n_cap": (int, lambda v: v >= 1, ">= 1"),
        "with_factorization": (_flag, lambda v: True, "true or false"),
    },
    "verify": {
        "n_min": (int, lambda v: v >= 1, ">= 1"),
        "n_max": (int, lambda v: v >= 1, ">= 1"),
        "alpha": (float, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
        "gamma": (float, _positive, "finite and > 0"),
        "polarization_p": (float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
        "t_squeeze": (float, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    },
    "integrator": {
        "target_step_rate": (float, _positive, "finite and > 0"),
        "trace_tol": (float, _positive, "finite and > 0"),
        "hermiticity_tol": (float, _positive, "finite and > 0"),
        "min_eigenvalue_tol": (float, lambda v: -math.inf < v < 0.0, "finite and < 0"),
        "max_refinements": (int, lambda v: v >= 0, ">= 0"),
    },
}

_KNOWN_KEYS = {"params": set(PARAM_FIELDS),
               "sweep": None,  # axis* keys, validated separately
               **_OPTIONS}

_DEFAULT_PARAMS = {"n_spins": 4, "polarization_p": 1.0, "j_coupling": 0.1,
                   "gamma": 0.1, "b_field": 0.0, "t_squeeze": 1.0,
                   "t_signal": 1.0, "tau_total": 1.0}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.15g}"
    if x is None:
        return ""
    return str(x)


# -- CSV writer ----------------------------------------------------------------

_CHUNK_ROWS = 4096  # rows formatted at a time: the text of one chunk is held


def _texts(values) -> list[str]:
    """The CSV text of each value, with the type dispatch made once for all."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype == bool:
            return list(map(("false", "true").__getitem__, values.tolist()))
        return list(map("{:.15g}".format if values.dtype.kind == "f" else str,
                        values.tolist()))
    values = list(values)
    kinds = set(map(type, values))
    if kinds <= {float}:
        return list(map("{:.15g}".format, values))
    if kinds <= {str}:
        return values
    return list(map(_fmt, values))


class _Column(NamedTuple):
    """One CSV column: a value per row or, with `index`, a value per distinct
    entry and each row's entry.  Rows in `empty` are written as ''."""

    values: np.ndarray | list
    index: np.ndarray | None = None
    empty: np.ndarray | None = None

    def cells(self, lo: int, hi: int) -> list[str]:
        """Text of rows lo..hi-1, each distinct value formatted once."""
        idx = None
        if self.index is not None:
            texts, idx = _texts(self.values), self.index[lo:hi]
        elif isinstance(self.values, np.ndarray) and self.values.dtype.kind == "f":
            chunk = self.values[lo:hi]
            # by bit pattern, so -0.0 and 0.0 stay apart
            _, first, idx = np.unique(chunk.view(np.int64), return_index=True,
                                      return_inverse=True)
            texts = _texts(chunk[first])
        else:
            texts = _texts(self.values[lo:hi])
        cells = texts if idx is None else list(map(texts.__getitem__, idx.tolist()))
        if self.empty is not None:
            for i in np.flatnonzero(self.empty[lo:hi]).tolist():
                cells[i] = ""
        return cells


class _Table(NamedTuple):
    """Rows to write: `n_rows` rows of `columns`, except the whole `rows`
    (by index) that override them.  `layouts` holds (first row, key order)
    pairs: the header lists the keys in order of first appearance."""

    n_rows: int
    columns: dict[str, _Column]
    layouts: list[tuple[int, tuple[str, ...]]]
    rows: dict[int, dict]

    @classmethod
    def from_rows(cls, rows: list[dict]) -> _Table:
        keys = tuple(dict.fromkeys(k for row in rows for k in row if k != "_index"))
        columns = {k: _Column([row.get(k, "") for row in rows]) for k in keys}
        return cls(len(rows), columns, [(0, keys)], {})

    def header(self) -> list[str]:
        keys = (k for _, order in sorted(self.layouts, key=lambda e: e[0]) for k in order)
        return list(dict.fromkeys(keys)) or PARAM_FIELDS + ["status"]


def _write_csv(path: str, table: _Table, comments: list[str],
               incomplete: bool = False) -> None:
    header = table.header()
    overrides = sorted(table.rows.items())
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, table.n_rows, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, table.n_rows)
            cells = [table.columns[col].cells(lo, hi) if col in table.columns
                     else [""] * (hi - lo) for col in header]
            for i, row in overrides:
                if lo <= i < hi:
                    for col, name in zip(cells, header):
                        col[i - lo] = _fmt(row.get(name, ""))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        if incomplete:
            fh.write("# INCOMPLETE\n")


def load_config(path: str | None) -> dict:
    """Parse and validate the config file; unknown sections/keys are errors."""
    cfg = {"params": dict(_DEFAULT_PARAMS), "sweep_axes": [], "run": {},
           "verify": {}, "integrator": {}}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        known = _KNOWN_KEYS[section]
        for key, raw in parser.items(section):
            if section == "sweep":
                if not key.startswith("axis"):
                    raise ConfigError(f"unknown key '{key}' in [sweep] (expected axis*)")
                cfg["sweep_axes"].append(_parse_axis(key, raw))
                continue
            if key not in known:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            if section == "params":
                try:
                    cfg["params"][key] = int(raw) if key == "n_spins" else float(raw)
                except ValueError as exc:
                    raise ConfigError(f"params.{key}: {exc}") from exc
            else:
                cfg[section][key] = _parse_option(section, key, raw)
    v = cfg["verify"]
    if v.get("n_max", 8) < v.get("n_min", 2):
        raise ConfigError("verify.n_max must be >= verify.n_min")
    return cfg


def _parse_option(section: str, key: str, raw: str):
    parse, ok, allowed = _OPTIONS[section][key]
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc
    if not ok(value):
        raise ConfigError(f"{section}.{key} must be {allowed}, got {raw!r}")
    return value


def _parse_axis(key: str, raw: str) -> dict:
    parts = raw.split()
    if len(parts) != 5:
        raise ConfigError(
            f"sweep.{key}: expected 'name lo hi count linear|log', got {raw!r}")
    name, lo, hi, count, spacing = parts
    if name not in PARAM_FIELDS:
        raise ConfigError(f"sweep.{key}: unknown parameter '{name}'")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"sweep.{key}: spacing must be linear or log")
    try:
        lo_f, hi_f, count_i = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"sweep.{key}: {exc}") from exc
    if count_i < 0:
        raise ConfigError(f"sweep.{key}: count must be >= 0")
    if spacing == "log" and (lo_f <= 0 or hi_f <= 0):
        raise ConfigError(f"sweep.{key}: log spacing needs positive bounds")
    if count_i == 0:
        vals = []
    elif count_i == 1:
        vals = [lo_f]
    else:
        space = np.linspace if spacing == "linear" else np.geomspace
        vals = [float(v) for v in space(lo_f, hi_f, count_i)]
    if name == "n_spins":
        vals = [_spin_count(key, v) for v in vals]
    return {"name": name, "values": vals}


def _spin_count(key: str, v: float) -> int:
    # geomspace(2, 64, 6) lands within rounding of 4 (3.999999999999999)
    if not (math.isfinite(v) and math.isclose(v, round(v), rel_tol=1e-12)):
        raise ConfigError(f"sweep.{key}: n_spins value {v!r} is not an integer")
    return round(v)


def build_grid(cfg: dict) -> tuple[int, dict[str, tuple[list, np.ndarray]]]:
    """Row-major cartesian product of the sweep axes over the base params.

    Returns the row count and, per parameter, (its values, the index of
    each row's value): the first axis is outermost, and a later axis on the
    same parameter overrides an earlier one.
    """
    counts = [len(ax["values"]) for ax in cfg["sweep_axes"]]
    n = math.prod(counts)
    rows = np.arange(n)
    params = {name: ([v], np.zeros(n, dtype=np.intp)) for name, v in cfg["params"].items()}
    for k, ax in enumerate(cfg["sweep_axes"]):
        stride = math.prod(counts[k + 1:])
        params[ax["name"]] = (ax["values"], rows // stride % counts[k])
    return n, params


def _grid_point(params: dict, i: int) -> dict:
    return {name: values[index[i]] for name, (values, index) in params.items()}


def _step_control(cfg: dict) -> exact.StepControl:
    return exact.StepControl(**cfg["integrator"])


# -- per-row engines (module level so process pools can pickle them) ---------

def _row_start(pdict: dict) -> tuple[core.ProtocolParams, core.DimensionlessGroups, dict]:
    """The row's params, its dimensionless groups (derived once) and a row
    holding the inputs and the group columns."""
    p = core.ProtocolParams(**pdict)
    g = core.derive_dimensionless(p)
    row = dict(pdict, theta=g.theta, alpha=g.alpha, alpha_infinite=g.alpha_infinite,
               u=g.theta, p_eff=g.p_eff)
    return p, g, row


def _row_analytic(pdict: dict, opts: dict) -> dict:
    p, _, row = _row_start(pdict)
    res = analytic.xi2_min(p.j_coupling, p.n_spins, p.polarization_p,
                           p.gamma, p.t_squeeze)
    row.update({"xi2_paper": res.xi2, "exponent_arg": res.exponent_arg,
                "regime": res.regime})
    try:
        row["snr_while_measuring"] = analytic.snr_squeeze_while_measure(
            p.j_coupling, p.n_spins, p.polarization_p, p.gamma,
            p.t_squeeze).snr_per_root_time
    except TactError as exc:
        row["snr_while_measuring"] = ""
        row["status"] = f"snr_while_measuring: {exc}"
    try:
        row["snr_squeeze_then_measure"] = analytic.snr_squeeze_then_measure(
            p.j_coupling, p.n_spins, p.polarization_p, p.gamma,
            p.t_squeeze, p.t_signal).snr_per_root_time
    except TactError as exc:
        row["snr_squeeze_then_measure"] = ""
        row.setdefault("status", f"snr_squeeze_then_measure: {exc}")
    row.setdefault("status", "ok")
    return row


def _row_linearized(pdict: dict, opts: dict) -> dict:
    p, g, row = _row_start(pdict)
    kappa = p.j_coupling * p.n_spins * g.p_eff
    vac = linearized.squeezed_vacuum(kappa * p.t_squeeze)
    sig = linearized.signal(p.b_field, p.j_coupling, p.n_spins * g.p_eff, p.t_signal)
    row.update({"kappa": kappa, "min_quadrature_variance": vac.min_variance,
                "min_variance_angle": vac.angle, "isotropic": vac.isotropic,
                "cov_det": vac.cov_det,
                "signal": sig.value, "signal_degenerate": sig.degenerate,
                "status": "ok"})
    return row


def _row_exact(pdict: dict, opts: dict) -> dict:
    p, _, row = _row_start(pdict)
    n_cap = opts.get("n_cap", exact.DEFAULT_N_CAP)
    ctl = opts.get("step_control") or exact.StepControl()
    factorize = opts.get("with_factorization")
    rho = exact.build_initial_state(p.n_spins, p.polarization_p, n_cap)
    l1 = exact.squeeze_generator(p.n_spins, p.j_coupling, n_cap)
    l2 = exact.depolarize_generator(p.n_spins, p.gamma, n_cap)
    # the row's own evolution leaves a zero-rate generator out; the
    # factorization error needs both
    gens = [g for g, rate in ((l1, p.j_coupling), (l2, p.gamma)) if rate != 0.0]
    stats = {}
    rho = exact.evolve(rho, gens, p.t_squeeze, ctl, stats)
    ops = exact.spin_operators(p.n_spins, n_cap)
    # the accepted RK4 pass has checked the final state; T = 0 ran none
    trace_dev, herm, min_eig = stats.get("residuals") or exact.channel_residuals(rho)
    row.update({
        "mean_sz_per_site": exact.measure(rho, ops.collective_z) / p.n_spins,
        "trace_residual": trace_dev, "hermiticity_residual": herm,
        "min_eigenvalue": min_eig,
    })
    try:
        min_var, _, mean = exact.transverse_variance_extrema(rho, ops)
        row["xi2_kitagawa_ueda"], row["xi2_wineland"] = (
            exact.squeezing_from_variance(min_var, mean, p.n_spins, convention)
            for convention in (exact.KITAGAWA_UEDA, exact.WINELAND))
        row["status"] = "ok"
    except TactError as exc:
        row["xi2_kitagawa_ueda"] = row["xi2_wineland"] = ""
        row["status"] = str(exc)
    if factorize:
        # the row's state is the joint side (a zero-rate generator adds zeros
        # and no steps); the initial state is rebuilt rather than held
        rho0 = exact.build_initial_state(p.n_spins, p.polarization_p, n_cap)
        row["factorization_error"] = exact.trace_norm(
            rho - exact.split_evolve(rho0, l1, l2, p.t_squeeze, ctl))
    return row


def _row_optimize(pdict: dict, opts: dict) -> dict:
    p, g, row = _row_start(pdict)
    if g.alpha_infinite:
        row.update({"theta_star": "", "xi2_at_theta_star": "", "u_star": "",
                    "snr_at_u_star": "", "improvement_factor": "",
                    "theta_at_boundary": "", "u_at_boundary": "",
                    "status": "alpha infinite (gamma = 0)"})
        return row
    th = optimize.optimal_theta(g.alpha, p.polarization_p)
    row["theta_star"] = th.argmax
    row["xi2_at_theta_star"] = analytic.xi2_min_dimensionless(
        g.alpha, th.argmax, p.polarization_p).xi2
    row["theta_at_boundary"] = th.at_boundary
    u = optimize.optimal_u(g.alpha)
    row["u_star"] = u.argmax
    row["u_at_boundary"] = u.at_boundary
    try:
        row["snr_at_u_star"] = analytic.snr_optimum_strong(
            g.alpha, p.n_spins, p.gamma, p.polarization_p).snr_per_root_time
    except TactError as exc:
        row["snr_at_u_star"] = ""
        row["status"] = f"snr_optimum_strong: {exc}"
    try:
        # below threshold the baseline (no squeezing) is optimal: gain 1
        row["improvement_factor"] = (1.0 if u.at_boundary
                                     else analytic.improvement_factor(g.alpha))
    except TactError as exc:
        row["improvement_factor"] = ""
        row.setdefault("status", f"improvement_factor: {exc}")
    row.setdefault("status", "ok")
    return row


_ENGINES = {"analytic": [_row_analytic], "linearized": [_row_linearized],
            "exact": [_row_exact], "optimize": [_row_optimize],
            "all": [_row_analytic, _row_linearized, _row_exact]}


def _run_point(task: tuple) -> dict:
    index, pdict, engine, opts, timing = task
    start = time.perf_counter()
    row = {}
    violations = core.validate(core.ProtocolParams(**pdict))
    if violations:
        # codes joined by spaces: _write_csv does not quote fields
        row = dict(pdict, status="invalid: " + " ".join(v.code for v in violations))
    else:
        try:
            for fn in _ENGINES[engine]:
                row.update(fn(pdict, opts))
        except ResourceLimitError:
            raise
        except TactError as exc:
            row = dict(pdict)
            row["status"] = str(exc)
    if timing:
        row["wall_time"] = time.perf_counter() - start
    row["_index"] = index
    return row


def _config_hash(path: str | None) -> str:
    if path is None:
        return "none"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


# -- closed-form engines over the whole grid ----------------------------------
#
# Each _grid_* function evaluates its engine's row function at every grid
# point at once: it calls the same library functions on float64 columns
# (each takes arrays and gives every element the bits of the scalar call)
# and assembles their columns.  It returns them, the key orders its rows
# take (a row's status key sits where its first domain error put it) and
# the rows it leaves to the row path.  _grid_sweep leaves every invalid
# point, and every row with an inf or nan where a float is written, to the
# row path as well, so errors and whole-row statuses have one definition:
# _run_point.

_START_KEYS = ("theta", "alpha", "alpha_infinite", "u", "p_eff")


class _GridRows(NamedTuple):
    columns: dict[str, _Column]
    layouts: list[tuple[tuple[str, ...], np.ndarray]]  # key order, rows taking it
    handoff: np.ndarray  # rows only the row path reproduces


def _grid_start(x: dict) -> tuple[dict, core.DimensionlessGroups]:
    """_row_start's group columns, and the groups."""
    g = core.derive_dimensionless(core.ProtocolParams(**x))
    return {"theta": _Column(g.theta), "alpha": _Column(g.alpha, empty=g.alpha_infinite),
            "alpha_infinite": _Column(g.alpha_infinite), "u": _Column(g.theta),
            "p_eff": _Column(g.p_eff)}, g


def _statuses(n: int, calls: list[tuple[str, Callable, tuple, np.ndarray]]
              ) -> tuple[_Column, np.ndarray]:
    """A grid engine's status column: 'ok', or f"{prefix}: {exc}" from the
    domain error of the first failing call, as the row path keeps it.
    `calls` lists (prefix, function, its argument columns, its value
    column) in the row function's call order.  The value is nan where the
    array call found a row outside the domain; the function is called on
    those rows alone for its own message.  Also returns the rows where it
    raised no domain error: the row path decides those."""
    status = np.full(n, "ok", dtype=object)
    handoff = np.zeros(n, dtype=bool)
    for prefix, fn, args, value in reversed(calls):
        fails = np.isnan(value)
        rows = np.flatnonzero(fails).tolist()
        for i, point in zip(rows, zip(*(a[fails].tolist() for a in args))):
            try:
                fn(*point)
            except TactError as exc:
                status[i] = f"{prefix}: {exc}"
            except (ArithmeticError, ValueError):  # not a domain error
                handoff[i] = True
            else:
                handoff[i] = True
    return _Column(status), handoff


def _grid_analytic(x: dict) -> _GridRows:
    n, p, j, g = x["n_spins"], x["polarization_p"], x["j_coupling"], x["gamma"]
    t_sq, t_sig = x["t_squeeze"], x["t_signal"]
    cols, _ = _grid_start(x)
    xi = analytic.xi2_min(j, n, p, g, t_sq)
    args = (j, n, p, g, t_sq)
    snr_while = analytic.snr_squeeze_while_measure(*args).snr_per_root_time
    snr_then = analytic.snr_squeeze_then_measure(*args, t_sig).snr_per_root_time
    cols.update(xi2_paper=_Column(xi.xi2), exponent_arg=_Column(xi.exponent_arg),
                regime=_Column(xi.regime),
                snr_while_measuring=_Column(snr_while, empty=np.isnan(snr_while)),
                snr_squeeze_then_measure=_Column(snr_then, empty=np.isnan(snr_then)))
    cols["status"], handoff = _statuses(len(n), [
        ("snr_while_measuring", analytic.snr_squeeze_while_measure, args, snr_while),
        ("snr_squeeze_then_measure", analytic.snr_squeeze_then_measure, args + (t_sig,),
         snr_then)])
    head = _START_KEYS + ("xi2_paper", "exponent_arg", "regime", "snr_while_measuring")
    while_failed = np.isnan(snr_while)
    return _GridRows(cols, [(head + ("snr_squeeze_then_measure", "status"), ~while_failed),
                            (head + ("status", "snr_squeeze_then_measure"), while_failed)],
                     handoff)


def _grid_linearized(x: dict) -> _GridRows:
    n, j = x["n_spins"], x["j_coupling"]
    cols, g = _grid_start(x)
    kappa = j * n * g.p_eff
    vac = linearized.squeezed_vacuum(kappa * x["t_squeeze"])
    sig = linearized.signal(x["b_field"], j, n * g.p_eff, x["t_signal"])
    cols.update(kappa=_Column(kappa), min_quadrature_variance=_Column(vac.min_variance),
                min_variance_angle=_Column(vac.angle), isotropic=_Column(vac.isotropic),
                cov_det=_Column(vac.cov_det), signal=_Column(sig.value),
                signal_degenerate=_Column(sig.degenerate),
                status=_Column(["ok"], index=np.zeros(len(n), dtype=np.intp)))
    return _GridRows(cols, [(tuple(cols), np.ones(len(n), dtype=bool))],
                     np.zeros(len(n), dtype=bool))


def _grid_optimize(x: dict) -> _GridRows:
    n, p, gamma = x["n_spins"], x["polarization_p"], x["gamma"]
    cols, g = _grid_start(x)
    alpha = g.alpha
    # a Theta* residual above 1e-8 leaves a nan, so the row path takes the row
    theta, theta_at_boundary = optimize.optimal_theta_elementwise(alpha)
    u, u_at_boundary = optimize.optimal_u_elementwise(alpha)
    snr = analytic.snr_optimum_strong(alpha, n, gamma, p).snr_per_root_time
    cols.update(theta_star=_Column(theta),
                xi2_at_theta_star=_Column(analytic.xi2_min_dimensionless(alpha, theta, p).xi2),
                theta_at_boundary=_Column(theta_at_boundary), u_star=_Column(u),
                u_at_boundary=_Column(u_at_boundary),
                snr_at_u_star=_Column(snr, empty=np.isnan(snr)),
                # below threshold the unsqueezed baseline is optimal: gain 1
                improvement_factor=_Column(
                    np.where(u_at_boundary, 1.0, analytic.improvement_factor(alpha))))
    cols["status"], handoff = _statuses(len(n), [
        ("snr_optimum_strong", analytic.snr_optimum_strong, (alpha, n, gamma, p), snr)])
    # Gamma = 0 and alpha <= 0 (J = 0) rows carry a whole-row status
    handoff |= (gamma == 0.0) | ~(alpha > 0.0)
    head = _START_KEYS + ("theta_star", "xi2_at_theta_star", "theta_at_boundary",
                          "u_star", "u_at_boundary", "snr_at_u_star")
    return _GridRows(cols, [(head + ("improvement_factor", "status"), ~u_at_boundary),
                            (head + ("status", "improvement_factor"), u_at_boundary)],
                     handoff)


_GRID_ENGINES = {"analytic": _grid_analytic, "linearized": _grid_linearized,
                 "optimize": _grid_optimize}


def _grid_sweep(cfg: dict, engine: str, opts: dict, timing: bool
                ) -> tuple[_Table, Exception | None]:
    """A closed-form engine over the whole grid, in process; the rows it
    cannot reproduce by construction run through _run_point in index order,
    and the first exception there ends the sweep as a failed task would."""
    start = time.perf_counter()
    n, params = build_grid(cfg)
    x, valid = {}, np.ones(n, dtype=bool)
    for name, (values, index) in params.items():
        x[name] = np.array(values, dtype=float)[index]
        valid &= np.array([core.check_field(name, v) is None for v in values],
                          dtype=bool)[index]
    with np.errstate(all="ignore"):
        grid = _GRID_ENGINES[engine](x)
    handoff = ~valid | grid.handoff
    for col in grid.columns.values():  # inf or nan where a float is written
        if isinstance(col.values, np.ndarray) and col.values.dtype.kind == "f":
            bad = ~np.isfinite(col.values)
            handoff |= bad if col.empty is None else bad & ~col.empty
    rows, error, n_done = {}, None, n
    for i in np.flatnonzero(handoff).tolist():
        try:
            row = _run_point((i, _grid_point(params, i), engine, opts, False))
        except Exception as exc:  # ends the sweep, as a failed task of the row path
            error, n_done = exc, i
            break
        del row["_index"]
        rows[i] = row
    columns = {name: _Column(values, index=index) for name, (values, index) in params.items()}
    columns.update(grid.columns)
    layouts = [(tuple(params) + keys, mask & ~handoff) for keys, mask in grid.layouts]
    if timing:
        # the engine's time, spread evenly over its rows
        wall = (time.perf_counter() - start) / max(n, 1)
        columns["wall_time"] = _Column([wall], index=np.zeros(n, dtype=np.intp))
        layouts = [(keys + ("wall_time",), mask) for keys, mask in layouts]
        for row in rows.values():
            row["wall_time"] = wall
    # each key order at the first written row that takes it
    orders = [(int(np.argmax(mask[:n_done])), keys) for keys, mask in layouts
              if mask[:n_done].any()]
    orders += [(i, tuple(row)) for i, row in rows.items()]
    return _Table(n_done, columns, orders, rows), error


def _row_sweep(cfg: dict, engine: str, opts: dict, workers: int, timing: bool
               ) -> tuple[list[dict], Exception | None]:
    """One task per grid point with up to `workers` processes; on a failed
    task, the rows before it and the exception."""
    n, params = build_grid(cfg)
    tasks = [(i, _grid_point(params, i), engine, opts, timing) for i in range(n)]
    rows: list[dict] = []
    try:
        if workers <= 1:
            for task in tasks:
                rows.append(_run_point(task))
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                # one at a time, in index order: a failed task keeps the
                # rows before it, as with one worker
                for row in pool.map(_run_point, tasks, chunksize=1):
                    rows.append(row)
    except Exception as exc:  # drained task panic
        return rows, exc
    return rows, None


def run_sweep(cfg: dict, engine: str, out_path: str, workers: int,
              timing: bool, config_path: str | None = None) -> int:
    """Execute the grid and write it in grid-index order; the output is
    identical for any worker count.  The closed-form engines evaluate the
    whole grid at once, in process; `exact` and `all` run one task per
    point on up to `workers` processes."""
    opts = {"n_cap": cfg["run"].get("n_cap", exact.DEFAULT_N_CAP),
            "with_factorization": cfg["run"].get("with_factorization", False),
            "step_control": _step_control(cfg)}
    comments = [f"tactsqueeze {__version__}", f"config sha256={_config_hash(config_path)}",
                f"engine={engine}"]
    if engine in _GRID_ENGINES:
        table, error = _grid_sweep(cfg, engine, opts, timing)
    else:
        rows, error = _row_sweep(cfg, engine, opts, workers, timing)
        table = _Table.from_rows(rows)
    if error is not None:
        prefix = "" if isinstance(error, ResourceLimitError) else "task failed: "
        print(f"error: {prefix}{error}", file=sys.stderr)
    _write_csv(out_path, table, comments, incomplete=error is not None)
    return 0 if error is None else 1


def run_verify(cfg: dict, out_path: str, timing: bool,
               config_path: str | None = None) -> int:
    """Factorization-error and commutator scaling study over an N range at
    fixed alpha; reports the fitted log-log slope against the -0.5 target."""
    v = cfg["verify"]
    n_min = v.get("n_min", 2)
    n_max = v.get("n_max", 8)
    alpha = v.get("alpha", 5.0)
    gamma = v.get("gamma", 0.25)
    pol = v.get("polarization_p", 1.0)
    t_squeeze = v.get("t_squeeze", 1.0 / (4.0 * gamma))
    ctl = _step_control(cfg)
    n_cap = cfg["run"].get("n_cap", exact.DEFAULT_N_CAP)
    rows = []
    status_fail = False
    for idx, n in enumerate(range(n_min, n_max + 1)):
        j = 4.0 * gamma * alpha / (n * pol)
        row = {"n_spins": n, "j_coupling": j, "gamma": gamma,
               "t_squeeze": t_squeeze, "polarization_p": pol, "alpha": alpha}
        start = time.perf_counter()
        try:
            row["factorization_error"] = exact.factorization_error(
                n, j, gamma, t_squeeze, pol, ctl, n_cap)
            comm = exact.commutator_action_norm(n, j, gamma, pol, n_cap)
            row["commutator_norm"] = comm.value
            row["commutator_degenerate"] = comm.degenerate
            row["status"] = "ok"
        except TactError as exc:
            row["status"] = str(exc)
            status_fail = True
        if timing:
            row["wall_time"] = time.perf_counter() - start
        row["_index"] = idx
        rows.append(row)
    usable = [(r["n_spins"], r["factorization_error"]) for r in rows
              if r.get("status") == "ok" and r.get("factorization_error", 0) > 0]
    comments = [f"tactsqueeze {__version__}", f"config sha256={_config_hash(config_path)}",
                f"verify alpha={_fmt(alpha)} gamma={_fmt(gamma)} t_squeeze={_fmt(t_squeeze)}"]
    if len(usable) >= 2:
        ns = np.log([n for n, _ in usable])
        es = np.log([e for _, e in usable])
        slope = float(np.polyfit(ns, es, 1)[0])
        decreasing = all(usable[i + 1][1] < usable[i][1] for i in range(len(usable) - 1))
        ok = decreasing and slope <= -0.5
        summary = (f"{'PASS' if ok else 'FAIL'}: slope={slope:.4f} "
                   f"(target <= -0.5), strictly_decreasing={decreasing}, "
                   f"alpha={_fmt(alpha)}, gamma={_fmt(gamma)}, T={_fmt(t_squeeze)}")
    else:
        summary = f"FAIL: insufficient usable rows ({len(usable)})"
        ok = False
    comments.append(f"summary: {summary}")
    _write_csv(out_path, _Table.from_rows(rows), comments)
    print(summary)
    return 1 if status_fail else 0


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to INI config file")
    common.add_argument("--out", default="out.csv", help="output CSV path")
    common.add_argument("--workers", type=int, default=1,
                        help="max concurrent exact/all sweep tasks (the closed-form "
                             "engines run in process)")
    common.add_argument("--no-timing", action="store_true",
                        help="omit the wall-time column (deterministic output)")
    parser = argparse.ArgumentParser(
        prog="tactsqueeze",
        description="TACT spin squeezing under depolarizing noise")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("analytic", "closed-form squeezing and SNR per grid point"),
        ("exact", "dense Lindblad oracle per grid point"),
        ("linearized", "Gaussian engine per grid point"),
        ("optimize", "protocol optima per grid point"),
        ("verify", "factorization-error scaling study"),
        ("sweep", "run the engine selected in the config over the grid"),
    ]:
        sub.add_parser(name, parents=[common], help=desc)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    timing = not args.no_timing
    try:
        if args.command == "verify":
            return run_verify(cfg, args.out, timing, args.config)
        engine = (cfg["run"].get("engine", "analytic") if args.command == "sweep"
                  else args.command)
        return run_sweep(cfg, engine, args.out, args.workers, timing, args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
