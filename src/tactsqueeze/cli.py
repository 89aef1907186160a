"""Command-line front end: config ingestion, sweeps, CSV persistence.

Subcommands: analytic, exact, linearized, optimize, verify, sweep.
Config files are INI-style key = value with [section] headers; unknown
keys are hard errors.  Output is deterministic CSV (15 significant
digits, '#' comment lines for metadata); the wall-time column is
dropped under --no-timing so files are byte-identical across worker
counts.  Exit codes: 0 success (row-level domain errors allowed),
1 runtime failure, 2 config error.

Every command fills one record of its whole grid: the closed-form
engines (analytic, linearized, optimize) at once as numpy columns, in
process; one point is a one-row grid.  exact and all take their
closed-form cells from that record and run only the dense oracle per
row; verify's rows, one per N, are oracle rows too.  Oracle rows run one
task per row on up to --workers processes (never more than there are
oracle rows).  The record writes every command's CSV, column-wise; a text
cell holding a comma, a double quote or a line break is quoted (RFC
4180).  Each command has one header, whatever the data: the inputs, the
cells in the order of docs/csv_columns.md, status, then wall_time.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import hashlib
import math
import re
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analytic, core, exact, linearized, optimize
from .errors import ConfigError, ResourceLimitError, TactError


def _flag(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


class _Option(NamedTuple):
    """A config key: its parser, default, range check and the range in words.
    A [params] value is checked per grid point (core.validate), not here."""

    parse: Callable
    default: object
    ok: Callable = lambda v: True
    allowed: str = ""


# every keyed section's keys, in field order; [sweep] holds axis* keys
_OPTIONS = {
    "params": {"n_spins": _Option(int, 4), "polarization_p": _Option(float, 1.0),
               "j_coupling": _Option(float, 0.1), "gamma": _Option(float, 0.1),
               "b_field": _Option(float, 0.0), "t_squeeze": _Option(float, 1.0),
               "t_signal": _Option(float, 1.0)},
    "run": {
        "engine": _Option(str, "analytic", lambda v: v in _ENGINES,
                          "one of analytic, exact, linearized, optimize, all"),
        "n_cap": _Option(int, exact.DEFAULT_N_CAP, lambda v: 1 <= v <= exact.DEFAULT_N_CAP,
                         f"in 1..{exact.DEFAULT_N_CAP}"),
        "with_factorization": _Option(_flag, False),
    },
    "verify": {
        "n_min": _Option(int, 2, lambda v: v >= 1, ">= 1"),
        "n_max": _Option(int, 8, lambda v: v >= 1, ">= 1"),
        "alpha": _Option(float, 5.0, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
        "gamma": _Option(float, 0.25, lambda v: 0.0 < v < math.inf, "finite and > 0"),
        "polarization_p": _Option(float, 1.0, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
        # None: 1/(4 gamma), set where it is read (run_verify)
        "t_squeeze": _Option(float, None, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    },
}

_DEFAULT_PARAMS = {key: opt.default for key, opt in _OPTIONS["params"].items()}
PARAM_FIELDS = list(_DEFAULT_PARAMS)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(text: str) -> str:
    """RFC 4180: a text with a comma, a double quote or a line break is
    enclosed in double quotes, its double quotes doubled."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# -- CSV writer ----------------------------------------------------------------

_CHUNK_ROWS = 4096  # rows formatted at a time: the text of one chunk is held


def _texts(values: np.ndarray) -> list[str]:
    """The CSV text of each value, the format picked by the dtype: true or
    false, 15 significant digits, or str() quoted per RFC 4180."""
    if values.dtype == bool:
        return list(map(("false", "true").__getitem__, values.tolist()))
    if values.dtype.kind == "f":
        return list(map("{:.15g}".format, values.tolist()))
    texts = list(map(str, values.tolist()))
    # one search for the common case where no text needs quotes
    return list(map(_quote, texts)) if _NEEDS_QUOTES.search("".join(texts)) else texts


class _Column(NamedTuple):
    """One CSV column: a value per row or, with `index`, a value per distinct
    entry and each row's entry.  Rows in `empty` are written as ''."""

    values: np.ndarray
    index: np.ndarray | None = None
    empty: np.ndarray | None = None

    def cells(self, lo: int, hi: int) -> list[str]:
        """Text of rows lo..hi-1, each distinct value formatted once."""
        idx = None
        if self.index is not None:
            texts, idx = _texts(self.values), self.index[lo:hi]
        elif self.values.dtype.kind == "f":
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


def _config_hash(path: str | None) -> str:
    if path is None:
        return "none"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def load_config(path: str | None) -> dict:
    """Parse and validate the config file; unknown sections/keys are errors.
    Each keyed section holds every key of _OPTIONS, its default unless set."""
    cfg = {section: {key: opt.default for key, opt in keys.items()}
           for section, keys in _OPTIONS.items()}
    cfg["sweep_axes"] = []
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
        if section not in _OPTIONS and section != "sweep":
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if section == "sweep":
                if not key.startswith("axis"):
                    raise ConfigError(f"unknown key '{key}' in [sweep] (expected axis*)")
                cfg["sweep_axes"].append(_parse_axis(key, raw))
            elif key not in _OPTIONS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            else:
                cfg[section][key] = _parse_option(section, key, raw)
    v = cfg["verify"]
    if v["n_max"] < v["n_min"]:
        raise ConfigError("verify.n_max must be >= verify.n_min")
    if not math.isfinite(_verify_coupling(v, v["n_min"])):  # J is largest at n_min
        raise ConfigError(f"verify: J = 4 gamma alpha/(N P) overflows at N = {v['n_min']}")
    return cfg


def _verify_coupling(v: dict, n):
    """verify's J = 4 gamma alpha/(N P) at N = n, an int or an array."""
    return 4.0 * v["gamma"] * v["alpha"] / (n * v["polarization_p"])


def _parse_option(section: str, key: str, raw: str):
    opt = _OPTIONS[section][key]
    try:
        value = opt.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc
    if not opt.ok(value):
        raise ConfigError(f"{section}.{key} must be {opt.allowed}, got {raw!r}")
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


# -- engines (module level so process pools can pickle them) -----------------
#
# Each closed-form engine (_analytic, _linearized, _optimize) fills a _Cells
# record from the grid's float64 columns; one point is a one-row grid.  Each
# library formula is one array call, and the core.Status it returns decides
# every row where its value is not finite (_Cells.check): no row is
# evaluated again.  Invalid points and Gamma = 0 optimize rows are settled
# first.  An oracle row function (_row_exact; verify's _row_verify) gives
# one row's cells, one task per row not yet settled (_oracle), merged as
# columns.


def _invalid(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """The invalid grid points and each one's status, 'invalid: <codes>' with
    the codes in core.validate's (field) order.  Each distinct value is
    checked once, and only a field with an invalid value builds a row mask."""
    fields = []
    for name, (values, index) in params.items():  # params is in field order
        found = [core.check_field(name, v) for v in values]
        codes = [v.code for v in found if v is not None]
        if codes:
            fields.append((np.array([v is not None for v in found])[index], codes[0]))
    rows = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in fields]))
    status = np.full(len(rows), "invalid:", dtype=object)
    for mask, code in fields:
        status[mask[rows]] += " " + code
    return rows, status


class _Cells:
    """A command's cells over its grid in column order, and each row's
    status.  `params` holds each input's values and each row's index into
    them (build_grid); `x` holds the float64 columns.  A row keeps its
    first status that is not ok; a whole-row status (`whole`) leaves only
    the input columns filled."""

    def __init__(self, params: dict):
        self.x = {name: np.array(values, dtype=float)[index]
                  for name, (values, index) in params.items()}
        n = len(self.x["gamma"])
        self.cells: dict = {}
        self.empty: dict = {}  # each cell's rows written '' (a mask, or False)
        self.status = np.full(n, "ok", dtype=object)
        self.whole = np.zeros(n, dtype=bool)
        self.blank = False  # rows written '' in every cell put from now on
        self.n_done, self.error = n, None  # the run ends at row n_done on `error`

    def put(self, key: str, value, empty=False) -> None:
        """The cell `key`, written '' where `empty` holds."""
        self.cells[key], self.empty[key] = value, empty | self.blank

    def update(self, **cells) -> None:
        for key, value in cells.items():
            self.put(key, value)

    def settle(self, rows, status, whole: bool = True) -> None:
        """Give `rows` (indices, or a mask) a status no later check revisits:
        a whole-row status or, unless `whole`, '' in every cell put from now
        on (then `rows` is a mask)."""
        self.status[rows], self.whole[rows] = status, whole
        if not whole:
            self.blank = rows

    def check(self, key: str, value: np.ndarray, status: core.Status,
              prefix: str | None = None) -> None:
        """The cell `key` = `value`, a closed form over the grid, and each
        row where it is not finite settled by the code of `status` there:
        with `prefix` (a guarded cell) DOMAIN empties the cell and gives the
        status f"{prefix}: {message}" unless the row has one; OVERFLOW ends
        the sweep at its first row; any other code is a whole-row status."""
        self.put(key, value, empty=np.zeros(len(value), dtype=bool))
        unsettled = ~(np.isfinite(value) | self.whole | self.blank) & (status.code != core.OK)
        rows = np.flatnonzero(unsettled[:self.n_done])
        over = rows[status.code[rows] == core.OVERFLOW]
        if over.size:  # an exp overflowed (Status.exp): 'math range error'
            self.n_done, self.error = int(over[0]), status.error(over[0])
            rows = rows[rows < over[0]]
        guarded = (status.code[rows] == core.DOMAIN) & (prefix is not None)
        self.empty[key][rows[guarded]] = True
        fresh = rows[guarded & (self.status[rows] == "ok")]
        self.status[fresh] = [f"{prefix}: {status.error(i)}" for i in fresh.tolist()]
        self.settle(rows[~guarded], [str(status.error(i)) for i in rows[~guarded].tolist()])

    def merge(self, results: dict, keys: tuple[str, ...]) -> None:
        """The oracle's results, row -> its cells `keys` (a '' cell is empty)
        and status, or a whole-row status; each key a column of its values'
        dtype, empty in every row without cells."""
        rows = {i: cells for i, cells in results.items() if isinstance(cells, dict)}
        for key in keys:
            got = {i: cells[key] for i, cells in rows.items() if not isinstance(cells[key], str)}
            value = np.zeros(len(self.status), np.array(list(got.values())).dtype)
            empty = np.ones(len(self.status), bool)
            value[list(got)], empty[list(got)] = list(got.values()), False
            self.put(key, value, empty)
        for i, cells in results.items():
            if i not in rows:
                self.settle(i, cells)
            elif self.status[i] == "ok":
                self.status[i] = cells["status"]

    def write(self, path: str, config_path: str | None, comments: list[str], params: dict,
              wall: np.ndarray, timing: bool) -> int:
        """The CSV of rows 0..n_done-1 and the exit code: comment lines
        (package version, config hash, then `comments`), then the inputs
        `params`, the cells, status and, with `timing`, wall_time.  A run
        ended early prints its error and ends the file with '# INCOMPLETE'."""
        columns = {name: _Column(np.array(values), index=index)
                   for name, (values, index) in params.items()}
        columns.update({key: _Column(value, empty=self.empty[key] | self.whole)
                        for key, value in self.cells.items()},
                       status=_Column(self.status), wall_time=_Column(wall))
        header = [*params, *self.cells, "status"] + (["wall_time"] if timing else [])
        if self.error is not None:
            prefix = "" if isinstance(self.error, ResourceLimitError) else "task failed: "
            print(f"error: {prefix}{self.error}", file=sys.stderr)
        comments = [f"tactsqueeze {__version__}",
                    f"config sha256={_config_hash(config_path)}", *comments]
        with open(path, "w", newline="") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            fh.write(",".join(header) + "\n")
            for lo in range(0, self.n_done, _CHUNK_ROWS):
                hi = min(lo + _CHUNK_ROWS, self.n_done)
                cells = [columns[col].cells(lo, hi) for col in header]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
            if self.error is not None:
                fh.write("# INCOMPLETE\n")
        return 0 if self.error is None else 1


def _analytic(rec: _Cells) -> None:
    x = rec.x
    args = (x["j_coupling"], x["n_spins"], x["polarization_p"], x["gamma"], x["t_squeeze"])
    xi = analytic.xi2_min(*args)
    rec.check("xi2_paper", xi.xi2, xi.status)
    rec.update(exponent_arg=xi.exponent_arg, regime=xi.regime)
    for key, snr in (("snr_while_measuring", analytic.snr_squeeze_while_measure(*args)),
                     ("snr_squeeze_then_measure",
                      analytic.snr_squeeze_then_measure(*args, x["t_signal"]))):
        rec.check(key, snr.snr_per_root_time, snr.status, prefix=key)


def _linearized(rec: _Cells) -> None:
    x = rec.x
    n, j, p_eff = x["n_spins"], x["j_coupling"], rec.groups.p_eff
    kappa = j * n * p_eff
    vac = linearized.squeezed_vacuum(kappa * x["t_squeeze"])
    sig = linearized.signal(x["b_field"], j, n * p_eff, x["t_signal"])
    rec.update(kappa=kappa, min_quadrature_variance=vac.min_variance,
               min_variance_angle=vac.angle, isotropic=vac.isotropic, cov_det=vac.cov_det,
               signal=sig.value, signal_degenerate=sig.degenerate)


def _optimize(rec: _Cells) -> None:
    x, alpha = rec.x, rec.groups.alpha
    n, p, gamma = x["n_spins"], x["polarization_p"], x["gamma"]
    # Gamma = 0 (at a valid point): alpha is infinite and no optimum exists
    rec.settle(rec.groups.alpha_infinite & ~rec.whole, "alpha infinite (gamma = 0)",
               whole=False)
    theta = optimize.optimal_theta(alpha)
    rec.check("theta_star", theta.argmax, theta.status)
    rec.update(xi2_at_theta_star=analytic.xi2_min_dimensionless(alpha, theta.argmax, p).xi2,
               theta_at_boundary=theta.at_boundary)
    u = optimize.optimal_u(alpha)
    rec.check("u_star", u.argmax, u.status)
    rec.put("u_at_boundary", u.at_boundary)
    snr = analytic.snr_optimum_strong(alpha, n, gamma, p)
    rec.check("snr_at_u_star", snr.snr_per_root_time, snr.status, prefix="snr_optimum_strong")
    # below threshold the unsqueezed baseline is optimal: gain 1
    gain = analytic.improvement_factor(alpha)
    rec.check("improvement_factor", np.where(u.at_boundary, 1.0, gain.value), gain.status,
              prefix="improvement_factor")


def _closed_form(parts: list[Callable], params: dict) -> _Cells:
    """The grid record: invalid points settled, the dimensionless-group
    cells every engine writes first (`groups`), then each closed-form
    part's cells in turn."""
    with np.errstate(all="ignore"):
        rec = _Cells(params)
        rec.settle(*_invalid(params))
        g = rec.groups = core.derive_dimensionless(core.ProtocolParams(**rec.x))
        rec.update(theta=g.theta)
        rec.put("alpha", g.alpha, empty=g.alpha_infinite)
        rec.update(alpha_infinite=g.alpha_infinite, p_eff=g.p_eff)
        for part in parts:
            part(rec)
    return rec


_ORACLE_CELLS = ("mean_sz_per_site", "trace_residual", "hermiticity_residual",
                 "min_eigenvalue", "xi2_kitagawa_ueda", "xi2_wineland")


def _oracle_cells(opts: dict) -> tuple[str, ...]:
    """The dense oracle's columns, in the order of docs/csv_columns.md."""
    return _ORACLE_CELLS + (("factorization_error",) if opts.get("with_factorization") else ())


def _row_exact(pdict: dict, opts: dict) -> dict:
    """The dense oracle's cells (_oracle_cells) at one valid point, and its
    status."""
    p = core.ProtocolParams(**pdict)
    exact.check_cap(p.n_spins, opts.get("n_cap", exact.DEFAULT_N_CAP))
    rho = exact.build_initial_state(p.n_spins, p.polarization_p)
    l1 = exact.squeeze_generator(p.n_spins, p.j_coupling)
    l2 = exact.depolarize_generator(p.n_spins, p.gamma)
    # the row's own evolution leaves a zero-rate generator out; the
    # factorization error needs both
    gens = [g for g, rate in ((l1, p.j_coupling), (l2, p.gamma)) if rate != 0.0]
    stats = {}
    rho = exact.evolve(rho, gens, p.t_squeeze, stats)
    moments = exact.collective_moments(rho, p.n_spins)
    # the accepted RK4 pass has checked the final state; T = 0 ran none
    values = [moments.mean[2] / p.n_spins,
              *(stats.get("residuals") or exact.channel_residuals(rho))]
    try:
        values += moments.xi2()
        status = "ok"
    except TactError as exc:
        values, status = values + ["", ""], str(exc)
    if opts.get("with_factorization"):
        # the row's state is the joint side (a zero-rate generator adds zeros
        # and no steps); the initial state is rebuilt rather than held
        rho0 = exact.build_initial_state(p.n_spins, p.polarization_p)
        values.append(exact.trace_norm(rho - exact.split_evolve(rho0, l1, l2, p.t_squeeze)))
    return dict(zip(_oracle_cells(opts), values, strict=True), status=status)


# each engine's closed-form parts; exact and all add the oracle per row
_ENGINES = {"analytic": [_analytic], "linearized": [_linearized], "optimize": [_optimize],
            "exact": [], "all": [_analytic, _linearized]}


_VERIFY_CELLS = ("factorization_error", "commutator_norm", "commutator_degenerate")


def _row_verify(pdict: dict, opts: dict) -> dict | str:
    """verify's cells (_VERIFY_CELLS) at one N, and its status; a capped N
    is a row of the study, its ResourceLimitError the whole-row status."""
    n, j, gamma, pol = (pdict[k] for k in ("n_spins", "j_coupling", "gamma", "polarization_p"))
    try:
        exact.check_cap(n, opts["n_cap"])
    except ResourceLimitError as exc:
        return str(exc)
    error = exact.factorization_error(n, j, gamma, pdict["t_squeeze"], pol)
    comm = exact.commutator_action_norm(n, j, gamma, pol)
    return dict(zip(_VERIFY_CELLS, (error, comm.value, comm.degenerate)), status="ok")


def _oracle(task: tuple) -> tuple[dict | str, float]:
    """One oracle row, task = (row function, point, opts): its cells, or a
    whole-row status for a TactError other than a ResourceLimitError; and
    its time."""
    row, pdict, opts = task
    start = time.perf_counter()
    try:
        cells = row(pdict, opts)
    except ResourceLimitError:
        raise
    except TactError as exc:
        cells = str(exc)
    return cells, time.perf_counter() - start


def _run_oracle(rec: _Cells, params: dict, row: Callable, keys: tuple[str, ...], opts: dict,
                workers: int, wall: np.ndarray) -> None:
    """The oracle row function `row` on each row before `n_done` without a
    whole-row status, in index order, on up to `workers` processes but no
    more than there are rows; its cells `keys` merged into `rec`, its time
    added to `wall`.  A failed task ends the run at its row."""
    rows = np.flatnonzero(~rec.whole[:rec.n_done]).tolist()
    tasks = [(row, _grid_point(params, i), opts) for i in rows]
    workers = min(workers, len(tasks))
    results: dict = {}

    def take(done) -> None:
        for i, (cells, seconds) in zip(rows, done):
            results[i] = cells
            wall[i] += seconds

    try:
        if workers <= 1:
            take(map(_oracle, tasks))
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                # one at a time, in index order: a failed task keeps the
                # rows before it, as with one worker
                take(pool.map(_oracle, tasks, chunksize=1))
    except Exception as exc:  # drained task panic
        rec.n_done, rec.error = rows[len(results)], exc
    rec.merge(results, keys)


def run_sweep(cfg: dict, engine: str, out_path: str, workers: int,
              timing: bool, config_path: str | None = None) -> int:
    """Execute the grid and write it in grid-index order; the output is
    identical for any worker count.  The engine's closed-form parts are
    evaluated once over the whole grid, in process; `exact` and `all` then
    run the oracle (_run_oracle).  An error that is not a TactError ends
    the sweep at its row."""
    start = time.perf_counter()
    n, params = build_grid(cfg)
    rec = _closed_form(_ENGINES[engine], params)
    # the closed-form time, spread evenly over the rows; then each oracle row's
    wall = np.full(n, (time.perf_counter() - start) / max(n, 1))
    if engine in ("exact", "all"):
        opts = cfg["run"]
        _run_oracle(rec, params, _row_exact, _oracle_cells(opts), opts, workers, wall)
    return rec.write(out_path, config_path, [f"engine={engine}"], params, wall, timing)


def run_verify(cfg: dict, out_path: str, workers: int, timing: bool,
               config_path: str | None = None) -> int:
    """Factorization-error and commutator scaling study over an N range at
    fixed alpha, one oracle row per N (_run_oracle); reports the fitted
    log-log slope against the -0.5 target.  Exits 1 if a row has a
    whole-row status or the study ended early."""
    v = cfg["verify"]
    alpha, gamma, pol = v["alpha"], v["gamma"], v["polarization_p"]
    t_squeeze = 1.0 / (4.0 * gamma) if v["t_squeeze"] is None else v["t_squeeze"]
    ns = np.arange(v["n_min"], v["n_max"] + 1)
    rows, one = np.arange(len(ns)), np.zeros(len(ns), dtype=np.intp)
    params = {"n_spins": (ns.tolist(), rows),
              "j_coupling": (_verify_coupling(v, ns).tolist(), rows),
              "gamma": ([gamma], one), "t_squeeze": ([t_squeeze], one),
              "polarization_p": ([pol], one), "alpha": ([alpha], one)}
    rec, wall = _Cells(params), np.zeros(len(ns))
    _run_oracle(rec, params, _row_verify, _VERIFY_CELLS, cfg["run"], workers, wall)
    done = slice(rec.n_done)
    error = rec.cells["factorization_error"][done]
    usable = ~rec.whole[done] & (error > 0)
    comments = [f"verify alpha={alpha:.15g} gamma={gamma:.15g} t_squeeze={t_squeeze:.15g}"]
    if usable.sum() >= 2:
        es = error[usable]
        slope = float(np.polyfit(np.log(ns[done][usable]), np.log(es), 1)[0])
        decreasing = bool(np.all(es[1:] < es[:-1]))
        ok = decreasing and slope <= -0.5
        summary = (f"{'PASS' if ok else 'FAIL'}: slope={slope:.4f} "
                   f"(target <= -0.5), strictly_decreasing={decreasing}, "
                   f"alpha={alpha:.15g}, gamma={gamma:.15g}, T={t_squeeze:.15g}")
    else:
        summary = f"FAIL: insufficient usable rows ({usable.sum()})"
    comments.append(f"summary: {summary}")
    code = rec.write(out_path, config_path, comments, params, wall, timing)
    print(summary)
    return 1 if code or rec.whole.any() else 0


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to INI config file")
    common.add_argument("--out", default="out.csv", help="output CSV path")
    common.add_argument("--workers", type=int, default=1,
                        help="max concurrent oracle tasks of exact, all and verify "
                             "(the closed-form engines run in process)")
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
    if args.command == "verify":
        return run_verify(cfg, args.out, args.workers, timing, args.config)
    engine = cfg["run"]["engine"] if args.command == "sweep" else args.command
    return run_sweep(cfg, engine, args.out, args.workers, timing, args.config)


if __name__ == "__main__":
    sys.exit(main())
