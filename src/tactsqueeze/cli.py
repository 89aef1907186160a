"""Command-line front end: config ingestion, sweeps, CSV persistence.

Subcommands: analytic, exact, linearized, optimize, verify, sweep.
Config files are INI-style key = value with [section] headers; unknown
keys are hard errors.  Output is deterministic CSV (15 significant
digits, '#' comment lines for metadata); the wall-time column is
dropped under --no-timing so files are byte-identical across worker
counts.  Exit codes: 0 success (row-level domain errors allowed),
1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import hashlib
import math
import sys
import time
from dataclasses import asdict

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


def build_grid(cfg: dict) -> list[dict]:
    """Row-major cartesian product of the sweep axes over the base params."""
    grid = [dict(cfg["params"])]
    for ax in cfg["sweep_axes"]:
        grid = [dict(pt, **{ax["name"]: v}) for pt in grid for v in ax["values"]]
    return grid


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
    p_eff = g.p_eff
    kappa = p.j_coupling * p.n_spins * p_eff
    state = linearized.bogoliubov_propagate(
        linearized.vacuum_state(kappa, p.n_spins * p_eff), p.t_squeeze)
    angle, var_min, isotropic = linearized.min_variance_direction(state)
    sig = linearized.signal(p.b_field, p.j_coupling, p.n_spins * p_eff, p.t_signal)
    row.update({"kappa": kappa, "min_quadrature_variance": var_min,
                "min_variance_angle": angle, "isotropic": isotropic,
                "cov_det": float(np.linalg.det(state.cov)),
                "signal": sig.value, "signal_degenerate": sig.degenerate,
                "status": "ok"})
    return row


def _row_exact(pdict: dict, opts: dict) -> dict:
    p, _, row = _row_start(pdict)
    n_cap = opts.get("n_cap", exact.DEFAULT_N_CAP)
    ctl = opts.get("step_control") or exact.StepControl()
    rho = exact.build_initial_state(p.n_spins, p.polarization_p, n_cap)
    gens = []
    if p.j_coupling != 0.0:
        gens.append(exact.squeeze_generator(p.n_spins, p.j_coupling, n_cap))
    if p.gamma != 0.0:
        gens.append(exact.depolarize_generator(p.n_spins, p.gamma, n_cap))
    rho = exact.evolve(rho, gens, p.t_squeeze, ctl)
    ops = exact.spin_operators(p.n_spins, n_cap)
    trace_dev, herm, min_eig = exact.channel_residuals(rho)
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
    if opts.get("with_factorization"):
        row["factorization_error"] = exact.factorization_error(
            p.n_spins, p.j_coupling, p.gamma, p.t_squeeze, p.polarization_p,
            ctl, n_cap)
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


def _write_csv(path: str, rows: list[dict], comments: list[str],
               incomplete: bool = False) -> None:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key != "_index" and key not in columns:
                columns.append(key)
    if not columns:
        columns = PARAM_FIELDS + ["status"]
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col, "")) for col in columns) + "\n")
        if incomplete:
            fh.write("# INCOMPLETE\n")


def _config_hash(path: str | None) -> str:
    if path is None:
        return "none"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def run_sweep(cfg: dict, engine: str, out_path: str, workers: int,
              timing: bool, config_path: str | None = None) -> int:
    """Execute the grid with up to `workers` concurrent tasks; output is
    written in grid-index order and is identical for any worker count."""
    grid = build_grid(cfg)
    opts = {"n_cap": cfg["run"].get("n_cap", exact.DEFAULT_N_CAP),
            "with_factorization": cfg["run"].get("with_factorization", False),
            "step_control": _step_control(cfg)}
    tasks = [(i, pt, engine, opts, timing) for i, pt in enumerate(grid)]
    comments = [f"tactsqueeze {__version__}", f"config sha256={_config_hash(config_path)}",
                f"engine={engine}"]
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
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_csv(out_path, rows, comments, incomplete=True)
        return 1
    except Exception as exc:  # drained task panic
        print(f"error: task failed: {exc}", file=sys.stderr)
        _write_csv(out_path, rows, comments, incomplete=True)
        return 1
    rows.sort(key=lambda r: r["_index"])
    _write_csv(out_path, rows, comments)
    return 0


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
    _write_csv(out_path, rows, comments)
    print(summary)
    return 1 if status_fail else 0


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to INI config file")
    common.add_argument("--out", default="out.csv", help="output CSV path")
    common.add_argument("--workers", type=int, default=1,
                        help="max concurrent sweep tasks")
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
