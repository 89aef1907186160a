"""Measuring process for one benchmark run (launched by run.py).

Imports tactsqueeze from the checkout's `src`, warms it up with the first row
of every engine the workload uses, then either

* (--trace 0) runs workloads.passes_for(--seconds) complete passes of the
  workload, or
* (--trace 1) runs one untraced pass, one traced pass and, for workloads
  that use the process pool, one pool pass with the per-row wall_time column.

Then the workload's untimed check steps run once.  Outputs are checked after
every pass, outside the timed region.  The result,
with the environment block, is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class StepRun:
    step: workloads.Step
    seconds: float
    exit_code: int | None = None
    stderr: str = ""
    outcomes: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_cli(cli, argv: list[str], tracer: tracing.Tracer | None = None,
            span: str = tracing.CLI_SERIAL) -> tuple[int, str]:
    """cli.main(argv) in this process; returns (exit code, captured stderr)."""
    main = tracer.wrap(span, cli.main) if tracer else cli.main
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_step(pkg, step: workloads.Step, tracer: tracing.Tracer | None) -> StepRun:
    from tactsqueeze.errors import TactError
    if step.out:  # a step that fails before writing must not leave an earlier pass's file
        Path(step.out).unlink(missing_ok=True)
    start = time.perf_counter()
    if step.kind == "split":
        outcomes, errors = [], []
        for params in step.split_sets:
            try:
                outcomes.append(pkg.optimize.optimal_split_full(**params))
            except (ArithmeticError, TactError) as exc:
                errors.append(repr(exc))
        return StepRun(step, time.perf_counter() - start, outcomes=outcomes, errors=errors)
    span = tracing.CLI_POOL if step.workers > 1 else tracing.CLI_SERIAL
    code, err = run_cli(pkg.cli, step.argv, tracer, span)
    return StepRun(step, time.perf_counter() - start, exit_code=code, stderr=err)


def run_pass(pkg, wl: workloads.Workload, tracer: tracing.Tracer | None = None):
    start = time.perf_counter()
    runs = [run_step(pkg, step, tracer) for step in wl.steps]
    return time.perf_counter() - start, runs


# by CLI subcommand
CHECKS = {"verify": checks.check_verify, "exact": checks.check_exact,
          "analytic": checks.check_analytic, "linearized": checks.check_linearized,
          "optimize": checks.check_optimize}


def account(wl: workloads.Workload, runs: list[StepRun]) -> dict:
    """Attempted, completed and failed rows of one pass, with the checks.

    A failed row is one left unwritten by an aborted sweep, every row of a
    step with an unexpected exit code, or a written row failing a check.
    """
    report = checks.CheckReport()
    attempted = completed = failed = 0
    aborts, unexpected = [], []
    for run in runs:
        step = run.step
        attempted += step.rows
        if step.kind == "split":
            completed += len(run.outcomes)
            failed += len(run.errors)
            if run.errors:
                unexpected.append({"step": step.label, "errors": run.errors})
            checks.check_split(step.split_sets, run.outcomes, report)
            continue
        exists = Path(step.out).exists()
        comments, rows = checks.read_csv(step.out) if exists else ([], [])
        incomplete = "# INCOMPLETE" in comments
        aborted = run.exit_code == 1 and incomplete  # the CLI keeps the rows done so far
        if not (aborted or (run.exit_code == 0 and exists and not incomplete)):
            unexpected.append({"step": step.label, "exit_code": run.exit_code,
                               "stderr": run.stderr.strip()[-500:]})
            failed += step.rows
            continue
        if aborted:
            aborts.append({"step": step.label, "rows_written": len(rows),
                           "rows_unwritten": step.rows - len(rows),
                           "message": run.stderr.strip().splitlines()[-1:]})
        completed += len(rows)
        failed += step.rows - len(rows)
        if step.same_bytes_as:
            checks.identical_bytes(step.same_bytes_as, step.out, step.label, report)
        else:
            CHECKS[step.argv[0]](wl, step, rows, report)
    failed += report.failed
    return {"attempted": attempted, "completed": completed, "failed": failed,
            "check_failures": report.failed, "aborts": aborts, "unexpected": unexpected,
            "check_messages": report.messages, "diagnostics": report.diagnostics}


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "mp_start_method": multiprocessing.get_start_method(),
    }


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus the largest of its children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(wl: workloads.Workload, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import tactsqueeze
    import tactsqueeze.cli

    for argv in wl.probe_argvs:  # warm-up: imports and lazy imports done
        run_cli(tactsqueeze.cli, argv)
    passes = []
    result: dict = {"passes": passes}

    def record(kind: str, pass_s: float, runs: list[StepRun]) -> dict:
        # the high-water mark is taken before the first check parses any output
        result.setdefault("peak_rss_mb", peak_rss_mb())
        entry = {"kind": kind, "pass_s": pass_s,
                 "steps": {r.step.label: r.seconds for r in runs}}
        entry.update(account(wl, runs))
        passes.append(entry)
        return entry

    if not traced:
        for _ in range(workloads.passes_for(wl.name, seconds)):
            record("pass", *run_pass(tactsqueeze, wl))
    else:
        reference = record("pass", *run_pass(tactsqueeze, wl))
        tracer = tracing.Tracer(run_id=f"{wl.name}-{wl.seed}")
        with tracer.installed(tactsqueeze):
            traced_run = run_pass(tactsqueeze, wl, tracer)
        traced_pass = record("traced", *traced_run)  # checks run untraced
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = traced_pass["pass_s"] - reference["pass_s"]
        layers["cli.pool_busy_share"] = layers["cli.pool_pass_s"] = 0.0
        if wl.pool_probe is not None:
            run = run_step(tactsqueeze, wl.pool_probe, None)
            record("pool", run.seconds, [run])
            _, rows = checks.read_csv(wl.pool_probe.out)
            busy = sum(float(r["wall_time"]) for r in rows)
            layers["cli.pool_busy_share"] = busy / (wl.pool_probe.workers * run.seconds)
            layers["cli.pool_pass_s"] = run.seconds
        spans_path = wl.workdir / "spans.csv"
        tracer.write(spans_path)
        result.update(layers=layers, spans_file=str(spans_path.relative_to(ROOT)))
    if wl.check_steps:
        runs = [run_step(tactsqueeze, step, None) for step in wl.check_steps]
        record("check", sum(r.seconds for r in runs), runs)
    if not traced:
        timed = [p for p in passes if p["kind"] == "pass"]
        # a typical pass: each step at its median over the passes, so that a
        # burst of host load in one step of one pass does not move the figure
        result["pass_s"] = sum(statistics.median(p["steps"][step.label] for p in timed)
                               for step in wl.steps)
        result["rows_per_s"] = statistics.median(p["completed"] for p in timed) / result["pass_s"]
    result["attempted"] = sum(p["attempted"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    result["correct"] = all(p["check_failures"] == 0 and not p["unexpected"] for p in passes)
    result["environment"] = environment()
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    wl = workloads.make(args.workload, args.seed, Path(args.workdir))
    result = measure(wl, args.seconds, bool(args.trace))
    result["inputs"] = wl.inputs
    Path(args.result).write_text(json.dumps(result, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
