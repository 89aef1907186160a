"""Benchmark of tactsqueeze through its public entry points: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs in workloads.py, correctness checks in checks.py):
  oracle_verify      `tactsqueeze verify`, N = 2..7, criterion-06 physics
  exact_sweep        `tactsqueeze exact`, 36 short evolves, N = 3..8
  closed_form_sweep  analytic / linearized / optimize over a 100 x 100 (J, Gamma)
                     grid, plus optimal_split_full calls

The --workers 2 passes (exact over its grid, analytic over the 100 x 100 grid)
are not part of the timed pass: oversubscribed or IPC-bound, their wall time
swings far beyond any bound between passes.  They run in traced runs, where their
wall_time column gives cli.pool_busy_share, and every run checks a 2-worker
analytic CSV of the 100 x 100 grid byte for byte against the 1-worker one.

--trace 0 reports the end-to-end metrics, measured untraced: setup_s (median
of fresh interpreters that import the package and compute the first row of
every engine used), pass_s (wall time of a typical warm complete pass: the sum
over its steps of each step's median over the run's passes, as many nominal
passes as fit in --seconds, a fixed count, see workloads.passes_for),
rows_per_s (median rows completed per pass / pass_s) and peak_rss_mb.
failed_share is printed in the report; the result line carries it as
failed / attempted.

--trace 1 reports the per-layer metrics: one untraced pass, one traced pass
(spans from tracing.py) and, where the workload uses the process pool, one
pool pass whose per-row wall_time column gives cli.pool_busy_share.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  The full result (environment block, every pass, check messages)
is written to perfbench/out/<workload>-seed<N>-trace<T>/result.json.

This file uses only the standard library: the package is imported only by
the child processes (probe.py, measure.py), which run from this checkout's
`src` under the thread environment the caller has.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "pass_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "exact.L1_apply_calls": "count", "exact.L1_apply_s": "s",
    "exact.L1_gflop_per_s": "GFLOP/s",
    "exact.L2_apply_calls": "count", "exact.L2_apply_s": "s",
    "exact.rk4_passes": "count", "exact.pass_accept_ratio": "ratio",
    "exact.evolve_calls": "count", "exact.evolve_s": "s",
    "exact.invariant_check_s": "s", "exact.build_s": "s", "exact.observables_s": "s",
    "exact.L1_apply_ms_n8": "ms", "exact.L2_apply_ms_n8": "ms",
    "exact.invariant_check_ms_n8": "ms",
    "analytic.calls": "count", "analytic.s": "s",
    "linearized.calls": "count", "linearized.s": "s",
    "core.calls": "count", "core.s": "s",
    "optimize.optimal_theta_calls": "count", "optimize.optimal_theta_s": "s",
    "optimize.optimal_u_s": "s", "optimize.split_full_s": "s",
    "optimize.objective_evals": "count",
    "cli.self_s": "s", "cli.pool_busy_share": "ratio", "cli.pool_pass_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}
# single-call costs at N = 8 measured when the roadmap was written
ROADMAP_N8_MS = {"exact.L1_apply_ms_n8": ("L1.apply", 5.8),
                 "exact.L2_apply_ms_n8": ("L2.apply", 15.9),
                 "exact.invariant_check_ms_n8": ("invariant check (one full eigvalsh)", 13.4)}


class RunError(Exception):
    pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], deadline: float, log: Path) -> float:
    """Run argv in its own process group until it exits; return its wall time.

    The wait blocks in waitpid (Popen.wait with a timeout polls in steps of
    up to 50 ms, which would quantize short set-up times); a timer kills the
    whole group, pool workers included, if the deadline passes.  Whatever the
    child left in its group is killed once it has exited.
    """
    expired = threading.Event()

    def expire(pgid: int) -> None:
        expired.set()
        _kill_group(pgid)

    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), expire, (proc.pid,))
        timer.start()
        try:
            code = proc.wait()
            elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
            _kill_group(proc.pid)
            proc.wait()
    if expired.is_set():
        raise RunError(f"{Path(argv[1]).name} exceeded the time limit")
    if code != 0:
        tail = log.read_text()[-2000:]
        raise RunError(f"{Path(argv[1]).name} exited with code {code}:\n{tail}")
    return elapsed


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (checkout is not a git repository)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or "unavailable"


def _fmt(value, unit: str) -> str:
    return f"{value} {unit}" if isinstance(value, int) else f"{value:.6g} {unit}"


def report(args, res: dict, metrics: dict, setup_samples: list[float]) -> None:
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  inputs: {json.dumps(res['inputs'])}")
    passes = res["passes"]
    if args.trace == 0:
        print(f"  setup_s = {metrics['setup_s']['value']:.6g} s (median of "
              f"{len(setup_samples)} fresh interpreters; "
              f"{', '.join(f'{s:.4g}' for s in setup_samples)})")
        times = sorted(p["pass_s"] for p in passes if p["kind"] == "pass")
        print(f"  pass_s = {res['pass_s']:.6g} s (sum of step medians over n = {len(times)} "
              f"warm passes; whole passes "
              f"min {times[0]:.6g}, max {times[-1]:.6g}; under 10 samples, so no "
              f"percentile tail beyond the max)")
        print(f"  rows_per_s = {res['rows_per_s']:.6g} 1/s")
        print(f"  peak_rss_mb = {res['peak_rss_mb']:.6g} MB")
    else:
        for name, m in metrics.items():
            print(f"  {name} = {_fmt(m['value'], m['unit'])}")
        for name, (label, base) in ROADMAP_N8_MS.items():
            got = metrics[name]["value"]
            if got:
                print(f"  N = 8 {label}: {got:.4g} ms here, roadmap baseline {base} ms")
        print("  tracing overhead = traced pass_s - untraced pass_s = "
              f"{metrics['trace.overhead_s']['value']:.4g} s")
        print("  pool passes: spans stay in the workers, so cli.pool_busy_share and "
              "cli.pool_pass_s come from the CSV wall_time column of a separate "
              "--workers 2 pass; every other per-layer figure comes from the serial "
              "traced pass")
    share = res["failed"] / res["attempted"]
    print(f"  failed_share = {share:.6g} ({res['failed']} of {res['attempted']} "
          f"operations failed)")
    for p in passes:
        for abort in p["aborts"]:
            print(f"    {abort['step']} aborted ({' '.join(abort['message'])}): "
                  f"{abort['rows_unwritten']} rows unwritten")
        for bad in p["unexpected"]:
            print(f"    unexpected failure: {bad}")
        for msg in p["check_messages"]:
            print(f"    check failed: {msg}")
    diagnostics = {k: v for p in passes for k, v in p["diagnostics"].items()}
    if diagnostics:
        print(f"  diagnostics: {json.dumps(diagnostics)}")
    print(f"  correct = {res['correct']}")
    print(f"  environment: {json.dumps(res['environment'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit so run_child's cleanup kills the child group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "tactsqueeze" / "cli.py").is_file():
        print(f"error: no tactsqueeze package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.make(args.workload, args.seed, workdir)
    result_path = workdir / "measure.json"
    try:
        setup_samples = []
        if args.trace == 0:
            probe = [sys.executable, str(HERE / "probe.py"), json.dumps(wl.probe_argvs)]
            setup_samples = [run_child(probe, deadline, workdir / "probe.log")
                             for _ in range(SETUP_REPEATS)]
        run_child([sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", str(workdir),
                   "--result", str(result_path)], deadline, workdir / "measure.log")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    res["environment"]["git_commit"] = git_commit()
    if args.trace == 0:
        values = {"setup_s": statistics.median(setup_samples), "pass_s": res["pass_s"],
                  "rows_per_s": res["rows_per_s"], "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    res.update(setup_samples=setup_samples, metrics=metrics,
               failed_share=res["failed"] / res["attempted"])
    (workdir / "result.json").write_text(json.dumps(res, indent=1))
    report(args, res, metrics, setup_samples)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
