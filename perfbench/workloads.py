"""Workload inputs: everything the program receives is generated here from the seed.

Each workload is a fixed list of steps.  A step is one `tactsqueeze.cli.main`
invocation (config file written by the benchmark) or one batch of
`optimize.optimal_split_full` library calls.  This module uses only the
standard library, so the set-up probe can be launched before numpy is loaded.

What the seed moves:

* oracle_verify and exact_sweep: the time unit.  Every rate (J, Gamma) is
  multiplied by a factor s in [1/2, 2] and every time by 1/s.  The Lindblad
  dynamics in units of the depolarization time are unchanged, so the RK4 step
  counts, the work and every dimensionless output are the same for all seeds;
  only the numbers the program reads differ.  That keeps the timing steady and
  lets rows above N = 4, where no independent integrator is affordable, be
  compared with values recorded when the benchmark was introduced
  (reference.json).
* closed_form_sweep: the lower bound of J and the upper bound of Gamma are
  jittered by up to 2% each, and the six optimal_split_full parameter sets are
  drawn at random.  The other two bounds stay at J = 1 and Gamma = 1e-2, so
  alpha = J N P / (4 Gamma) reaches 2250 for every seed: above ~1.93e3
  `optimize.optimal_u` overflows exp(alpha/e U) and aborts the sweep, a known
  defect that the benchmark keeps visible.  With those two bounds fixed the
  first overflowing row is row 9700 for every seed, so each pass leaves the
  same 300 optimize rows unwritten and the failed count does not move with
  the seed.

Every run does a fixed number of passes, passes_for(seconds), so that the
attempted and failed counts of a run depend on nothing but --seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("oracle_verify", "exact_sweep", "closed_form_sweep")

# oracle_verify: acceptance criterion 06 physics
VERIFY_N = (2, 7)
VERIFY_ALPHA = 5.0
VERIFY_GAMMA = 0.25  # at s = 1; t_squeeze = 1 / (4 Gamma) keeps 4 Gamma T = 1

# exact_sweep: short evolves near the 16-step floor
EXACT_N = (3, 8)
EXACT_J = 0.05
EXACT_P = 0.95
EXACT_T = (0.02, 0.1, 3)
EXACT_GAMMA = (0.02, 0.2)

# closed_form_sweep: 100 x 100 grid, alpha = J N P / (4 Gamma) up to 2250
CF_N = 100
CF_P = 0.9
CF_J = (1e-3, 1.0, 100)
CF_GAMMA = (1e-2, 1.0, 100)
CF_T = 0.5
CF_JITTER = 0.02
SPLIT_CALLS = 6

# wall time of one untraced pass on the 2-core host the benchmark was sized on
NOMINAL_PASS_S = {"oracle_verify": 33.0, "exact_sweep": 13.7, "closed_form_sweep": 8.5}


def passes_for(name: str, seconds: float) -> int:
    """Passes of one --trace 0 run: as many nominal passes as fit in `seconds`,
    rounded, at least one.  A fixed count rather than a clock keeps the work,
    and so the attempted and failed counts, the same in every run."""
    return max(1, round(seconds / NOMINAL_PASS_S[name]))


@dataclass
class Step:
    """One unit of work: a CLI invocation or a batch of library calls.

    kind is "cli" (argv for `cli.main`, writing `out`) or "split"
    (`optimal_split_full` over `split_sets`).  rows is the number of rows
    (or library calls) the step attempts.
    """

    label: str
    kind: str
    rows: int
    argv: list[str] = field(default_factory=list)
    out: str = ""
    workers: int = 1
    split_sets: list[dict] = field(default_factory=list)
    grid: list[tuple] = field(default_factory=list)  # closed-form axes, row-major
    same_bytes_as: str = ""  # checked byte for byte against this CSV instead


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    inputs: dict
    steps: list[Step]  # one timed pass
    probe_argvs: list[list[str]]  # first row through every engine the steps use
    pool_probe: Step | None  # pool pass with per-row wall_time, traced runs only
    check_steps: list[Step] = field(default_factory=list)  # untimed, once per run


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _time_scale(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(0.5), math.log(2.0)))


def _oracle_verify(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    s = _time_scale(rng)
    gamma = VERIFY_GAMMA * s
    t_squeeze = 1.0 / (4.0 * gamma)
    inputs = {"time_scale": s, "gamma": gamma, "t_squeeze": t_squeeze,
              "alpha": VERIFY_ALPHA, "polarization_p": 1.0,
              "n_min": VERIFY_N[0], "n_max": VERIFY_N[1]}

    def config(n_min: int, n_max: int, name: str) -> str:
        return _write(workdir / name, (
            f"[verify]\nn_min = {n_min}\nn_max = {n_max}\n"
            f"alpha = {VERIFY_ALPHA!r}\ngamma = {gamma!r}\n"
            f"polarization_p = 1.0\nt_squeeze = {t_squeeze!r}\n"))

    cfg = config(*VERIFY_N, "verify.cfg")
    first = config(VERIFY_N[0], VERIFY_N[0], "verify_first.cfg")
    out = str(workdir / "verify.csv")
    steps = [Step("verify", "cli", VERIFY_N[1] - VERIFY_N[0] + 1,
                  ["verify", "--config", cfg, "--out", out, "--no-timing"], out)]
    probe = [["verify", "--config", first, "--out", str(workdir / "probe_verify.csv"),
              "--no-timing"]]
    return Workload("oracle_verify", seed, workdir, inputs, steps, probe, None)


def _exact_sweep(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    s = _time_scale(rng)
    j = EXACT_J * s
    t_lo, t_hi, t_count = EXACT_T[0] / s, EXACT_T[1] / s, EXACT_T[2]
    g_lo, g_hi = EXACT_GAMMA[0] * s, EXACT_GAMMA[1] * s
    inputs = {"time_scale": s, "j_coupling": j, "polarization_p": EXACT_P,
              "n_spins": list(EXACT_N), "t_squeeze": [t_lo, t_hi, t_count],
              "gamma": [g_lo, g_hi]}
    params = f"[params]\nj_coupling = {j!r}\npolarization_p = {EXACT_P!r}\n"
    cfg = _write(workdir / "exact.cfg", params + (
        "[sweep]\n"
        f"axis = n_spins {EXACT_N[0]} {EXACT_N[1]} {EXACT_N[1] - EXACT_N[0] + 1} linear\n"
        f"axis2 = t_squeeze {t_lo!r} {t_hi!r} {t_count} log\n"
        f"axis3 = gamma {g_lo!r} {g_hi!r} 2 log\n"))
    first = _write(workdir / "exact_first.cfg", params + (
        f"n_spins = {EXACT_N[0]}\nt_squeeze = {t_lo!r}\ngamma = {g_lo!r}\n"))
    rows = (EXACT_N[1] - EXACT_N[0] + 1) * t_count * 2
    out = str(workdir / "exact.csv")
    steps = [Step("exact", "cli", rows,
                  ["exact", "--config", cfg, "--out", out, "--no-timing"], out)]
    pool_out = str(workdir / "exact_pool.csv")
    pool = Step("exact_pool", "cli", rows,
                ["exact", "--config", cfg, "--out", pool_out, "--workers", "2"],
                pool_out, workers=2)
    probe = [["exact", "--config", first, "--out", str(workdir / "probe_exact.csv"),
              "--no-timing"]]
    return Workload("exact_sweep", seed, workdir, inputs, steps, probe, pool)


def _split_sets(rng: random.Random) -> list[dict]:
    sets = []
    for _ in range(SPLIT_CALLS):
        alpha = math.exp(rng.uniform(math.log(5.0), math.log(200.0)))
        gamma = rng.uniform(0.1, 0.5)
        n = rng.randint(50, 500)
        p = rng.uniform(0.8, 1.0)
        tau = rng.uniform(3.0, 5.0) / (4.0 * gamma)
        sets.append({"j_coupling": 4.0 * gamma * alpha / (n * p), "n_spins": n,
                     "polarization_p": p, "gamma": gamma, "tau_budget": tau})
    return sets


def cf_step(workdir: Path, label: str, engine: str, axes: list[tuple],
            workers: int = 1, timing: bool = False) -> Step:
    """A closed-form CLI step over the row-major product of log-spaced `axes`
    (name, lo, hi, count), with N and P fixed; writes its own config."""
    cfg = _write(workdir / f"{label}.cfg", (
        f"[params]\nn_spins = {CF_N}\npolarization_p = {CF_P!r}\n[sweep]\n"
        + "".join(f"axis{i} = {name} {lo!r} {hi!r} {count} log\n"
                  for i, (name, lo, hi, count) in enumerate(axes))))
    out = str(workdir / f"{label}.csv")
    argv = [engine, "--config", cfg, "--out", out, "--workers", str(workers)]
    if not timing:
        argv.append("--no-timing")
    return Step(label, "cli", math.prod(a[3] for a in axes), argv, out, workers,
                grid=list(axes))


def _closed_form_sweep(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)

    def jitter(x: float) -> float:
        return x * math.exp(rng.uniform(-CF_JITTER, CF_JITTER))

    # only the bounds far from the overflow move: J_hi and Gamma_lo fix alpha_max
    j_axis = ("j_coupling", jitter(CF_J[0]), CF_J[1], CF_J[2])
    g_axis = ("gamma", CF_GAMMA[0], jitter(CF_GAMMA[1]), CF_GAMMA[2])
    t_axis = ("t_squeeze", CF_T, CF_T, 1)
    splits = _split_sets(rng)
    inputs = {"n_spins": CF_N, "polarization_p": CF_P, "j_coupling": list(j_axis[1:]),
              "gamma": list(g_axis[1:]), "t_squeeze": CF_T, "split_sets": splits}
    grid = [j_axis, g_axis, t_axis]
    steps = [cf_step(workdir, "analytic_w1", "analytic", grid),
             cf_step(workdir, "linearized_w1", "linearized", grid),
             cf_step(workdir, "optimize_w1", "optimize", grid),
             Step("split_full", "split", len(splits), split_sets=splits)]
    first = [(name, lo, lo, 1) for name, lo, _, _ in grid]
    probe = [cf_step(workdir, f"probe_{engine}", engine, first).argv
             for engine in ("analytic", "linearized", "optimize")]
    # The 2-worker pass is not part of the timed pass: between passes its wall
    # time varied with a coefficient of variation of 0.37 (three processes
    # trading 10k one-row tasks on 2 cores), more than any bound absorbs.  It
    # runs untimed once per run, checked byte for byte against the 1-worker
    # CSV of the last pass, and timed, with its wall_time column, in traced runs.
    pooled = cf_step(workdir, "analytic_check_w2", "analytic", grid, workers=2)
    pooled.same_bytes_as = steps[0].out
    pool = cf_step(workdir, "analytic_pool", "analytic", grid, workers=2, timing=True)
    return Workload("closed_form_sweep", seed, workdir, inputs, steps, probe, pool,
                    [pooled])


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload `name` for `seed` and write its configs."""
    builders = {"oracle_verify": _oracle_verify, "exact_sweep": _exact_sweep,
                "closed_form_sweep": _closed_form_sweep}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return builders[name](seed, workdir)
