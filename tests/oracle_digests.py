"""Digests of the oracle's outputs, to show that a change moves no byte of them.

    python3 tests/oracle_digests.py CHECKOUT > digests.txt

runs the package (`src`) and the demos of CHECKOUT on a fixed set of inputs
and prints one line per output: a label, the exit code and the SHA-256 of
the CSV, of stderr and of stdout.  Run it on two checkouts and `diff` the
two listings.  The configs come from this file and from
perfbench/workloads.py next to it (read, never written), so both checkouts
get the same ones.  The outputs:

  - exact_sweep's grid and first-row configs at seeds 7 and 11: `exact`, and
    `sweep` with engine exact and all, each with and without
    with_factorization;
  - oracle_verify's `verify` and first-row configs at seeds 7 and 11;
  - an N = 2..9 x 3 T x 2 Gamma grid through the same four sweeps;
  - `verify` at N = 1..9 for alpha = 5, alpha = 0, and alpha = 20 at P = 0.7;
  - `exact` rows at j_coupling = -0 and 0, with factorization;
  - each of CHECKOUT's demos, with RuntimeWarnings as errors.

Every command runs with --no-timing in a fresh interpreter, under a
temporary directory that is removed at the end.  It takes about half a
minute on 2 cores, so it is not part of the pytest suite.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (standard library only)

SEEDS = (7, 11)
GRID = ("[params]\nj_coupling = 0.05\npolarization_p = 0.95\n[sweep]\n"
        "axis0 = n_spins 2 9 8 linear\naxis1 = t_squeeze 0.02 0.3 3 log\n"
        "axis2 = gamma 0.02 0.2 2 log\n")
VERIFY = {"verify_alpha5": "alpha = 5.0\n", "verify_alpha0": "alpha = 0.0\n",
          "verify_alpha20_p0.7": "alpha = 20.0\npolarization_p = 0.7\n"}
ZERO_J = "[params]\nn_spins = 4\nj_coupling = {}\n[run]\nwith_factorization = true\n"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sweeps(cfg: Path) -> list[tuple[str, str]]:
    """(suffix, config text) of the four sweeps over cfg's grid: engine exact
    and all, each without and with with_factorization."""
    text = cfg.read_text()
    return [(f"sweep_{engine}{'_fact' if fact else ''}",
             text + f"[run]\nengine = {engine}\nwith_factorization = {str(fact).lower()}\n")
            for engine in ("exact", "all") for fact in (False, True)]


def jobs(tmp: Path, checkout: Path) -> list[tuple[str, list[str], Path | None]]:
    """(label, argv after the interpreter, CSV written or None) of every output."""
    out = []

    def cli(label: str, command: str, text: str) -> None:
        cfg = tmp / f"{label}.cfg"
        cfg.write_text(text)
        csv = tmp / f"{label}.csv"
        out.append((label, ["-m", "tactsqueeze.cli", command, "--config", str(cfg),
                            "--out", str(csv), "--no-timing"], csv))

    for seed in SEEDS:
        for name, command in (("exact_sweep", "exact"), ("oracle_verify", "verify")):
            work = workloads.make(name, seed, tmp / f"{name}{seed}")
            for argv in [step.argv for step in work.steps] + work.probe_argvs:
                cfg = Path(argv[argv.index("--config") + 1])
                label = f"{name}.seed{seed}.{cfg.stem}"
                cli(f"{label}.{command}", command, cfg.read_text())
                if command == "exact":
                    for suffix, text in _sweeps(cfg):
                        cli(f"{label}.{suffix}", "sweep", text)
    (tmp / "grid.cfg").write_text(GRID)
    for suffix, text in _sweeps(tmp / "grid.cfg"):
        cli(f"grid.{suffix}", "sweep", text)
    for label, keys in VERIFY.items():
        cli(label, "verify", f"[verify]\nn_min = 1\nn_max = 9\n{keys}")
    for j in ("-0", "0"):
        cli(f"exact_j{j}_fact", "exact", ZERO_J.format(j))
    for demo in sorted((checkout / "demos").glob("*.py")):
        out.append((f"demo.{demo.stem}", ["-W", "error::RuntimeWarning", str(demo)], None))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tests/oracle_digests.py CHECKOUT", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for label, args, csv in jobs(Path(tmp), checkout):
            run = subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                                 capture_output=True, timeout=600)
            data = csv.read_bytes() if csv is not None and csv.exists() else b""
            print(label, run.returncode, _sha(data), _sha(run.stderr), _sha(run.stdout))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
