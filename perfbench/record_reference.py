"""Write reference.json: the exact-engine values that checks.py compares rows
above N = 4 against, where no independent integrator is affordable.

The values are dimensionless, so they are recorded once at time scale 1 and
hold for every seed.  Run this only at a commit whose exact engine is trusted
(it was run at the commit that introduced the benchmark):

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tactsqueeze import cli  # noqa: E402


def _run(wl: workloads.Workload) -> list[dict]:
    if cli.main(wl.steps[0].argv) != 0:
        raise SystemExit(f"{wl.name}: the CLI failed")
    return checks.read_csv(wl.steps[0].out)[1]


def main() -> None:
    workloads._time_scale = lambda rng: 1.0  # the nominal inputs of both workloads
    workdir = Path(__file__).resolve().parent / "out" / "reference"
    ref = {"oracle_verify": {}, "exact_sweep": {}}
    for r in _run(workloads.make("oracle_verify", 0, workdir)):
        if int(r["n_spins"]) > 4:
            ref["oracle_verify"][r["n_spins"]] = {
                "factorization_error": float(r["factorization_error"]),
                "commutator_norm": float(r["commutator_norm"])}
    wl = workloads.make("exact_sweep", 0, workdir)
    n_t = wl.inputs["t_squeeze"][2]
    for i, r in enumerate(_run(wl)):
        n = int(r["n_spins"])
        if n > 4:
            key = checks.exact_row_key(n, (i // 2) % n_t, i % 2)
            ref["exact_sweep"][key] = {c: float(r[c]) for c in checks.EXACT_COLUMNS}
    checks.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE}")


if __name__ == "__main__":
    main()
