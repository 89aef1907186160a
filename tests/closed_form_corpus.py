"""The closed-form byte corpus: the `--no-timing` CSV, exit code and stderr of
`analytic`, `linearized` and `optimize` on each small grid in tests/corpus/.

    PYTHONPATH=src python tests/closed_form_corpus.py          # re-record
    PYTHONPATH=src python tests/closed_form_corpus.py --check  # compare

tests/corpus/manifest.json holds each output's SHA-256 and the host line of
the recording: numpy's version and the SIMD targets its dispatch uses.  The
CSVs themselves are kept in tests/corpus/expected/, so that a failure names
the first differing line.  Every CSV is checked by its digest first, on any
host.  Only a CSV whose digest differs on a host whose line differs too is
compared cell by cell instead, each number at relative tolerance RTOL, and
the verdict names it under "different host".  Re-record only for a change
whose moved cells CHANGES.md lists (column, rows, worst relative change).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath as _umath

CORPUS = Path(__file__).resolve().parent / "corpus"
COMMANDS = ("analytic", "linearized", "optimize")
# Between numpy's SIMD targets np.geomspace (so a log axis) can move an input
# by an ulp; on closed_form_sweep's grid the cells then moved by up to 2.3e-13
RTOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def host() -> str:
    """numpy's version and SIMD dispatch, as np.show_runtime() reports them."""
    found = [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(f)]
    return (f"numpy {np.__version__} simd baseline={','.join(_umath.__cpu_baseline__)} "
            f"found={','.join(found)}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run() -> dict[str, tuple[bytes, int, str]]:
    """'<grid>.<command>' -> (CSV bytes, exit code, stderr), in process."""
    from tactsqueeze import cli

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.csv")
        for cfg in sorted(CORPUS.glob("*.cfg")):
            for command in COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", str(cfg), "--out", out,
                                     "--no-timing"])
                outputs[f"{cfg.stem}.{command}"] = (Path(out).read_bytes(), code,
                                                    err.getvalue())
    return outputs


def record() -> None:
    expected = CORPUS / "expected"
    expected.mkdir(exist_ok=True)
    manifest = {"host": host(), "outputs": {}}
    for name, (csv, code, err) in run().items():
        (expected / f"{name}.csv").write_bytes(csv)
        manifest["outputs"][name] = {"csv_sha256": _sha(csv), "exit": code, "stderr": err}
    (CORPUS / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def _first_difference(want: bytes, got: bytes) -> str:
    a, b = want.decode().splitlines(), got.decode().splitlines()
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"line {k + 1}: recorded {x!r}, now {y!r}"
    return f"{len(a)} lines recorded, {len(b)} now"


def _close_lines(want: str, got: str) -> bool:
    """The same text between numbers, and each number within RTOL."""
    if _NUMBER.split(want) != _NUMBER.split(got):
        return False
    return all(x == y or math.isclose(float(x), float(y), rel_tol=RTOL)
               for x, y in zip(_NUMBER.findall(want), _NUMBER.findall(got)))


def _tolerance_difference(want: bytes, got: bytes) -> str | None:
    a, b = want.decode().splitlines(), got.decode().splitlines()
    if len(a) != len(b):
        return f"{len(a)} lines recorded, {len(b)} now"
    for k, (x, y) in enumerate(zip(a, b)):
        if not _close_lines(x, y):
            return f"line {k + 1} beyond rtol {RTOL}: recorded {x!r}, now {y!r}"
    return None


def compare() -> tuple[list[str], list[str]]:
    """(the outputs compared at RTOL, each problem found): every CSV by its
    digest, and only where that differs on another host, at RTOL; exit code
    and stderr exactly on every host."""
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    same_host = manifest["host"] == host()
    outputs = run()
    problems, tolerated = [], []
    if sorted(outputs) != sorted(manifest["outputs"]):
        problems.append(f"outputs {sorted(outputs)}, recorded {sorted(manifest['outputs'])}")
    for name, want in manifest["outputs"].items():
        stored = (CORPUS / "expected" / f"{name}.csv").read_bytes()
        if _sha(stored) != want["csv_sha256"]:
            problems.append(f"{name}: expected/{name}.csv does not match its recorded digest")
        if name not in outputs:
            continue
        csv, code, err = outputs[name]
        if (code, err) != (want["exit"], want["stderr"]):
            problems.append(f"{name}: exit {code}, stderr {err!r}; "
                            f"recorded exit {want['exit']}, stderr {want['stderr']!r}")
        if _sha(csv) == want["csv_sha256"]:
            continue
        if same_host:
            problems.append(f"{name}: CSV digest differs, {_first_difference(stored, csv)}")
            continue
        tolerated.append(name)
        if diff := _tolerance_difference(stored, csv):
            problems.append(f"{name}: {diff}")
    return tolerated, problems


def main(argv: list[str]) -> int:
    if "--check" not in argv:
        record()
        print(f"recorded {CORPUS} on {host()}")
        return 0
    tolerated, problems = compare()
    mode = "bytes"
    if tolerated:
        mode += (f"; different host ({host()}; recorded on "
                 f"{json.loads((CORPUS / 'manifest.json').read_text())['host']}): "
                 f"{', '.join(tolerated)} at rtol {RTOL}")
    print(f"{mode}: {'FAIL' if problems else 'ok'}")
    print("\n".join(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
