"""The cells that moved between two CSVs of the same command and grid.

    python tests/csv_cell_diff.py A.csv B.csv

Comment lines (starting with #) are skipped; the headers and the row counts
must agree.  For each column whose cells differ as text, one line: the
column, the number of rows in which it moved, and its worst relative change
|b - a| / max(|a|, |b|) and worst absolute change |b - a| over those rows.
A moved cell that is not a number on both sides is counted and reported as
"text" instead of a number.  Exit status: 0 when no cell moved, 1 when one
did, 2 when the files cannot be compared.  Standard library only.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass


@dataclass
class Moved:
    """One column's moved cells: how many rows, the worst changes of the
    numeric ones and whether any was text."""

    rows: int = 0
    worst_relative: float = 0.0
    worst_absolute: float = 0.0
    text: bool = False


def read_rows(path: str) -> list[list[str]]:
    """The header and data rows of a CSV, without its comment lines."""
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def moved_columns(a: list[list[str]], b: list[list[str]]) -> dict[str, Moved]:
    """Column -> Moved, for the columns in which any cell differs as text.
    ValueError when the headers or the row counts differ."""
    if not a or not b or a[0] != b[0]:
        raise ValueError("the headers differ")
    if len(a) != len(b):
        raise ValueError(f"the row counts differ: {len(a) - 1} and {len(b) - 1}")
    header, moved = a[0], {}
    for row_a, row_b in zip(a[1:], b[1:]):
        for name, x, y in zip(header, row_a, row_b, strict=True):
            if x == y:
                continue
            m = moved.setdefault(name, Moved())
            m.rows += 1
            u, v = _number(x), _number(y)
            if u is None or v is None:
                m.text = True
                continue
            diff = abs(v - u)
            scale = max(abs(u), abs(v))
            rel = diff / scale if math.isfinite(diff) and scale > 0 else math.inf
            m.worst_relative = max(m.worst_relative, rel)
            m.worst_absolute = max(m.worst_absolute, diff)
    return moved


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        moved = moved_columns(read_rows(argv[0]), read_rows(argv[1]))
    except (OSError, ValueError) as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    if not moved:
        print("no cell moved")
        return 0
    for name, m in moved.items():
        worst = "text" if m.text else f"{m.worst_relative:.3g} rel, {m.worst_absolute:.3g} abs"
        print(f"{name}: {m.rows} rows, worst {worst}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
