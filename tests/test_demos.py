"""Smoke tests: every demo, and the README's Python quick start, runs from a
clean directory with RuntimeWarnings as errors and prints something."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    return out.stdout


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(tmp_path, demo):
    run_python([str(demo)], tmp_path)


def test_readme_quick_start_prints_its_commented_values(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = run_python(["-c", code], tmp_path).split()
    # the values the README gives in its comments, to the digits it shows
    assert f"{float(printed[0]):.4f}" == "0.7815"
    assert f"{float(printed[1]):.4f}" == "3.9599"
