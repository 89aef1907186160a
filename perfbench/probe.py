"""Set-up probe: a fresh interpreter imports tactsqueeze from the checkout's
`src` and computes the first row of every engine the workload uses.

run.py times this process from spawn to exit; that time is `setup_s`.
Usage: python3 perfbench/probe.py '<JSON list of cli argv lists>'
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tactsqueeze import cli  # noqa: E402

if __name__ == "__main__":
    for argv in json.loads(sys.argv[1]):
        if cli.main(argv) != 0:
            sys.exit(1)
