"""Set-up probe: one fresh interpreter doing what every CLI call pays first.

Imports ``trismooth.cli``, builds its parser and runs one op of the
workload on its smallest input.  ``run.py`` times the whole process from
spawn to exit; the exit code says whether the warm-up op succeeded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from trismooth.cli import build_parser

import workloads


def main() -> int:
    workload, tmp = sys.argv[1], Path(sys.argv[2])
    build_parser()
    files = {k: Path(v) for k, v in json.loads((tmp / "inputs.json").read_text()).items()}
    work = tmp / "probe"
    work.mkdir(exist_ok=True)
    workloads.WORKLOADS[workload](files, small=True).op(0, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
