"""The benchmark's own smoke run, end to end through its CLI.

``perfbench/run.py --smoke`` trains and evaluates every workload at
minimum size, traced and untraced, and checks their outputs and the
metrics they print, so it exercises the conv, pool and dense code
through the same entry point the benchmark uses.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
