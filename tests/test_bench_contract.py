"""The benchmark's harness self-test, run as part of the test suite.

The benchmark checks every output of the program against its oracles; this
runs the harness at (2,3) so that an output change the oracles would reject
fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
