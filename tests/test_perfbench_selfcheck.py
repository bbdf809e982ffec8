"""The benchmark's self-check runs against the current program.

perfbench wraps surfgen functions by name for its traced run; renaming or
bypassing one of them makes this fail here rather than in the benchmark.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
