"""The benchmark's smoke run, so that the benchmark cannot rot unnoticed.

It runs every workload at a tiny size, traced and untraced, and fails
when a reply disagrees with the benchmark's model or a metric is missing.
No timing is asserted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
