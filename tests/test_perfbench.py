"""The benchmark harness imports library functions by name.  Its self-test
runs every layer it times on a small window and checks the results against
its gate, so a changed signature or result fails here first."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout


def test_traced_benchmark_run_agrees_with_the_pipeline():
    """One traced c8-ring-n3 sample: the traced side builds the ring from
    full-state kernel tables of every degree, the untraced pipeline from the
    degree-1 and degree-2 tables alone, and both must pass the gate and agree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "c8-ring-n3",
                           "--seconds", "1", "--trace", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0, proc.stdout
