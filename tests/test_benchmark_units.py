"""The benchmark's own output checks, one traced unit per workload.

Each unit runs ``perfbench/child.py`` in a fresh interpreter from the
repository root, exactly as ``perfbench/run.py`` starts it, and checks its
outputs against the workload's expected results (for arcs-sweep, the stored
``arc complete --r 6 --s 3`` report among them).  The traced run also
exercises the tracing harness, which reads results the library returns.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["enumerate-k8", "classify-q16", "arcs-sweep"])
def test_traced_benchmark_unit_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", workload, "1", "0", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["ok"] is True, out["error"]
    assert out["layers"]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
