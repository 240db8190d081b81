"""The benchmark's own output checks, one traced unit per workload.

Each unit runs ``perfbench/child.py`` in a fresh interpreter from the
repository root, exactly as ``perfbench/run.py`` starts it, and checks its
outputs against the workload's expected results (for arcs-sweep, the stored
``arc complete --r 6 --s 3`` report among them).  The traced run also
exercises the tracing harness, which reads results the library returns.
The tracing harness's patch sites are checked against the library's names.
"""

import importlib
import importlib.util
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


# patch sites whose library names are gone; their per-layer metrics read 0
STALE_SITES = {("classify", "arc_canonical_form"), ("classify", "ghf_eight")}


def test_tracer_patch_sites_resolve_to_library_attributes():
    # the tracer skips a site whose name it cannot find, so a renamed
    # library function would silently zero its per-layer metrics
    loader = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracing)
    sites = [site for span in tracing.SPAN_SITES.values() for site in span]
    sites += [(mod, attr) if owner is None else (mod, owner, attr)
              for mod, owner, attr in tracing.COUNT_SITES.values()]
    sites.append(("arcs", "enumerate_arc_subgroups"))
    unresolved = set()
    for mod, *path in sites:
        obj = importlib.import_module(f"hyperarcs.{mod}")
        for name in path:
            obj = getattr(obj, name, None)
        if not callable(obj):
            unresolved.add((mod, *path))
    assert unresolved == STALE_SITES
