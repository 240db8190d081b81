"""One unit of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED UNIT TRACE

run.py starts one of these per unit, so every library cache starts cold, as
it does for a user.  The unit builds its inputs from (WORKLOAD, SEED, UNIT),
checks that every ``lru_cache`` in the library is empty, times a fixed
reference computation, runs the timed work (traced when TRACE is 1), times
the reference again, checks the outputs, and prints one JSON line: ``ok``,
``error``, ``setup_end`` (CLOCK_MONOTONIC, so the parent can take set-up
time from its own spawn time), ``ref_s``, ``wall_s``, ``peak_rss_kib`` and,
when traced, ``layers``.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

LIBRARY_MODULES = ("gf2", "projplane", "arcs", "blocking", "onefact", "classify", "cli")


def warm_caches() -> list[str]:
    """Library functions whose lru_cache already holds entries."""
    warm = []
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"hyperarcs.{name}")
        for attr, obj in vars(module).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{name}.{attr}")
    return warm


def reference_s() -> float:
    """Time of a fixed pure-Python computation that uses no library code.
    Timed next to the work, it tells how fast the machine ran the unit."""
    start = time.monotonic()
    table: dict = {}
    acc = 0
    for i in range(40000):
        key = (i & 255, (i * 7) & 255)
        table[key] = table.get(key, 0) ^ i
        acc ^= sorted((i, acc & 1023, key[0]))[1]
    return time.monotonic() - start


def unit(workload: str, seed: int, index: int, traced: bool) -> dict:
    prepare, run, verify = workloads.WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    inputs = prepare(rng)
    warm = warm_caches()
    workloads.check(not warm, f"caches not cold before the timed work: {warm}")

    setup_end = time.monotonic()
    ref_before = reference_s()
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    start = time.monotonic()
    try:
        result = run(inputs)
    finally:
        wall = time.monotonic() - start
        if tracer is not None:
            tracer.uninstall()
    out = {
        "setup_end": setup_end,
        "ref_s": (ref_before + reference_s()) / 2,
        "wall_s": wall,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    stats = verify(inputs, result)
    if tracer is not None:
        out["layers"] = {**tracer.metrics(stats), **tracing.micro_metrics(rng)}
    return out


def main() -> int:
    workload, seed, index, traced = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
    try:
        out = {"ok": True, "error": None, **unit(workload, seed, index, traced)}
    except workloads.CheckFailed as exc:
        out = {"ok": False, "error": f"check failed: {exc}"}
    except Exception:  # reported to the parent, which counts the unit as failed
        out = {"ok": False, "error": traceback.format_exc(limit=-3)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
