"""Benchmark of the hyperarcs library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The runner starts one fresh child process per
unit of work (perfbench/child.py), one after another, until S seconds have
passed and at least MIN_UNITS units ran.  Each child builds its inputs from
the seed and the unit number, so the library receives only generated inputs.

Workloads (see workloads.py for sizes and checks):
  enumerate-k8   orderly generation of the K6 and K8 1-factorization catalogs
  classify-q16   classify_ghf over GF(16), arc canonical forms dominate
  arcs-sweep     translation-arc sweep, random arcs up to r = 10, exact cover
                 and the (6, 3) completion certificate through the CLI

Times are rescaled to a fixed machine speed.  On a shared host the CPU speed
a process gets swings by a quarter within seconds, so every child also times
a fixed pure-Python reference computation just before and just after its
work, and a time t is reported as t * REF_S / ref, the time it would take on
a machine where the reference takes REF_S seconds.  The raw medians are
printed too.

With --trace 0 the last line of standard output carries the end-to-end
metrics, medians over the units: ``wall_s`` (wall time of the checked work),
``setup_s`` (child spawn to the end of set-up: interpreter start, imports,
field construction, catalog parsing) and ``peak_rss_mib`` (the child's
maximum resident set).  The error rate, failed units over units attempted,
is printed on the line before and is carried by ``failed`` and
``attempted``.  With --trace 1 traced and untraced units alternate, and the
last line carries the per-layer metrics of tracing.py, medians over the
traced units.  Span times and ``trace.wall_s`` there are raw seconds of the
traced units, so they compare with each other; ``trace.overhead_s`` is the
rescaled traced median wall time minus the rescaled untraced one.

The exit code is 0 when every output check passed, 1 when any failed, and 2
when the library sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("enumerate-k8", "classify-q16", "arcs-sweep")
MIN_UNITS = 3
REF_S = 0.035  # the reference computation's typical time on a 2-core Xeon VM
RUN_LIMIT_S = 170.0  # every child is stopped by then, so a run ends within 180 s

sys.path.insert(0, HERE)
import golden  # noqa: E402
import tracing  # noqa: E402


def run_unit(workload: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, CHILD, workload, str(seed), str(index), "1" if traced else "0"]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - spawn, 1.0))
    except subprocess.TimeoutExpired:
        out, err = "", "unit did not finish before the run's time limit"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        res = {"ok": False, "error": f"child exited with {proc.returncode}: {err.strip()[-2000:]}"}
    if res["ok"]:
        res["setup_s"] = res["setup_end"] - spawn
        speed = REF_S / res["ref_s"]
        res["wall_norm"] = res["wall_s"] * speed
        res["setup_norm"] = res["setup_s"] * speed
    res["traced"] = traced
    return res


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summary(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{name} {med:.6g} {unit} (median of {len(values)} units; quartiles {q1:.6g}-{q3:.6g})"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hyperarcs", "__init__.py")):
        print(f"error: no hyperarcs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    problems = golden.verify_catalogs()

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    results: list[dict] = []
    longest = 0.0
    while True:
        now = time.monotonic()
        plain = sum(1 for r in results if not r["traced"])
        traced = len(results) - plain
        done = now - start >= args.seconds and (
            (plain >= 1 and traced >= 1) if args.trace else plain >= MIN_UNITS
        )
        if done or now + 2 * longest > deadline:
            break
        res = run_unit(args.workload, args.seed, len(results),
                       bool(args.trace) and len(results) % 2 == 1, deadline)
        results.append(res)
        longest = max(longest, time.monotonic() - now)
    meta["loadavg_end"] = os.getloadavg()

    good = [r for r in results if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    failed = len(results) - len(good)
    for r in results:
        if not r["ok"]:
            print(f"unit failed: {r['error']}", file=sys.stderr)
    for p in problems:
        print(f"golden input: {p}", file=sys.stderr)
    meta["units"] = [
        {k: r[k] for k in ("traced", "wall_s", "setup_s", "ref_s")} if r["ok"] else None
        for r in results
    ]
    print(json.dumps({"meta": meta}))

    metrics: dict[str, dict] = {}
    if args.trace:
        layered = [r for r in good if r["traced"]]
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        for name in units:
            values = [r["layers"][name] for r in layered if name in r["layers"]]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": units[name]}
        if layered and plain:
            metrics["trace.wall_s"] = {
                "value": statistics.median(r["wall_s"] for r in layered), "unit": "s"}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(r["wall_norm"] for r in layered)
                - statistics.median(r["wall_norm"] for r in plain),
                "unit": "s",
            }
        print(f"per-layer metrics: medians over {len(layered)} traced units")
    elif plain:
        series = {
            "wall_s": ([r["wall_norm"] for r in plain], "s"),
            "setup_s": ([r["setup_norm"] for r in plain], "s"),
            "peak_rss_mib": ([r["peak_rss_kib"] / 1024 for r in plain], "MiB"),
        }
        for name, (values, unit) in series.items():
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(summary(name, values, unit))
        print(summary("raw wall_s", [r["wall_s"] for r in plain], "s"))
        print(summary("raw setup_s", [r["setup_s"] for r in plain], "s"))
        print(summary("reference", [r["ref_s"] for r in plain], "s"))
    print(f"error_rate {failed / len(results):.6g} ratio ({failed} of {len(results)} units failed)")

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
