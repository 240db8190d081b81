"""Self-test of the benchmark's stored catalogs.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that the stored K6 and K8 catalogs are
byte for byte what enumerate_factorizations(3) and (4) print, that every
stored catalog matches its stored SHA-256 (the K10 digest was taken from the
enumerate_factorizations(5) catalog text, which takes about a minute to
recompute, see make_golden.py), and that the K10 catalog parses into 396
classes and formats back to the same text.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from hyperarcs.onefact import enumerate_factorizations, format_catalog, parse_catalog  # noqa: E402

import golden  # noqa: E402


def main() -> int:
    problems = golden.verify_catalogs()
    for n in (3, 4):
        if format_catalog(enumerate_factorizations(n)) != golden.read_catalog(n):
            problems.append(f"k{2 * n}.txt differs from enumerate_factorizations({n})")
    k10 = golden.read_catalog(5)
    facts = parse_catalog(k10)
    if len(facts) != golden.CLASS_COUNTS[5] or format_catalog(facts) != k10:
        problems.append("k10.txt does not round-trip through parse_catalog/format_catalog")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
