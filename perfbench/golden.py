"""Locations and helpers for the golden inputs in perfbench/golden."""

from __future__ import annotations

import hashlib
import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
DIGESTS = os.path.join(GOLDEN, "digests.json")
CLI_REPORT = os.path.join(GOLDEN, "arc_complete_r6_s3.json")
CLI_ARGV = ("arc", "complete", "--r", "6", "--s", "3")
CLASS_COUNTS = {3: 1, 4: 6, 5: 396}

_DURATION_LINE = re.compile(r'^\s*"duration_s": .*\n', re.MULTILINE)


def catalog_path(n: int) -> str:
    return os.path.join(GOLDEN, f"k{2 * n}.txt")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def strip_duration(report: str) -> str:
    """The report text without its one run-dependent line."""
    return _DURATION_LINE.sub("", report)


def read_catalog(n: int) -> str:
    with open(catalog_path(n)) as fh:
        return fh.read()


def read_digests() -> dict[int, str]:
    with open(DIGESTS) as fh:
        return {int(n): d for n, d in json.load(fh)["catalog_sha256"].items()}


def read_cli_report() -> str:
    with open(CLI_REPORT) as fh:
        return fh.read()


def verify_catalogs() -> list[str]:
    """Stored catalog texts against the stored digests; returns problems."""
    digests = read_digests()
    problems = []
    for n, want in sorted(digests.items()):
        text = read_catalog(n)
        if sha256(text) != want:
            problems.append(f"k{2 * n}.txt does not match its stored SHA-256")
        if len(text.splitlines()) != CLASS_COUNTS[n]:
            problems.append(f"k{2 * n}.txt does not hold {CLASS_COUNTS[n]} classes")
    return problems
