"""Regenerate the golden inputs stored under perfbench/golden.

Run from the repository root: ``python3 perfbench/make_golden.py``.  It
enumerates the K6, K8 and K10 catalogs (about a minute for K10), records the
SHA-256 of each catalog text, and stores the ``arc complete --r 6 --s 3``
report with its ``duration_s`` line removed.  The benchmark and its self-test
read these files; they never regenerate them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from hyperarcs import cli  # noqa: E402
from hyperarcs.onefact import enumerate_factorizations, format_catalog  # noqa: E402

import golden  # noqa: E402


def main() -> int:
    digests = {}
    for n in (3, 4, 5):
        text = format_catalog(enumerate_factorizations(n))
        with open(golden.catalog_path(n), "w") as fh:
            fh.write(text)
        digests[str(n)] = golden.sha256(text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(list(golden.CLI_ARGV))
    if code != 0:
        raise SystemExit(f"cli exited with {code}")
    with open(golden.CLI_REPORT, "w") as fh:
        fh.write(golden.strip_duration(buf.getvalue()))
    with open(golden.DIGESTS, "w") as fh:
        json.dump({"catalog_sha256": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
