"""Shared fixtures and the acceptance summary printer."""

import time

import pytest

from hyperarcs.onefact import enumerate_factorizations

# The q = 8 checks of the paper's example: that example does not exist over
# GF(8) (see README), so these fail by design.
EXPECTED_FAILURES = frozenset({"A3c", "A4a", "A7a"})

_ACCEPT_META: dict[str, tuple[str, str]] = {}
_ACCEPT_RESULTS: dict[str, tuple[str, bool, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(ident, title): tag a test as an acceptance criterion"
    )


def pytest_collection_modifyitems(items):
    for item in items:
        mark = item.get_closest_marker("acceptance")
        if mark:
            ident, title = mark.args
            _ACCEPT_META[item.nodeid] = (ident, title)


def pytest_runtest_logreport(report):
    meta = _ACCEPT_META.get(report.nodeid)
    if meta and report.when == "call":
        ident, title = meta
        _ACCEPT_RESULTS[report.nodeid] = (ident, report.passed, title)


def pytest_terminal_summary(terminalreporter, config):
    if not _ACCEPT_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    verdicts = {}
    for nodeid, (ident, passed, title) in sorted(
        _ACCEPT_RESULTS.items(), key=lambda kv: kv[1][0]
    ):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{ident} {verdict}  {title}")
        verdicts[ident] = {"verdict": verdict, "title": title, "test": nodeid}
    # None under -p no:cacheprovider
    cache = getattr(config, "cache", None)
    if cache is not None:
        cache.set("hyperarcs/acceptance", verdicts)
    unexpected = [
        f"{ident} {v['verdict']}"
        for ident, v in verdicts.items()
        if (v["verdict"] == "FAIL") != (ident in EXPECTED_FAILURES)
    ]
    terminalreporter.write_line(
        "unexpected verdicts: " + (", ".join(unexpected) or "none")
        + f" (failing by design: {', '.join(sorted(EXPECTED_FAILURES))})"
    )


@pytest.fixture(scope="session")
def k6_catalog():
    return enumerate_factorizations(3)


@pytest.fixture(scope="session")
def k8_catalog():
    return enumerate_factorizations(4)


@pytest.fixture(scope="session")
def k10_catalog():
    start = time.monotonic()
    facts = enumerate_factorizations(5)
    return facts, time.monotonic() - start
