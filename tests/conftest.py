"""Shared fixtures plus the acceptance-criteria summary.

Each `test_criterion_<n>_*` outcome in test_acceptance.py is aggregated
per criterion number, and one PASS/FAIL line per criterion is printed in
a dedicated terminal section after the run, described by `criteria.py`.
"""

from __future__ import annotations

import re
import time

import pytest

from declab import run_convergence
from criteria import DESCRIPTIONS

_results: dict[int, bool] = {}
_NAME = re.compile(r"test_criterion_(\d+)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    m = _NAME.match(item.name)
    if m and "test_acceptance" in item.nodeid and rep.when in ("setup", "call"):
        n = int(m.group(1))
        if rep.failed:
            _results[n] = False
        elif rep.when == "call" and rep.passed:
            _results.setdefault(n, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_results):
        status = "PASS" if _results[n] else "FAIL"
        terminalreporter.write_line(f"criterion {n} {status} — {DESCRIPTIONS.get(n, '')}")


@pytest.fixture(scope="session")
def convergence_runner():
    """Memoized convergence runs shared across acceptance tests.

    Returns (report, wall_seconds); the timing is that of the first,
    uncached computation.
    """
    cache: dict[tuple, tuple] = {}

    def run(k: int, family: str, levels, seed: int = 0, alpha: float = 0.15):
        key = (k, family, tuple(levels), seed, alpha)
        if key not in cache:
            start = time.perf_counter()
            report = run_convergence(k, family, list(levels), seed=seed, alpha=alpha)
            cache[key] = (report, time.perf_counter() - start)
        return cache[key]

    return run
