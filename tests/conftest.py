"""Shared fixtures plus the acceptance-criteria summary.

Each `test_criterion_<n>_*` outcome in test_acceptance.py is aggregated
per criterion number, and one PASS/FAIL line per criterion is printed in
a dedicated terminal section after the run.
"""

from __future__ import annotations

import re
import time

import pytest

from declab import run_convergence

CRITERIA = {
    1: "symmetric mesh, k=0: error values at h=2^-5, derivative-error rate "
       "over levels 6..8, and the levels-2..8 runtime budget",
    2: "symmetric mesh, k=1: error values at h=2^-6 and finest-step rates "
       "(second order for e_u, fourth order for the density errors)",
    3: "symmetric mesh, k=2: error values at h=2^-5 and finest-step rates",
    4: "perturbed meshes, seeds 1..3 (and seed 1 at alpha 0.45 for k=1, 2): "
       "first-order rate windows at the finest step (second order for the "
       "k=1 density error)",
    5: "structural suite: d o d, delta o delta, adjointness, stencil vs "
       "transpose assembly, commuting interpolant, constant-form kernel, "
       "centroid condition",
    6: "oracle equivalence: dense vs CG solves, quadrature monomials to "
       "degree 20, exact-solution injection",
}

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
        terminalreporter.write_line(f"criterion {n} {status} — {CRITERIA.get(n, '')}")


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
