"""The benchmark's gate keeps its own copies of criteria 1-4's pinned values
and windows (`perfbench/workloads.py`); they must stay equal to the table."""

from __future__ import annotations

from criteria import STUDIES
from perfbench import workloads


def test_perfbench_gates_are_criteria_1_to_4():
    symmetric = {k: STUDIES[n, k] for n, k in ((1, 0), (2, 1), (3, 2))}
    assert workloads.PINNED == {k: list(s.pinned) for k, s in symmetric.items()}
    assert workloads.RATES == {k: s.windows for k, s in symmetric.items()}
    assert workloads.CRITERION_4_K1 == STUDIES[4, 1].windows
