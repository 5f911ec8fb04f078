"""The benchmark's workloads and their correctness gate.

A workload pass runs convergence studies the way a user does, with
`declab convergence --format csv`, in process, and times them; `check` then
judges every operation of the pass outside the timed region.  An operation
is one convergence level.  It fails on an exception, a non-zero CLI exit
code or a failed check.

Each workload has a full configuration (the benchmark) and a smoke
configuration at tiny levels, which is both the set-up warm-up and the
benchmark's own smoke test.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

# The pipeline's entry points are called through their modules, so the
# tracer's wrappers (installed on module attributes) see every call.
import declab.cli
import declab.experiments
from declab import NORM_KEYS

REFERENCE_NORMS = Path(__file__).with_name("reference_norms.json")


@dataclass
class Op:
    name: str
    seconds: float = 0.0
    error: str | None = None

    def fail(self, why: str) -> None:
        self.error = why if self.error is None else f"{self.error}; {why}"


@dataclass
class Study:
    """One convergence study of a pass and what its gate expects.

    rows holds, per level, the norms, the rates from the level before and
    the CG iterations; it is None when the study raised."""

    k: int
    levels: tuple[int, ...]
    ops: list[Op] = field(default_factory=list)
    rows: list[dict] | None = None
    windows: dict = field(default_factory=dict)  # key -> (centre, half-width) at the finest halving
    pinned: list = field(default_factory=list)  # (level, key, value, relative tolerance)
    reference: dict | None = None  # level -> key -> norm
    rtol: float = 0.0  # relative tolerance of the reference norms


@dataclass
class Pass:
    """One timed pass: its wall and finest-level times and its studies."""

    wall_s: float
    finest_s: float
    studies: list[Study]

    @property
    def ops(self) -> list[Op]:
        return [op for st in self.studies for op in st.ops]

    @property
    def outputs(self) -> list[str]:
        """Everything two passes with the same seed must agree on exactly."""
        return [repr((st.k, st.rows)) for st in self.studies]


@contextlib.contextmanager
def _level_clock():
    """Time stamps at the start of every level run_convergence builds.

    run_convergence looks build_mesh up in its module at each level, so one
    call per level lands here; that is the whole cost."""
    stamps: list[float] = []
    build_mesh = declab.experiments.build_mesh

    def stamped(spec):
        stamps.append(time.perf_counter())
        return build_mesh(spec)

    declab.experiments.build_mesh = stamped
    try:
        yield stamps
    finally:
        declab.experiments.build_mesh = build_mesh


def _run_study(st: Study, family: str, seed: int, workdir: Path) -> Study:
    """`declab convergence --format csv` for one study, timed.  Each level
    op gets the time from its mesh build to the next one, the last to the
    end of the command."""
    st.ops = [Op(f"k{st.k}-{family}-L{m}") for m in st.levels]
    out = workdir / f"convergence-{family}-k{st.k}.csv"
    argv = [
        "convergence", "--k", str(st.k), "--family", family, "--seed", str(seed),
        "--levels", f"{st.levels[0]}..{st.levels[-1]}", "--format", "csv", "--out", str(out),
    ]
    with _level_clock() as stamps:
        try:
            try:
                code = declab.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            if code != 0:
                raise RuntimeError(f"declab {' '.join(argv)} exited with {code}")
            end = time.perf_counter()
            st.rows = _csv_rows(out.read_text(), st.k)
        except Exception:
            for op in st.ops:
                op.fail(traceback.format_exc(limit=3))
            return st
    for op, t0, t1 in zip(st.ops, stamps, stamps[1:] + [end]):
        op.seconds = t1 - t0
    return st


def _csv_rows(text: str, k: int) -> list[dict]:
    """Rows of a CSV report.  Its 17 significant digits give back every
    double exactly; the wall_time column is left out."""
    header, *lines = text.splitlines()
    rows = []
    for line in lines:
        cell = dict(zip(header.split(","), line.split(",")))
        rows.append({
            "level": int(cell["level"]),
            "norms": {key: float(cell[key]) for key in NORM_KEYS[k]},
            "rates": {
                key: float(cell[f"rate_{key}"]) for key in NORM_KEYS[k] if cell[f"rate_{key}"]
            },
            "iterations": int(cell["iterations"]),
        })
    return rows


def check(p: Pass) -> None:
    """Mark every operation of the pass whose output is wrong."""
    for st in p.studies:
        if st.rows is None:
            continue
        got_levels = [row["level"] for row in st.rows]
        if got_levels != list(st.levels):
            for op in st.ops:
                op.fail(f"report levels {got_levels} != {list(st.levels)}")
            continue
        for row, op in zip(st.rows, st.ops):
            norms = row["norms"]
            if not all(math.isfinite(v) and v > 0.0 for v in norms.values()):
                op.fail(f"non-finite or non-positive norm in {norms}")
            if row["iterations"] <= 0:
                op.fail(f"solver reported {row['iterations']} iterations")
            want = st.reference[row["level"]] if st.reference is not None else {}
            for key, value in want.items():
                if not abs(norms[key] - value) <= st.rtol * value:
                    op.fail(f"{key}={norms[key]!r} differs from reference {value!r}")
        by_level = dict(zip(st.levels, zip(st.rows, st.ops)))
        for m, key, value, tol in st.pinned:
            if m in by_level:
                row, op = by_level[m]
                if not abs(row["norms"][key] - value) <= tol * value:
                    op.fail(f"{key}={row['norms'][key]:.4e} not within {tol:.0%} of {value:.3e}")
        for key, (centre, width) in st.windows.items():
            rate = st.rows[-1]["rates"].get(key, math.nan)
            if not abs(rate - centre) <= width:
                st.ops[-1].fail(f"{key} rate {rate:.4f} outside {centre} +/- {width}")


# -- perturbed_k1 -----------------------------------------------------------

# Criterion 4 for k = 1 at the finest halving.
CRITERION_4_K1 = {"de_u": (1.0, 0.2), "de_rho": (1.0, 0.2), "e_rho": (2.0, 0.3)}


def perturbed_k1(seed: int, workdir: Path, levels=(7, 8), windows=CRITERION_4_K1) -> Pass:
    """run_convergence(k=1, family="perturbed", levels=[7, 8], seed=seed),
    rendered as CSV, behind the CLI."""
    st = Study(1, tuple(levels), windows=windows)
    t0 = time.perf_counter()
    _run_study(st, "perturbed", seed, workdir)
    wall = time.perf_counter() - t0
    return Pass(wall, st.ops[-1].seconds, [st])


# -- symmetric_sweep --------------------------------------------------------

# Criteria 1-3: (level, norm, pinned value, relative tolerance), and the
# finest-step rate windows, which the sweep meets at its 6 -> 7 halving.
PINNED = {
    0: [(5, "de_u", 2.22e-1, 0.02), (5, "e_u", 1.24e-2, 0.03)],
    1: [(6, "de_u", 1.85e-2, 0.03), (6, "e_rho", 3.14e-4, 0.05), (6, "de_rho", 1.73e-3, 0.05)],
    2: [(5, "e_u", 4.00e-3, 0.03), (5, "e_rho", 2.83e-4, 0.05)],
}
RATES = {
    0: {"de_u": (2.0, 0.05)},
    1: {"e_u": (2.0, 0.10), "e_rho": (4.0, 0.15), "de_rho": (4.0, 0.15)},
    2: {"e_u": (2.0, 0.10), "e_rho": (4.0, 0.20)},
}


def symmetric_sweep(seed: int, workdir: Path, levels=tuple(range(2, 8)), windows=RATES) -> Pass:
    """run_convergence on the symmetric family at levels 2..7 for k = 0, 1,
    2, each rendered as CSV, behind the CLI.  The family has no seed, so
    `seed` is unused."""
    reference = json.loads(REFERENCE_NORMS.read_text())
    studies = [
        Study(
            k, tuple(levels), windows=windows.get(k, {}), pinned=PINNED[k], rtol=reference["rtol"],
            reference={int(m): norms for m, norms in reference["norms"][str(k)].items()},
        )
        for k in (0, 1, 2)
    ]
    t0 = time.perf_counter()
    for st in studies:
        _run_study(st, "symmetric", 0, workdir)
    wall = time.perf_counter() - t0
    return Pass(wall, sum(st.ops[-1].seconds for st in studies), studies)


@dataclass(frozen=True)
class Workload:
    run: object  # (seed, workdir) -> Pass
    smoke: object  # the same pass at tiny levels
    passes: int = 1  # fewest timed passes in a run; the run reports their median


WORKLOADS = {
    # Two passes: one 35 s pass drifted with the load of a shared host by
    # about 10 % (quartile spread over ten runs); the median of two halves
    # the weight of a slow spell.
    "perturbed_k1": Workload(
        perturbed_k1, partial(perturbed_k1, levels=(2, 3), windows={}), passes=2
    ),
    "symmetric_sweep": Workload(
        symmetric_sweep, partial(symmetric_sweep, levels=(2, 3), windows={})
    ),
}
