"""declab's benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload perturbed_k1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; declab is imported from its src/.  The run
sets up (a fresh interpreter, the declab import and a warm-up pass at tiny
levels, timed in subprocesses), runs timed passes of the workload until
--seconds have gone by and the workload's fewest passes are done, checks
every operation, and prints the metrics by name, the environment, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced and one traced pass whatever --seconds says, requires their
norms, rates and iterations to be identical to the last bit, and reports the
per-layer metrics of the traced pass; trace.overhead_s is the difference
between the two passes' wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 4
SETUP_SNIPPET = """
import sys, tempfile
from pathlib import Path
sys.path[:0] = [{root!r}, {src!r}]
from perfbench.workloads import WORKLOADS
with tempfile.TemporaryDirectory(dir={root!r}, prefix=".perfbench-") as d:
    WORKLOADS[{workload!r}].smoke({seed}, Path(d))
"""


def _import_declab():
    import declab

    if not Path(declab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"declab imported from {declab.__file__}, not from {SRC}")


def time_setup(workload: str, seed: int, samples: int) -> list[float]:
    """Wall times of fresh interpreters that import declab and run the
    warm-up pass, one subprocess per sample."""
    code = SETUP_SNIPPET.format(root=str(ROOT), src=str(SRC), workload=workload, seed=seed)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_declab()
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, check

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # Half the set-up samples before the passes and half after, so that a
    # slow spell of a shared host does not weigh on all of them.
    setup = time_setup(args.workload, args.seed, SETUP_SAMPLES // 2)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        workload.smoke(args.seed, workdir)  # the same warm-up, in this process

        passes, peak_rss_mb = [], None
        if args.trace:
            passes.append(workload.run(args.seed, workdir))
            check(passes[-1])
            with Tracer() as tracer:
                passes.append(workload.run(args.seed, workdir))
            check(passes[-1])
        else:
            start = time.perf_counter()
            while len(passes) < workload.passes or time.perf_counter() - start < args.seconds:
                passes.append(workload.run(args.seed, workdir))
                if peak_rss_mb is None:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                check(passes[-1])
    setup += time_setup(args.workload, args.seed, SETUP_SAMPLES - len(setup))

    if args.trace:
        untraced, traced = passes
        if traced.outputs != untraced.outputs:
            for op in traced.ops:
                op.fail("traced pass outputs differ from the untraced pass")
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.error is not None]
    if args.trace:
        m = tracer.metrics()
        m["trace.wall_s"] = traced.wall_s
        m["trace.untraced_wall_s"] = untraced.wall_s
        m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        m["trace.accounted_frac"] = m["trace.self_s"] / traced.wall_s
    else:
        m = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "finest_level_s": statistics.median(p.finest_s for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (len(ops) - len(failed)) / len(ops),
        }
    for op in failed:
        print(f"FAILED {op.name}: {op.error}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {e["name"]: {"value": m[e["name"]], "unit": e["unit"]} for e in listed}
    for name, v in metrics.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"env": environment(), "passes": len(passes), "ops": len(ops)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # No more BLAS/OpenMP threads than usable cores; set before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.exit(main())
