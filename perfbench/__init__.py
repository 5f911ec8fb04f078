"""declab's benchmark: workloads, correctness gates and outside-in tracing.

Run it with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the root of the repository; the
workloads and metrics are listed in BENCHMARK.json.
"""
