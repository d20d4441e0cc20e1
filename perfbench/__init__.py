"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``run.py`` for the workloads, the metrics and the steadiness mode, and
``BENCHMARK.json`` for the bounds and why each workload exists.
"""
