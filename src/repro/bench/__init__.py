"""Benchmark harness.

Contains the timing/comparison infrastructure plus one driver module per
table or figure of the paper's evaluation (see DESIGN.md section 7 for the
experiment index).  Every driver is runnable through ``python -m repro.cli``
and through the pytest-benchmark suites in ``benchmarks/``.
"""

from repro.bench.harness import (
    ComparisonRow,
    IndexSpec,
    TimingResult,
    default_index_specs,
    execute_workload,
    run_comparison,
    time_workload,
)
from repro.bench.reporting import ExperimentResult, format_table
from repro.bench.export import export_json
from repro.bench.tuning import TuningResult, grid_search, tune_coax

__all__ = [
    "ComparisonRow",
    "IndexSpec",
    "TimingResult",
    "default_index_specs",
    "execute_workload",
    "run_comparison",
    "time_workload",
    "ExperimentResult",
    "format_table",
    "export_json",
    "TuningResult",
    "grid_search",
    "tune_coax",
]
