"""Timing and comparison infrastructure shared by every experiment driver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.queries import QueryWorkload
from repro.data.table import Table
from repro.indexes.base import MultidimensionalIndex
from repro.indexes.column_files import ColumnFilesIndex
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.rtree import RTreeIndex
from repro.indexes.uniform_grid import UniformGridIndex

__all__ = [
    "TimingResult",
    "IndexSpec",
    "ComparisonRow",
    "execute_workload",
    "time_workload",
    "time_batched_queries",
    "count_mismatches",
    "drive_insert_stream",
    "run_comparison",
    "default_index_specs",
]


def _query_batches(workload: QueryWorkload, batch_size: int) -> List[List]:
    """Split a workload into contiguous query batches of ``batch_size``."""
    queries = list(workload)
    return [queries[i : i + batch_size] for i in range(0, len(queries), batch_size)]


def execute_workload(
    index: MultidimensionalIndex,
    workload: QueryWorkload,
    *,
    batch_size: Optional[int] = None,
) -> int:
    """Run every query of ``workload`` against ``index``; return the total result count.

    With ``batch_size`` set the workload is executed through
    ``batch_range_query`` in batches of that size (the read path's batch
    kernels then share directory lookups, translation and delta scans
    across each batch) — including ``batch_size=1``, which exercises the
    batch machinery one query at a time; by default (``None``) queries run
    through ``range_query``.  Results are identical either way.  This is
    the unit of work the pytest-benchmark suites time; it is also handy
    for warm-up runs in examples.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be at least 1 (or None)")
    if batch_size is not None:
        return sum(
            len(result)
            for batch in _query_batches(workload, batch_size)
            for result in index.batch_range_query(batch)
        )
    total = 0
    for query in workload:
        total += len(index.range_query(query))
    return total


@dataclass(frozen=True)
class TimingResult:
    """Per-query latency statistics for one index over one workload."""

    n_queries: int
    total_seconds: float
    mean_ms: float
    median_ms: float
    p95_ms: float
    total_results: int

    @classmethod
    def from_samples(cls, per_query_seconds: Sequence[float], total_results: int) -> "TimingResult":
        """Aggregate raw per-query wall-clock samples."""
        samples = np.asarray(per_query_seconds, dtype=np.float64)
        if len(samples) == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0)
        return cls(
            n_queries=len(samples),
            total_seconds=float(samples.sum()),
            mean_ms=float(samples.mean() * 1e3),
            median_ms=float(np.median(samples) * 1e3),
            p95_ms=float(np.quantile(samples, 0.95) * 1e3),
            total_results=int(total_results),
        )


@dataclass(frozen=True)
class IndexSpec:
    """A named index configuration: how to build it from a table."""

    name: str
    build: Callable[[Table], MultidimensionalIndex]


@dataclass
class ComparisonRow:
    """One row of a comparison experiment: an index on one workload."""

    index_name: str
    dataset: str
    workload: str
    build_seconds: float
    timing: TimingResult
    directory_bytes: int
    data_bytes: int
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Flat dict representation used by the text-table reporter."""
        return {
            "index": self.index_name,
            "dataset": self.dataset,
            "workload": self.workload,
            "build_s": round(self.build_seconds, 3),
            "mean_ms": round(self.timing.mean_ms, 3),
            "median_ms": round(self.timing.median_ms, 3),
            "p95_ms": round(self.timing.p95_ms, 3),
            "results": self.timing.total_results,
            "dir_bytes": self.directory_bytes,
            **{key: round(value, 4) for key, value in self.extra.items()},
        }


def time_workload(
    index: MultidimensionalIndex,
    workload: QueryWorkload,
    *,
    batch_size: Optional[int] = None,
) -> TimingResult:
    """Run every query of ``workload`` against ``index`` and time each one.

    With ``batch_size`` set (any value >= 1), execution goes through
    ``batch_range_query`` in batches of that size and each query's latency
    sample is its batch's wall clock divided by the batch length (per-query
    attribution inside a batch is meaningless — the work is shared); mean
    and total are then exact, while median and p95 describe per-batch
    averages.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be at least 1 (or None)")
    samples: List[float] = []
    total_results = 0
    if batch_size is not None:
        for batch in _query_batches(workload, batch_size):
            start = time.perf_counter()
            batch_results = index.batch_range_query(batch)
            elapsed = time.perf_counter() - start
            samples.extend([elapsed / len(batch)] * len(batch))
            total_results += sum(len(result) for result in batch_results)
        return TimingResult.from_samples(samples, total_results)
    for query in workload:
        start = time.perf_counter()
        matches = index.range_query(query)
        samples.append(time.perf_counter() - start)
        total_results += len(matches)
    return TimingResult.from_samples(samples, total_results)


def time_batched_queries(
    index: MultidimensionalIndex,
    queries: Sequence,
    batch_size: int,
    repeats: int,
) -> "tuple[float, List[np.ndarray]]":
    """Best-of-``repeats`` wall clock plus results of batched execution.

    The timing core of the drift experiment driver: the whole workload
    runs through ``batch_range_query`` in batches of ``batch_size``,
    ``repeats`` times, and the minimum total wall clock is reported
    together with the (repeat-invariant) results so the caller can verify
    them against an oracle.
    """
    queries = list(queries)
    best = np.inf
    results: List[np.ndarray] = []
    for _ in range(max(repeats, 1)):
        run_results: List[np.ndarray] = []
        start = time.perf_counter()
        for begin in range(0, len(queries), batch_size):
            run_results.extend(
                index.batch_range_query(queries[begin : begin + batch_size])
            )
        best = min(best, time.perf_counter() - start)
        results = run_results
    return best, results


def count_mismatches(
    left: Sequence[np.ndarray], right: Sequence[np.ndarray]
) -> int:
    """Number of positionally aligned result pairs that differ.

    The oracle-verification primitive of the drift and layout drivers:
    both compare their result lists element-for-element through this one
    definition of equality.
    """
    return sum(
        0 if np.array_equal(a, b) else 1 for a, b in zip(left, right)
    )


def drive_insert_stream(
    index,
    batches: Sequence[Dict[str, np.ndarray]],
    *,
    compact_every: Optional[int] = None,
) -> Dict[str, float]:
    """Feed an insert stream (e.g. a drifting workload) into an index.

    The write-side counterpart of :func:`execute_workload`: every batch
    goes through ``insert_batch`` and, when ``compact_every`` is set, the
    index compacts after each that many batches (and once at the end of
    the stream) — the cadence at which adaptive model maintenance gets to
    act.  Works for anything with the COAX CRUD surface (``COAXIndex``,
    ``ShardedCOAX``).  Returns ``{"rows_inserted", "seconds",
    "compactions"}`` so drivers can report write throughput alongside
    their query numbers.
    """
    if compact_every is not None and compact_every < 1:
        raise ValueError("compact_every must be at least 1 (or None)")
    rows_inserted = 0
    compactions = 0
    start = time.perf_counter()
    for batch_no, batch in enumerate(batches, start=1):
        ids = index.insert_batch(batch)
        rows_inserted += len(ids)
        if compact_every is not None and batch_no % compact_every == 0:
            index.compact()
            compactions += 1
    if compact_every is not None and len(batches) % compact_every != 0:
        index.compact()
        compactions += 1
    return {
        "rows_inserted": float(rows_inserted),
        "seconds": time.perf_counter() - start,
        "compactions": float(compactions),
    }


def run_comparison(
    table: Table,
    workloads: Dict[str, QueryWorkload],
    specs: Sequence[IndexSpec],
    *,
    dataset_name: str = "dataset",
    verify_against: Optional[Table] = None,
    batch_size: Optional[int] = None,
) -> List[ComparisonRow]:
    """Build every index once and time it on every workload.

    With ``verify_against`` set (normally the same table), every index's
    result count is checked against the ground-truth full scan so a
    benchmark can never silently report fast-but-wrong numbers.
    ``batch_size`` switches execution to the batch read path (see
    :func:`time_workload`).
    """
    rows: List[ComparisonRow] = []
    ground_truth: Dict[str, int] = {}
    if verify_against is not None:
        for workload_name, workload in workloads.items():
            ground_truth[workload_name] = int(
                sum(len(verify_against.select(query)) for query in workload)
            )
    for spec in specs:
        start = time.perf_counter()
        index = spec.build(table)
        build_seconds = time.perf_counter() - start
        for workload_name, workload in workloads.items():
            index.stats.reset()
            timing = time_workload(index, workload, batch_size=batch_size)
            if verify_against is not None and timing.total_results != ground_truth[workload_name]:
                raise AssertionError(
                    f"{spec.name} returned {timing.total_results} results on "
                    f"{workload_name}, expected {ground_truth[workload_name]}"
                )
            # Work counters are the substrate-independent comparison metric:
            # wall-clock time in pure Python is dominated by interpreter
            # overhead, while rows/cells examined track what the paper's C
            # implementation would pay for.
            n_queries = max(timing.n_queries, 1)
            extra = {
                "rows_examined_per_q": index.stats.rows_examined / n_queries,
                "cells_visited_per_q": index.stats.cells_visited / n_queries,
            }
            rows.append(
                ComparisonRow(
                    index_name=spec.name,
                    dataset=dataset_name,
                    workload=workload_name,
                    build_seconds=build_seconds,
                    timing=timing,
                    directory_bytes=index.directory_bytes(),
                    data_bytes=index.data_bytes(),
                    extra=extra,
                )
            )
    return rows


def default_index_specs(
    *,
    coax_config: Optional[COAXConfig] = None,
    grid_cells_per_dim: int = 6,
    rtree_capacity: int = 10,
    column_files_cells: int = 8,
    include_full_scan: bool = True,
) -> List[IndexSpec]:
    """The competitor set of Figure 6: COAX, R-Tree, Full Grid, Full Scan.

    Column Files is included as well since Figures 7 and 8 need it; drivers
    that do not want a competitor simply filter the returned list.
    """
    config = coax_config or COAXConfig()
    specs = [
        IndexSpec("COAX", lambda table, c=config: COAXIndex(table, config=c)),
        IndexSpec("R-Tree", lambda table: RTreeIndex(table, node_capacity=rtree_capacity)),
        IndexSpec(
            "Full Grid",
            lambda table: UniformGridIndex(table, cells_per_dim=grid_cells_per_dim),
        ),
        IndexSpec(
            "Column Files",
            lambda table: ColumnFilesIndex(table, cells_per_dim=column_files_cells),
        ),
    ]
    if include_full_scan:
        specs.append(IndexSpec("Full Scan", lambda table: FullScanIndex(table)))
    return specs

