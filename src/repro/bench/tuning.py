"""Per-index configuration tuning (Section 8.2.1 of the paper).

"In this experiment we measure and compare the execution time for all
indexes.  We use the configuration that performs best for each index.  This
configuration consists of chunk size for the full grid, chunk size and sort
dimension for the column files and COAX, and the node capacity (non-leaf and
leaf capacity) of the R-Tree."

This module implements that tuning step as a small, honest grid search: for
each candidate configuration the index is built, a (sub)workload is timed,
results are verified against ground truth, and the fastest configuration
wins.  :func:`tune_coax` wraps it for COAX's primary cell count.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.harness import execute_workload
from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.queries import QueryWorkload
from repro.data.table import Table
from repro.indexes.base import IndexBuildError, MultidimensionalIndex

__all__ = [
    "TuningTrial",
    "TuningResult",
    "grid_search",
    "tune_coax",
]

#: Builds an index from a table and one parameter assignment.
IndexFactory = Callable[[Table, Dict[str, object]], MultidimensionalIndex]


@dataclass(frozen=True)
class TuningTrial:
    """Outcome of one configuration in the search."""

    params: Dict[str, object]
    build_seconds: float
    mean_query_ms: float
    directory_bytes: int
    total_results: int
    failed: bool = False
    failure_reason: str = ""


@dataclass
class TuningResult:
    """Full outcome of a tuning run."""

    trials: List[TuningTrial] = field(default_factory=list)

    @property
    def successful_trials(self) -> List[TuningTrial]:
        """Trials whose configuration could be built and verified."""
        return [trial for trial in self.trials if not trial.failed]

    @property
    def best(self) -> TuningTrial:
        """Fastest successful trial (ties broken by smaller directory)."""
        candidates = self.successful_trials
        if not candidates:
            raise ValueError("no configuration could be built for this tuning run")
        return min(candidates, key=lambda t: (t.mean_query_ms, t.directory_bytes))

    @property
    def best_params(self) -> Dict[str, object]:
        """Parameters of the best trial."""
        return dict(self.best.params)


def grid_search(
    table: Table,
    workload: QueryWorkload,
    factory: IndexFactory,
    param_grid: Mapping[str, Sequence[object]],
    *,
    verify: bool = True,
) -> TuningResult:
    """Exhaustive search over the Cartesian product of ``param_grid``.

    Every configuration is built once and timed over the full workload.
    With ``verify`` (default) the result count of every configuration is
    checked against the ground-truth full scan, so a configuration can never
    win by returning wrong answers.  Configurations that fail to build (e.g.
    an impossible cell count) are recorded as failed trials rather than
    aborting the search.
    """
    if not param_grid:
        raise ValueError("param_grid must contain at least one parameter")
    expected: Optional[int] = None
    if verify:
        expected = int(sum(len(table.select(query)) for query in workload))

    names = list(param_grid)
    result = TuningResult()
    for values in itertools.product(*(param_grid[name] for name in names)):
        params = dict(zip(names, values))
        try:
            start = time.perf_counter()
            index = factory(table, params)
            build_seconds = time.perf_counter() - start
        except (IndexBuildError, ValueError) as exc:
            result.trials.append(
                TuningTrial(
                    params=params,
                    build_seconds=0.0,
                    mean_query_ms=float("inf"),
                    directory_bytes=0,
                    total_results=0,
                    failed=True,
                    failure_reason=str(exc),
                )
            )
            continue
        start = time.perf_counter()
        total_results = execute_workload(index, workload)
        elapsed = time.perf_counter() - start
        failed = expected is not None and total_results != expected
        result.trials.append(
            TuningTrial(
                params=params,
                build_seconds=build_seconds,
                mean_query_ms=elapsed / max(len(workload), 1) * 1e3,
                directory_bytes=index.directory_bytes(),
                total_results=total_results,
                failed=failed,
                failure_reason="wrong result count" if failed else "",
            )
        )
    return result


def tune_coax(
    table: Table,
    workload: QueryWorkload,
    *,
    cells_candidates: Sequence[int] = (2, 4, 8, 16),
    outlier_candidates: Sequence[str] = ("sorted_cell_grid",),
    base_config: Optional[COAXConfig] = None,
) -> Tuple[COAXConfig, TuningResult]:
    """Tune COAX's primary cell count (and optionally the outlier structure)."""
    base = base_config or COAXConfig()

    def factory(data: Table, params: Dict[str, object]) -> MultidimensionalIndex:
        config = COAXConfig(
            detection=base.detection,
            primary_cells_per_dim=int(params["cells_per_dim"]),
            primary_sort_dimension=base.primary_sort_dimension,
            outlier_index=str(params["outlier_index"]),
            outlier_node_capacity=base.outlier_node_capacity,
            max_groups=base.max_groups,
            min_primary_fraction=base.min_primary_fraction,
        )
        return COAXIndex(data, config=config)

    result = grid_search(
        table,
        workload,
        factory,
        {"cells_per_dim": list(cells_candidates), "outlier_index": list(outlier_candidates)},
    )
    best = result.best_params
    best_config = COAXConfig(
        detection=base.detection,
        primary_cells_per_dim=int(best["cells_per_dim"]),
        primary_sort_dimension=base.primary_sort_dimension,
        outlier_index=str(best["outlier_index"]),
        outlier_node_capacity=base.outlier_node_capacity,
        max_groups=base.max_groups,
        min_primary_fraction=base.min_primary_fraction,
    )
    return best_config, result
