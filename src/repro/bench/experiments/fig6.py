"""Figure 6 — query runtime on Airline and OSM, range and point queries.

The paper compares COAX (with its primary and outlier components called out
separately), the R-Tree, the Full Grid and the Full Scan on both datasets
and both workload kinds, on a log-scale runtime axis.  This driver runs the
same competitor set and additionally reports the COAX primary/outlier split
per query so the stacked bars of the figure can be reconstructed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


from repro.bench.experiments.datasets import airline_table, osm_table, standard_workloads
from repro.bench.harness import default_index_specs, run_comparison
from repro.bench.reporting import ExperimentResult
from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.queries import QueryWorkload
from repro.data.table import Table
from repro.indexes.grid_file import SortedCellGridIndex

__all__ = ["run", "coax_component_timing"]


def coax_component_timing(
    index: COAXIndex, workload: QueryWorkload
) -> Dict[str, float]:
    """Mean per-query time split into COAX's primary and outlier components.

    Each query is planned as ``range_query`` plans it (a batch of one), and
    the sub-index calls ``range_query`` then makes are timed: the grids'
    ``batch_flat_from_bounds`` on the planned bounds (a non-grid outlier
    index takes its rectangle batch entry point).
    """
    primary_seconds = 0.0
    outlier_seconds = 0.0
    outlier = index.outlier_index
    for query in workload:
        plan = index._plan_batch([query])
        if plan is None:
            continue
        _, bounds, translated, use_primary, use_outlier, _ = plan
        if use_primary[0]:
            start = time.perf_counter()
            index.primary_index.batch_flat_from_bounds(translated, 1, use_primary, 1)
            primary_seconds += time.perf_counter() - start
        if use_outlier[0]:
            start = time.perf_counter()
            if isinstance(outlier, SortedCellGridIndex):
                outlier.batch_flat_from_bounds(bounds, 1, use_outlier, 1)
            else:
                outlier.batch_range_query_flat([query])
            outlier_seconds += time.perf_counter() - start
    n = max(len(workload), 1)
    return {
        "coax_primary_ms": primary_seconds / n * 1e3,
        "coax_outlier_ms": outlier_seconds / n * 1e3,
    }


def _dataset_rows(
    dataset_name: str,
    table: Table,
    *,
    n_queries: int,
    seed: int,
    coax_config: Optional[COAXConfig],
) -> List[Dict[str, object]]:
    workloads = standard_workloads(table, n_queries=n_queries, seed=seed)
    specs = default_index_specs(coax_config=coax_config)
    comparison = run_comparison(
        table, workloads, specs, dataset_name=dataset_name, verify_against=table
    )
    rows = [row.as_dict() for row in comparison]

    # Add the COAX primary/outlier split (the two stacked series of Figure 6).
    coax = COAXIndex(table, config=coax_config or COAXConfig())
    for workload_name, workload in workloads.items():
        split = coax_component_timing(coax, workload)
        rows.append(
            {
                "index": "COAX (components)",
                "dataset": dataset_name,
                "workload": workload_name,
                "mean_ms": round(split["coax_primary_ms"] + split["coax_outlier_ms"], 3),
                "coax_primary_ms": round(split["coax_primary_ms"], 3),
                "coax_outlier_ms": round(split["coax_outlier_ms"], 3),
            }
        )
    return rows


def run(
    n_rows: int = 30_000,
    n_queries: int = 30,
    seed: int = 1,
    coax_config: Optional[COAXConfig] = None,
) -> ExperimentResult:
    """Reproduce the Figure 6 runtime comparison."""
    rows: List[Dict[str, object]] = []
    rows.extend(
        _dataset_rows("Airline", airline_table(n_rows), n_queries=n_queries, seed=seed,
                      coax_config=coax_config)
    )
    rows.extend(
        _dataset_rows("OSM", osm_table(n_rows), n_queries=n_queries, seed=seed,
                      coax_config=coax_config)
    )
    return ExperimentResult(
        experiment="fig6",
        description="Query runtime, range and point queries (paper Figure 6)",
        rows=rows,
        notes=[
            "paper shape: COAX < R-Tree and Full Grid; Full Scan slowest by orders of magnitude",
            "absolute times differ from the paper (pure-Python substrate); compare ratios",
        ],
    )
