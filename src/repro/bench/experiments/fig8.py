"""Figure 8 — runtime versus memory-overhead trade-off.

The paper sweeps each index's main size knob (cell counts for the grids,
node capacity for the R-Tree) and plots mean range-query runtime against the
index directory size, for the Airline and OSM datasets.  The COAX series is
reported as primary, outlier and total, like the figure's three series.
The "sweet spot" behaviour — runtime first drops then flattens or rises as
the directory grows — is the shape to compare.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.experiments.datasets import airline_table, osm_table, standard_workloads
from repro.bench.harness import time_workload
from repro.bench.reporting import ExperimentResult
from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.queries import QueryWorkload
from repro.data.table import Table
from repro.indexes.column_files import ColumnFilesIndex
from repro.indexes.rtree import RTreeIndex

__all__ = ["run"]

#: Cell-count sweep for the grid-based structures.
DEFAULT_CELL_SWEEP: Sequence[int] = (2, 4, 8, 16)
#: Node-capacity sweep for the R-Tree (paper: best between 8 and 12).
DEFAULT_CAPACITY_SWEEP: Sequence[int] = (4, 8, 12, 24)


def _coax_rows(
    dataset: str,
    table: Table,
    workload: QueryWorkload,
    cell_sweep: Sequence[int],
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for cells in cell_sweep:
        config = COAXConfig(primary_cells_per_dim=cells)
        index = COAXIndex(table, config=config)
        timing = time_workload(index, workload)
        breakdown = index.memory_breakdown()
        rows.append(
            {
                "index": "COAX (total)",
                "dataset": dataset,
                "knob": f"cells={cells}",
                "mean_ms": round(timing.mean_ms, 3),
                "dir_bytes": index.directory_bytes(),
                "primary_bytes": breakdown["primary"],
                "outlier_bytes": breakdown["outlier"],
                "model_bytes": breakdown["models"],
            }
        )
    return rows


def _column_files_rows(
    dataset: str,
    table: Table,
    workload: QueryWorkload,
    cell_sweep: Sequence[int],
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for cells in cell_sweep:
        index = ColumnFilesIndex(table, cells_per_dim=cells)
        timing = time_workload(index, workload)
        rows.append(
            {
                "index": "Column Files",
                "dataset": dataset,
                "knob": f"cells={cells}",
                "mean_ms": round(timing.mean_ms, 3),
                "dir_bytes": index.directory_bytes(),
            }
        )
    return rows


def _rtree_rows(
    dataset: str,
    table: Table,
    workload: QueryWorkload,
    capacity_sweep: Sequence[int],
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for capacity in capacity_sweep:
        index = RTreeIndex(table, node_capacity=capacity)
        timing = time_workload(index, workload)
        rows.append(
            {
                "index": "R-Tree",
                "dataset": dataset,
                "knob": f"capacity={capacity}",
                "mean_ms": round(timing.mean_ms, 3),
                "dir_bytes": index.directory_bytes(),
            }
        )
    return rows


def _dataset_rows(
    dataset: str,
    table: Table,
    *,
    n_queries: int,
    seed: int,
    cell_sweep: Sequence[int],
    capacity_sweep: Sequence[int],
) -> List[Dict[str, object]]:
    workload = standard_workloads(table, n_queries=n_queries, seed=seed)["range"]
    rows: List[Dict[str, object]] = []
    rows.extend(_coax_rows(dataset, table, workload, cell_sweep))
    rows.extend(_column_files_rows(dataset, table, workload, cell_sweep))
    rows.extend(_rtree_rows(dataset, table, workload, capacity_sweep))
    return rows


def run(
    n_rows: int = 20_000,
    n_queries: int = 20,
    seed: int = 3,
    cell_sweep: Sequence[int] = DEFAULT_CELL_SWEEP,
    capacity_sweep: Sequence[int] = DEFAULT_CAPACITY_SWEEP,
) -> ExperimentResult:
    """Reproduce the Figure 8 runtime/memory trade-off sweep."""
    rows: List[Dict[str, object]] = []
    rows.extend(
        _dataset_rows(
            "Airline",
            airline_table(n_rows),
            n_queries=n_queries,
            seed=seed,
            cell_sweep=cell_sweep,
            capacity_sweep=capacity_sweep,
        )
    )
    rows.extend(
        _dataset_rows(
            "OSM",
            osm_table(n_rows),
            n_queries=n_queries,
            seed=seed,
            cell_sweep=cell_sweep,
            capacity_sweep=capacity_sweep,
        )
    )
    return ExperimentResult(
        experiment="fig8",
        description="Runtime vs memory-overhead trade-off (paper Figure 8)",
        rows=rows,
        notes=[
            "paper shape: COAX reaches its best runtime with a directory orders of "
            "magnitude smaller than the R-Tree; grids show a sweet spot as cells grow",
        ],
    )
