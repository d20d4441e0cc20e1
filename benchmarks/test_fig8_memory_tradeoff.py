"""Figure 8 — runtime versus memory-overhead trade-off.

Sweeps each structure's main size knob (grid cells for COAX and Column
Files, node capacity for the R-Tree) on the Airline and OSM data, timing the
range workload at every setting and recording the directory size.  The
paper's qualitative claims asserted here: COAX's best setting needs a
directory orders of magnitude below the R-Tree's smallest one, and the
R-Tree's directory shrinks as node capacity grows (the tuning behaviour
behind the figure).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import execute_workload
from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.table import Table
from repro.indexes.column_files import ColumnFilesIndex
from repro.indexes.rtree import RTreeIndex

CELL_SWEEP = (2, 4, 8, 16)
CAPACITY_SWEEP = (4, 8, 12, 24)
DATASETS = ("Airline", "OSM")


def _table_for(dataset: str, airline_table: Table, osm_table: Table) -> Table:
    return airline_table if dataset == "Airline" else osm_table


def _workload_for(dataset, airline_range_workload, osm_range_workload):
    return airline_range_workload if dataset == "Airline" else osm_range_workload


@pytest.mark.parametrize("cells", CELL_SWEEP)
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig8_coax_sweep(
    benchmark, dataset, cells, airline_table, osm_table, airline_range_workload, osm_range_workload
):
    table = _table_for(dataset, airline_table, osm_table)
    workload = _workload_for(dataset, airline_range_workload, osm_range_workload)
    config = COAXConfig(primary_cells_per_dim=cells)
    index = COAXIndex(table, config=config)
    benchmark(execute_workload, index, workload)
    breakdown = index.memory_breakdown()
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "index": "COAX (total)",
            "knob": f"cells={cells}",
            "dir_bytes": index.directory_bytes(),
            "primary_bytes": breakdown["primary"],
            "outlier_bytes": breakdown["outlier"],
        }
    )


@pytest.mark.parametrize("cells", CELL_SWEEP)
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig8_column_files_sweep(
    benchmark, dataset, cells, airline_table, osm_table, airline_range_workload, osm_range_workload
):
    table = _table_for(dataset, airline_table, osm_table)
    workload = _workload_for(dataset, airline_range_workload, osm_range_workload)
    index = ColumnFilesIndex(table, cells_per_dim=cells, max_cells=4 * table.n_rows)
    benchmark(execute_workload, index, workload)
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "index": "Column Files",
            "knob": f"cells={cells}",
            "dir_bytes": index.directory_bytes(),
        }
    )


@pytest.mark.parametrize("capacity", CAPACITY_SWEEP)
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig8_rtree_sweep(
    benchmark, dataset, capacity, airline_table, osm_table, airline_range_workload, osm_range_workload
):
    table = _table_for(dataset, airline_table, osm_table)
    workload = _workload_for(dataset, airline_range_workload, osm_range_workload)
    index = RTreeIndex(table, node_capacity=capacity)
    benchmark(execute_workload, index, workload)
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "index": "R-Tree",
            "knob": f"capacity={capacity}",
            "dir_bytes": index.directory_bytes(),
        }
    )


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig8_coax_memory_orders_of_magnitude_below_rtree(dataset, airline_table, osm_table):
    table = _table_for(dataset, airline_table, osm_table)
    coax_best = min(
        COAXIndex(
            table,
            config=COAXConfig(primary_cells_per_dim=cells),
        ).directory_bytes()
        for cells in (2, 4, 8)
    )
    rtree_smallest = min(
        RTreeIndex(table, node_capacity=capacity).directory_bytes() for capacity in CAPACITY_SWEEP
    )
    assert rtree_smallest > 50 * coax_best


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig8_rtree_directory_shrinks_with_capacity(dataset, airline_table, osm_table):
    table = _table_for(dataset, airline_table, osm_table)
    sizes = [RTreeIndex(table, node_capacity=c).directory_bytes() for c in CAPACITY_SWEEP]
    assert sizes == sorted(sizes, reverse=True)
