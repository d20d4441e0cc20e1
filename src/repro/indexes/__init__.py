"""Multidimensional index structures.

Implements the paper's index substrate (a quantile-boundary grid file with a
sorted dimension inside every cell, Section 6) and every baseline of the
evaluation (Section 8.1.3): the R-Tree, the uniform "full" grid, Column
Files and the full scan.  All indexes share the same interface
(:class:`repro.indexes.base.MultidimensionalIndex`): they are built over a
:class:`~repro.data.table.Table` (optionally restricted to a subset of row
ids), answer rectangle queries with exact original row ids, and report their
directory memory overhead separately from the data they cover.
"""

from repro.indexes.base import IndexBuildError, MultidimensionalIndex, QueryStats, register_index, create_index, available_indexes
from repro.indexes.kernels import (
    axis_cell_ranges,
    enumerate_cells,
    enumerate_cells_batch,
    gather_ranges,
)
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.sorted_array import SortedColumnIndex
from repro.indexes.uniform_grid import UniformGridIndex
from repro.indexes.grid_file import SortedCellGridIndex
from repro.indexes.column_files import ColumnFilesIndex
from repro.indexes.rtree import RTreeIndex
from repro.indexes.memory import MemoryReport, memory_report

__all__ = [
    "IndexBuildError",
    "MultidimensionalIndex",
    "QueryStats",
    "register_index",
    "create_index",
    "available_indexes",
    "axis_cell_ranges",
    "enumerate_cells",
    "enumerate_cells_batch",
    "gather_ranges",
    "FullScanIndex",
    "SortedColumnIndex",
    "UniformGridIndex",
    "SortedCellGridIndex",
    "ColumnFilesIndex",
    "RTreeIndex",
    "MemoryReport",
    "memory_report",
]
