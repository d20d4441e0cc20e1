"""Uniform ("full") grid baseline.

Section 8.1.3: "Uniform grid: or equivalently the full grid, is a hash
structure that breaks down each attribute into uniformly sized grid cells
between their minimum and maximum values.  The address for each cell is
stored independently and no adjacent cells are shared/merged explicitly.
In memory, addresses for all cells are sorted using the original ordering
of attributes in the dataset.  Furthermore, each cell stores points in a
contiguous block of virtual memory in a row store format."

The implementation stores the rows clustered by cell (CSR layout: every
column and the covered row ids in cell order plus per-cell offsets), so
cell ``c`` is the contiguous position range ``offsets[c] .. offsets[c +
1]``.  The clustering is data layout, not directory overhead; the
directory is the per-cell address table plus the axis boundaries, which is
what grows exponentially with the number of dimensions and limits how many
cells the full grid can afford (Section 8.2.2).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.predicates import Rectangle
from repro.data.table import Table
from repro.indexes.base import IndexBuildError, MultidimensionalIndex
from repro.indexes.kernels import (
    SMALL_QUERY_CELLS,
    axis_filter_needed,
    enumerate_cells,
    gather_ranges,
    observed_axis_spans,
    row_major_strides,
)
from repro.stats.quantiles import uniform_boundaries

__all__ = ["UniformGridIndex"]

#: Hard cap on the total number of cells so a mis-tuned configuration cannot
#: exhaust memory; the paper applies the same kind of cap by refusing grids
#: whose directory exceeds the data size.
MAX_TOTAL_CELLS = 4_000_000


def _capped_cells_per_dim(requested: int, n_dims: int, budget_cells: int) -> int:
    """Largest per-dimension cell count not exceeding the total cell budget."""
    if n_dims <= 0:
        return max(1, int(requested))
    capped = int(requested)
    while capped > 1 and capped**n_dims > budget_cells:
        capped -= 1
    return max(1, capped)


class UniformGridIndex(MultidimensionalIndex):
    """Equi-width grid over every indexed dimension."""

    def __init__(
        self,
        table: Table,
        *,
        cells_per_dim: int = 8,
        max_cells: Optional[int] = None,
        row_ids: Optional[np.ndarray] = None,
        dimensions: Optional[Sequence[str]] = None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        dimensions = self._checked_dimensions(table, dimensions)
        if cells_per_dim < 1:
            raise IndexBuildError("cells_per_dim must be at least 1")
        # Cluster the rows per cell from their key columns alone; the base
        # class then gathers every column once, straight into cell order.
        positions, keys = self._key_columns(table, row_ids, dimensions)
        n_dims = len(dimensions)
        # The paper limits every index to a directory no larger than the data
        # it covers (Section 8.2.1); by default the cell budget is therefore
        # one cell per indexed record, which caps the per-dimension cell
        # count for high-dimensional tables.
        budget = max_cells if max_cells is not None else max(16, len(positions))
        budget = min(budget, MAX_TOTAL_CELLS)
        self._cells_per_dim = _capped_cells_per_dim(cells_per_dim, n_dims, budget)
        self._shape: Tuple[int, ...] = tuple([self._cells_per_dim] * n_dims)
        self._cell_strides: Tuple[int, ...] = row_major_strides(self._shape)
        self._boundaries: List[np.ndarray] = [
            uniform_boundaries(keys[dim], self._cells_per_dim) for dim in dimensions
        ]
        flat = (
            np.ravel_multi_index(
                [self._cell_of(keys[dim], axis) for axis, dim in enumerate(dimensions)],
                self._shape,
            )
            if self._shape
            else np.zeros(len(positions), dtype=np.int64)
        )
        order = np.argsort(flat, kind="stable")
        super().__init__(
            table,
            row_ids=positions[order],
            dimensions=dimensions,
            ids=None if ids is None else np.asarray(ids, dtype=np.int64)[order],
        )
        # Observed [min, max] per axis: the edge cells are clipped
        # catch-alls, so filter pruning needs the real data span to prove a
        # query interval covers everything a visited edge cell can hold.
        self._axis_lows, self._axis_highs = observed_axis_spans(
            self._columns, self._dimensions
        )
        counts = np.bincount(flat, minlength=self.n_cells)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    def _cell_of(self, values: np.ndarray, axis: int) -> np.ndarray:
        boundaries = self._boundaries[axis]
        return np.clip(
            np.searchsorted(boundaries, values, side="right") - 1, 0, self._cells_per_dim - 1
        )

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _cell_range(self, axis: int, low: float, high: float) -> Tuple[int, int]:
        """Inclusive range of cell indices along ``axis`` overlapping [low, high]."""
        boundaries = self._boundaries[axis]
        lo_cell = int(np.clip(np.searchsorted(boundaries, low, side="right") - 1, 0, self._cells_per_dim - 1))
        hi_cell = int(np.clip(np.searchsorted(boundaries, high, side="right") - 1, 0, self._cells_per_dim - 1))
        return lo_cell, hi_cell

    def _axis_filter_needed(self, axis: int, low: float, high: float, lo_cell: int, hi_cell: int) -> bool:
        """Scalar filter-pruning check for one axis
        (see :func:`repro.indexes.kernels.axis_filter_needed`)."""
        return axis_filter_needed(
            low,
            high,
            lo_cell,
            hi_cell,
            self._boundaries[axis],
            self._cells_per_dim,
            self._axis_lows[axis],
            self._axis_highs[axis],
        )

    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        lo_cells: List[int] = []
        hi_cells: List[int] = []
        n_cells = 1
        for axis, dim in enumerate(self._dimensions):
            interval = query.interval(dim)
            lo_cell, hi_cell = self._cell_range(axis, interval.low, interval.high)
            lo_cells.append(lo_cell)
            hi_cells.append(hi_cell)
            n_cells *= hi_cell - lo_cell + 1
        prunable: List[str] = []
        if n_cells <= SMALL_QUERY_CELLS:
            # Scalar path: slice the few cell runs directly — lower constant
            # cost than the gather kernel for point-like queries, where the
            # pruning analysis would not pay for itself either.
            offsets = self._offsets
            chunks = []
            for combo in itertools.product(
                *(range(lo, hi + 1) for lo, hi in zip(lo_cells, hi_cells))
            ):
                flat = sum(index * stride for index, stride in zip(combo, self._cell_strides))
                start, stop = offsets[flat], offsets[flat + 1]
                if stop > start:
                    chunks.append(np.arange(start, stop, dtype=np.int64))
            candidates = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            )
        else:
            # Vectorized enumeration of the candidate cell hyper-rectangle
            # plus one gather of every cell's contiguous run — no per-cell
            # Python loop, however many cells the query overlaps.  Wide
            # queries are where filter pruning pays: skip the post-filter on
            # axes whose interval covers every visited cell.
            cells = enumerate_cells(lo_cells, hi_cells, self._shape)
            candidates, _ = gather_ranges(self._offsets[cells], self._offsets[cells + 1])
            for axis, dim in enumerate(self._dimensions):
                if not query.constrains(dim):
                    continue
                interval = query.interval(dim)
                if not self._axis_filter_needed(
                    axis, interval.low, interval.high, lo_cells[axis], hi_cells[axis]
                ):
                    prunable.append(dim)
        # The exact filter also drops tombstoned rows, so deletes stay
        # visible even when filter pruning proves every axis redundant.
        matches = self._filter_candidates(candidates, query, prunable)
        self.stats.record(
            rows_examined=len(candidates),
            rows_matched=len(matches),
            cells_visited=n_cells,
        )
        return matches

    # ------------------------------------------------------------------
    # Memory and layout introspection
    # ------------------------------------------------------------------
    def directory_bytes(self) -> int:
        """Cell address table plus axis boundaries (the exponential part)."""
        boundary_bytes = int(sum(b.nbytes for b in self._boundaries))
        return int(self._offsets.nbytes) + boundary_bytes

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        return int(np.prod(self._shape)) if self._shape else 1

    def cell_sizes(self) -> np.ndarray:
        """Number of records per cell (the "page length" histogram of Figure 4a)."""
        return np.diff(self._offsets)
