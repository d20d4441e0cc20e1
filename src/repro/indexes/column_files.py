"""Column Files baseline (Section 8.1.3).

"Column files: Essentially a non uniform grid, uses the CDF of the data to
align/arrange its cell boundaries and sorts data within each cell based on
one of the attributes in the data, thus reducing the dimensionality of the
index by one. [...] Column files is similar to the approach [Flood] with
the difference that it does not assume that the query workload is known and
hence uses the data distribution to arrange and align the grid layout."

Structurally this is the same layout as :class:`SortedCellGridIndex` — a
quantile (CDF) aligned grid with one in-cell sorted attribute — applied to
*all* attributes of the dataset.  COAX differs from it by applying the same
layout only to the reduced set of predictor attributes of the inlier
records.  Keeping the baseline as its own registered class keeps benchmark
configurations explicit about which system they measure.

The vectorized read path is shared wholesale: single queries run through
the :mod:`repro.indexes.kernels` cell-scan kernels and ``batch_range_query``
executes a whole batch with one vectorized boundary bisection per axis,
one in-cell run search and one gathered post-filter pass — see
:class:`SortedCellGridIndex`, from which both are inherited unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.data.table import Table
from repro.indexes.grid_file import SortedCellGridIndex

__all__ = ["ColumnFilesIndex"]


class ColumnFilesIndex(SortedCellGridIndex):
    """CDF-aligned grid over all attributes with one in-cell sorted attribute."""

    def __init__(
        self,
        table: Table,
        *,
        cells_per_dim: int = 8,
        max_cells: Optional[int] = None,
        sort_dimension: Optional[str] = None,
        row_ids: Optional[np.ndarray] = None,
        dimensions: Optional[Sequence[str]] = None,
    ) -> None:
        # Column Files always indexes the full schema unless the caller
        # explicitly restricts it; the sorted attribute defaults to the first
        # schema column (the paper tunes it per experiment).
        dims = tuple(dimensions) if dimensions else tuple(table.schema)
        sort_dim = sort_dimension or dims[0]
        super().__init__(
            table,
            cells_per_dim=cells_per_dim,
            max_cells=max_cells,
            sort_dimension=sort_dim,
            row_ids=row_ids,
            dimensions=dims,
        )
