"""Sorted-column index.

A one-dimensional clustered index: rows are kept sorted by one attribute and
a range query binary-searches the sorted attribute, then filters the scanned
run against the remaining constraints.  This is the degenerate (0 grid
dimensions) case of the paper's index layout — for a dataset where all
attributes but one are predicted, COAX's primary index reduces to exactly
this structure (Section 6: "for a dataset with n dimensions and m predicted
attributes, we only need an index with n - m - 1 dimensions").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.data.predicates import Rectangle
from repro.data.table import Table
from repro.indexes.base import IndexBuildError, MultidimensionalIndex, register_index

__all__ = ["SortedColumnIndex"]


@register_index
class SortedColumnIndex(MultidimensionalIndex):
    """Rows sorted by one attribute, scanned between two binary searches."""

    name = "sorted_column"

    def __init__(
        self,
        table: Table,
        *,
        sort_dimension: Optional[str] = None,
        row_ids: Optional[np.ndarray] = None,
        dimensions: Optional[Sequence[str]] = None,
    ) -> None:
        dimensions = self._checked_dimensions(table, dimensions)
        self._sort_dimension = sort_dimension or dimensions[0]
        if self._sort_dimension not in table.schema:
            raise IndexBuildError(f"sort dimension {self._sort_dimension!r} not in schema")
        # The rows are stored physically sorted: the base class gathers
        # every column once, straight into sort-key order, so the sort
        # column itself is the searched key array.
        ids, keys = self._key_columns(table, row_ids, (self._sort_dimension,))
        order = np.argsort(keys[self._sort_dimension], kind="stable")
        super().__init__(table, row_ids=ids[order], dimensions=dimensions)

    @property
    def sort_dimension(self) -> str:
        """Attribute the rows are sorted by."""
        return self._sort_dimension

    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        interval = query.interval(self._sort_dimension)
        keys = self._columns[self._sort_dimension]
        start = int(np.searchsorted(keys, interval.low, side="left"))
        stop = int(np.searchsorted(keys, interval.high, side="right"))
        candidates = np.arange(start, stop, dtype=np.int64)
        matches = self._filter_candidates(candidates, query)
        self.stats.record(rows_examined=stop - start, rows_matched=len(matches))
        return matches

    def directory_bytes(self) -> int:
        """A clustered sorted layout needs no directory at all.

        The rows are stored physically sorted (the paper keeps records
        sorted inside contiguous pages), which is data layout, not index
        directory overhead.
        """
        return 0
