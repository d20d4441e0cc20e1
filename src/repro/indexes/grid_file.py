"""Quantile-boundary grid file with a sorted dimension per cell (Section 6).

This is the index layout COAX builds its primary index on: a Grid File
variant where

* cell boundaries along every grid dimension are chosen from quantiles of
  the data (equal-depth, not equal-width), using the same number of grid
  lines for every attribute;
* cell addresses are laid out in the original attribute order;
* each cell stores its records contiguously, sorted by one designated
  attribute, so that attribute needs no grid lines at all — lookups on it
  use binary search inside the cell ("Sorting the rows inside pages means
  that we can reduce the dimensionality of the grid by one").

The layout is physical, not modelled: every column, the covered row ids
and the tombstone bitmap are stored in (cell, sort-key) order, so a
position *is* a page offset and cell ``c`` occupies ``offsets[c] ..
offsets[c + 1]``.  The sort column itself is the in-cell sorted key
array.  One more per-row array, ``rank_keys = cell * (len(distinct) + 1) +
rank(sort key)`` over the sorted distinct sort-key values ``distinct``,
is non-decreasing across the whole layout, so the runs of every (query,
cell) pair of a batch come from two exact ``searchsorted`` calls (see
:func:`repro.indexes.kernels.rank_runs`).

The same structure doubles as the Column Files baseline (see
:mod:`repro.indexes.column_files`).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.executors import Aggregate, AggregatePartial, point_distances, select_topk
from repro.data.predicates import Rectangle, batch_bounds, batch_live
from repro.data.table import Table
from repro.indexes.base import IndexBuildError, MultidimensionalIndex, register_index
from repro.indexes.kernels import (
    SMALL_QUERY_CELLS,
    axis_cell_ranges,
    axis_filter_needed,
    cell_rank_keys,
    enumerate_cells,
    enumerate_cells_batch,
    gather_ranges,
    live_candidate_mask,
    observed_axis_spans,
    prefix_sums,
    rank_runs,
    row_major_strides,
    segment_reduce,
    segment_sum,
)
from repro.indexes.uniform_grid import MAX_TOTAL_CELLS, _capped_cells_per_dim
from repro.stats.quantiles import quantile_boundaries

__all__ = ["SortedCellGridIndex"]


@register_index
class SortedCellGridIndex(MultidimensionalIndex):
    """Grid file with quantile boundaries and an in-cell sorted dimension."""

    name = "sorted_cell_grid"

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
        dimensions = self._checked_dimensions(table, dimensions)
        if cells_per_dim < 1:
            raise IndexBuildError("cells_per_dim must be at least 1")
        self._sort_dimension = sort_dimension or dimensions[-1]
        if self._sort_dimension not in table.schema:
            raise IndexBuildError(f"sort dimension {self._sort_dimension!r} not in schema")
        # Grid lines cover every indexed dimension except the sorted one.
        self._grid_dimensions: Tuple[str, ...] = tuple(
            dim for dim in dimensions if dim != self._sort_dimension
        )
        # Lay the rows out from their key columns alone; the base class then
        # gathers every column once, straight into (cell, sort-key) order.
        ids, keys = self._key_columns(
            table, row_ids, (*self._grid_dimensions, self._sort_dimension)
        )
        n_grid_dims = len(self._grid_dimensions)
        # Same directory-size discipline as the uniform grid: by default the
        # total cell count may not exceed the number of indexed records.
        budget = max_cells if max_cells is not None else max(16, len(ids))
        budget = min(budget, MAX_TOTAL_CELLS)
        self._cells_per_dim = _capped_cells_per_dim(cells_per_dim, n_grid_dims, budget)
        self._shape: Tuple[int, ...] = tuple([self._cells_per_dim] * n_grid_dims)
        self._cell_strides: Tuple[int, ...] = row_major_strides(self._shape)
        self._boundaries: List[np.ndarray] = [
            quantile_boundaries(keys[dim], self._cells_per_dim)
            for dim in self._grid_dimensions
        ]
        order, cells, rank_keys, distinct = self._cluster_order(keys)
        super().__init__(table, row_ids=ids[order], dimensions=dimensions)
        self._compute_axis_spans()
        self._index_cells(cells, rank_keys, distinct)

    # ------------------------------------------------------------------
    # Structured restore (format v8)
    # ------------------------------------------------------------------
    @classmethod
    def _restore(
        cls,
        table: Table,
        *,
        row_ids: np.ndarray,
        columns: Dict[str, np.ndarray],
        dimensions: Sequence[str],
        sort_dimension: str,
        cells_per_dim: int,
        boundaries: Sequence[np.ndarray],
        axis_lows: Sequence[float],
        axis_highs: Sequence[float],
        offsets: np.ndarray,
        rank_keys: np.ndarray,
        distinct: np.ndarray,
    ) -> "SortedCellGridIndex":
        """Reattach a grid from persisted derived state — no rebuild.

        ``row_ids``, ``columns`` and ``rank_keys`` are in the saved
        (cell, sort-key) order; they, the quantile boundaries, the per-cell
        offsets and the distinct sort keys are adopted verbatim, so the
        restored grid is bit-identical to the saved one by construction and
        attaching costs O(metadata) plus mapping the arrays (nothing when
        they are memmaps).  Memmap-backed arrays stay mapped.
        """
        index = cls.__new__(cls)
        index._init_restored(
            table, row_ids=row_ids, columns=columns, dimensions=dimensions
        )
        index._sort_dimension = sort_dimension
        index._grid_dimensions = tuple(
            dim for dim in index._dimensions if dim != sort_dimension
        )
        index._cells_per_dim = int(cells_per_dim)
        index._shape = tuple([index._cells_per_dim] * len(index._grid_dimensions))
        index._cell_strides = row_major_strides(index._shape)
        index._boundaries = [np.asarray(b, dtype=np.float64) for b in boundaries]
        index._axis_lows = [float(v) for v in axis_lows]
        index._axis_highs = [float(v) for v in axis_highs]
        index._refresh_edges()
        # Plain-ndarray views, like the columns (see _init_restored).
        index._offsets = offsets.view(np.ndarray)
        index._rank_keys = rank_keys.view(np.ndarray)
        index._distinct = distinct.view(np.ndarray)
        index._agg_prefix = {}
        return index

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _cluster_order(
        self, keys: Dict[str, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(cell, sort-key) layout of rows with key columns ``keys``.

        Returns ``(order, cells, rank_keys, distinct)``: the permutation
        that clusters the rows per cell, sorted by the sort key inside each
        cell — exactly the paper's page layout — then every row's flat cell
        id (input order), the run-search keys in layout order and the
        sorted distinct sort keys (see
        :func:`repro.indexes.kernels.cell_rank_keys`).
        """
        cells = self._flat_cells(keys)
        # np.unique's inverse is each key's rank in ``distinct``.
        distinct, ranks = np.unique(keys[self._sort_dimension], return_inverse=True)
        rank_keys = cells * (len(distinct) + 1) + ranks
        # Equal run-search keys mean equal (cell, sort key), so their
        # stable sort is the (cell, sort-key) lexsort of the rows.
        order = np.argsort(rank_keys, kind="stable")
        return order, cells, rank_keys[order], distinct

    def _flat_cells(self, keys: Dict[str, np.ndarray]) -> np.ndarray:
        """Flat cell id of every row with key columns ``keys``."""
        if not self._grid_dimensions:
            return np.zeros(len(keys[self._sort_dimension]), dtype=np.int64)
        return np.ravel_multi_index(
            [self._cell_of(keys[dim], axis) for axis, dim in enumerate(self._grid_dimensions)],
            self._shape,
        ).astype(np.int64, copy=False)

    def _index_cells(
        self, cells: np.ndarray, rank_keys: np.ndarray, distinct: np.ndarray
    ) -> None:
        """Adopt the directory of freshly clustered rows: per-cell offsets
        from the rows' cell ids (any order), plus the run-search keys and
        distinct sort keys of :meth:`_cluster_order`.  Drops the aggregate
        prefix-sum cache, which is laid out over the positions."""
        self._agg_prefix: Dict[str, np.ndarray] = {}
        counts = np.bincount(cells, minlength=self.n_cells)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._rank_keys = rank_keys
        self._distinct = distinct

    def _cell_of(self, values: np.ndarray, axis: int) -> np.ndarray:
        boundaries = self._boundaries[axis]
        return np.clip(
            np.searchsorted(boundaries, values, side="right") - 1, 0, self._cells_per_dim - 1
        )

    def _compute_axis_spans(self) -> None:
        """Observed [min, max] per grid dimension, kept current by absorbs
        (see :func:`repro.indexes.kernels.observed_axis_spans`)."""
        self._axis_lows, self._axis_highs = observed_axis_spans(
            self._columns, self._grid_dimensions
        )
        self._refresh_edges()

    def _refresh_edges(self) -> None:
        """Value bounds of every cell run per grid axis, ``(n_axes,
        cells_per_dim + 1)``: cells ``lo..hi`` of an axis hold values in
        ``[edges[lo], edges[hi + 1]]``.  These are the boundaries with the
        clipped catch-all ends replaced by the observed axis span; the batch
        filter-pruning check reads them, so every change of boundaries or
        spans refreshes them."""
        edges = np.empty((len(self._boundaries), self._cells_per_dim + 1))
        for axis, boundaries in enumerate(self._boundaries):
            edges[axis] = boundaries
            edges[axis, 0] = self._axis_lows[axis]
            edges[axis, -1] = self._axis_highs[axis]
        self._edges = edges

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def absorb_rows(self, table: Table, new_row_ids: np.ndarray) -> None:
        """Merge new rows of ``table`` into the existing grid in place.

        This is the incremental half of COAX compaction: the quantile
        boundaries learned at build time are kept (no re-quantiling), the
        new rows are assigned to cells with the existing directory, ordered
        by (cell, sort key) once, and merged into the per-cell sorted runs
        with one binary search over the run-search keys.  The new sort keys
        are merged into the distinct-key array, and the existing rows' keys
        are re-ranked from their old ranks in one vectorized pass.  Sorting
        work is ``O(k log k + k log n)`` for ``k`` new rows; every per-row
        array (columns, row ids, run-search keys, tombstones) is then
        rewritten in one ``O(n + k)`` copy (``np.insert``), so the win over
        a rebuild is avoiding the full ``O((n + k) log (n + k))`` re-sort
        and the re-quantiling, not the linear copy.

        ``table`` must contain the previously covered rows under their old
        ids plus the new rows under ``new_row_ids``.
        """
        new_row_ids = np.asarray(new_row_ids, dtype=np.int64)
        if len(new_row_ids) == 0:
            self._table = table
            return
        if self.n_rows == 0:
            # The grid was built over no data, so its boundaries carry no
            # information; learn them from the first absorbed batch, which
            # is laid out exactly like a build.
            _, keys = self._key_columns(
                table, new_row_ids, (*self._grid_dimensions, self._sort_dimension)
            )
            self._boundaries = [
                quantile_boundaries(keys[dim], self._cells_per_dim)
                for dim in self._grid_dimensions
            ]
            order, cells, rank_keys, distinct = self._cluster_order(keys)
            self._append_rows(table, new_row_ids[order])
            self._compute_axis_spans()
            self._index_cells(cells, rank_keys, distinct)
            return
        new_columns = {name: table.column(name)[new_row_ids] for name in table.schema}
        for axis, dim in enumerate(self._grid_dimensions):
            new_values = new_columns[dim]
            self._axis_lows[axis] = min(self._axis_lows[axis], float(new_values.min()))
            self._axis_highs[axis] = max(self._axis_highs[axis], float(new_values.max()))
        self._refresh_edges()
        # Merge the new distinct keys into the sorted distinct array
        # (NaN, once and last, is equal to itself here).
        old_distinct = self._distinct
        new_keys = new_columns[self._sort_dimension]
        candidates = np.unique(new_keys)
        slots = old_distinct.searchsorted(candidates)
        found = old_distinct[np.minimum(slots, len(old_distinct) - 1)]
        known = (slots < len(old_distinct)) & (
            (found == candidates) | (np.isnan(found) & np.isnan(candidates))
        )
        slots = slots[~known]
        distinct = np.insert(old_distinct, slots, candidates[~known])
        # Re-rank the existing rows: same cell, and an old rank moves up by
        # the number of keys inserted at or before its slot.
        remap = np.arange(len(old_distinct)) + np.cumsum(
            np.bincount(slots, minlength=len(old_distinct) + 1)[: len(old_distinct)]
        )
        old_cells = self._rank_keys // (len(old_distinct) + 1)
        old_ranks = self._rank_keys - old_cells * (len(old_distinct) + 1)
        rank_keys = old_cells * (len(distinct) + 1) + remap[old_ranks]
        new_cells = self._flat_cells(new_columns)
        new_rank_keys = cell_rank_keys(new_cells, new_keys, distinct)
        # Equal run-search keys mean equal (cell, sort key): a stable sort
        # is the (cell, sort-key) lexsort, and inserting on the right of
        # equal keys puts new rows after the old ones, as a rebuild would.
        order = np.argsort(new_rank_keys, kind="stable")
        new_rank_keys = new_rank_keys[order]
        insert_at = rank_keys.searchsorted(new_rank_keys, side="right")
        self._insert_rows(
            table,
            new_row_ids[order],
            {name: column[order] for name, column in new_columns.items()},
            insert_at,
        )
        self._rank_keys = np.insert(rank_keys, insert_at, new_rank_keys)
        self._distinct = distinct
        self._agg_prefix = {}
        counts = np.bincount(new_cells, minlength=self.n_cells)
        self._offsets = self._offsets + np.concatenate([[0], np.cumsum(counts)])

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _cell_range(self, axis: int, low: float, high: float) -> Tuple[int, int]:
        boundaries = self._boundaries[axis]
        lo_cell = int(np.clip(np.searchsorted(boundaries, low, side="right") - 1, 0, self._cells_per_dim - 1))
        hi_cell = int(np.clip(np.searchsorted(boundaries, high, side="right") - 1, 0, self._cells_per_dim - 1))
        return lo_cell, hi_cell

    def _axis_filter_needed(self, axis: int, low: float, high: float, lo_cell: int, hi_cell: int) -> bool:
        """Scalar filter-pruning check for one grid axis
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

    def _pruned_filter_dims(
        self, query: Rectangle, lo_cells: Sequence[int], hi_cells: Sequence[int]
    ) -> List[str]:
        """Grid dimensions whose exact post-filter is provably redundant.

        The filter-pruning invariant (see :meth:`_axis_filter_needed`):
        when a query interval fully covers every visited cell along an
        axis, no candidate row can violate it, so its column gather is
        skipped.  Constraints on non-indexed attributes are never pruned.
        """
        pruned: List[str] = []
        for axis, dim in enumerate(self._grid_dimensions):
            if not query.constrains(dim):
                continue
            interval = query.interval(dim)
            if not self._axis_filter_needed(
                axis, interval.low, interval.high, int(lo_cells[axis]), int(hi_cells[axis])
            ):
                pruned.append(dim)
        return pruned

    def _axis_cell_spans(self, query: Rectangle) -> Tuple[List[int], List[int]]:
        """Inclusive per-axis cell ranges the query overlaps."""
        lo_cells: List[int] = []
        hi_cells: List[int] = []
        for axis, dim in enumerate(self._grid_dimensions):
            interval = query.interval(dim)
            lo_cell, hi_cell = self._cell_range(axis, interval.low, interval.high)
            lo_cells.append(lo_cell)
            hi_cells.append(hi_cell)
        return lo_cells, hi_cells

    #: Hybrid switch between the scalar per-cell path and the batched
    #: kernels (shared grid-family constant; results are identical on both
    #: sides).
    SMALL_QUERY_CELLS = SMALL_QUERY_CELLS

    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        sort_interval = query.interval(self._sort_dimension)
        lo_cells, hi_cells = self._axis_cell_spans(query)
        n_cells = 1
        for lo_cell, hi_cell in zip(lo_cells, hi_cells):
            n_cells *= hi_cell - lo_cell + 1
        skip_dims: List[str] = [self._sort_dimension]  # the run search is exact
        if n_cells <= self.SMALL_QUERY_CELLS:
            # Scalar path: enumerate the few cells with plain integer
            # stride math and scan each between two bounding binary
            # searches (Section 6) — lowest constant cost for point-like
            # queries.  Pruning analysis is not worth its overhead here.
            strides = self._cell_strides
            chunks: List[np.ndarray] = []
            rows_examined = 0
            offsets = self._offsets
            keys = self._columns[self._sort_dimension]
            for combo in itertools.product(
                *(
                    range(lo_cell, hi_cell + 1)
                    for lo_cell, hi_cell in zip(lo_cells, hi_cells)
                )
            ):
                flat = sum(index * stride for index, stride in zip(combo, strides))
                start, stop = int(offsets[flat]), int(offsets[flat + 1])
                if stop <= start:
                    continue
                cell_keys = keys[start:stop]
                first = start + int(np.searchsorted(cell_keys, sort_interval.low, side="left"))
                last = start + int(np.searchsorted(cell_keys, sort_interval.high, side="right"))
                if last > first:
                    chunks.append(np.arange(first, last, dtype=np.int64))
                    rows_examined += last - first
            candidates = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            )
        else:
            cells = enumerate_cells(lo_cells, hi_cells, self._shape)
            # Kernel path: one run search over the whole cell
            # hyper-rectangle plus the positions of all surviving runs.
            first, last = rank_runs(
                self._rank_keys,
                self._distinct,
                cells,
                np.zeros(len(cells), dtype=np.int64),
                np.array([sort_interval.low]),
                np.array([sort_interval.high]),
            )
            candidates, _ = gather_ranges(first, last)
            rows_examined = len(candidates)
            skip_dims.extend(self._pruned_filter_dims(query, lo_cells, hi_cells))
        matches = self._filter_candidates(candidates, query, skip_dims)
        self.stats.record(
            rows_examined=rows_examined,
            rows_matched=len(matches),
            cells_visited=n_cells,
        )
        return matches

    # ------------------------------------------------------------------
    # Batch query
    # ------------------------------------------------------------------
    def batch_range_query(self, queries: Sequence[Rectangle]) -> List[np.ndarray]:
        """Original row ids for every query of a batch, sharing directory work.

        The batch path computes all queries' cell ranges with one vectorized
        boundary bisection per axis, finds the sort-key run of every
        (query, cell) pair with one run search, gathers all candidate runs
        at once and applies one vectorized post-filter pass per
        attribute over the whole batch.  Results are bit-identical to
        ``[range_query(q) for q in queries]``.
        """
        row_ids, counts = self.batch_range_query_flat(queries)
        return np.split(row_ids, np.cumsum(counts)[:-1]) if len(counts) else []

    def batch_range_query_flat(
        self, queries: Sequence[Rectangle]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat form of :meth:`batch_range_query` (see the base class)."""
        queries = list(queries)
        if not queries:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        n_queries = len(queries)
        bounds = batch_bounds(queries)
        live = batch_live(bounds, n_queries)
        return self.batch_flat_from_bounds(bounds, n_queries, live, n_queries)

    def batch_flat_from_bounds(
        self,
        bounds: Dict[str, Tuple[np.ndarray, np.ndarray]],
        n_queries: int,
        execute: np.ndarray,
        n_recorded: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat batch results for an already-columnar query batch.

        ``bounds`` is the per-attribute bound-matrix form of the batch (see
        :func:`repro.data.predicates.batch_bounds`); ``execute`` masks the
        queries to actually run (the rest report zero results), and
        ``n_recorded`` is how many logical queries the stats should count —
        compound callers like COAX route only a planner-chosen subset here
        while empty queries still count.  This array-level entry point lets
        COAX feed translated bound matrices straight into the grid kernels
        without materialising per-query rectangles.
        """
        if self.n_rows == 0:
            self.stats.record_batch(n_recorded)
            return np.empty(0, dtype=np.int64), np.zeros(n_queries, dtype=np.int64)
        _, _, filter_needed, cells, cell_qid, first, last = self._candidate_runs(
            bounds, n_queries, execute
        )
        matches, row_qid, n_examined = self._filter_runs(
            bounds, filter_needed, cell_qid, first, last
        )
        self.stats.record_batch(
            n_recorded,
            rows_examined=n_examined,
            rows_matched=len(matches),
            cells_visited=len(cells),
        )
        # row_qid is non-decreasing, so `matches` holds the per-query results
        # back to back, each in the exact order the sequential path produces.
        return self._row_ids[matches], np.bincount(row_qid, minlength=n_queries)

    def _candidate_runs(
        self,
        bounds: Dict[str, Tuple[np.ndarray, np.ndarray]],
        n_queries: int,
        execute: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Candidate ``(query, cell)`` sort-key runs of a columnar batch.

        The planning half both batch kernels share.  Returns ``(axis_lo,
        axis_hi, filter_needed, cells, cell_qid, first, last)``: per grid
        axis and query (``n_axes x n_queries``) the inclusive cell range
        and whether the axis still needs the exact post-filter; then the
        enumerated cells, the query each belongs to, and each cell's
        ``[first, last)`` run of positions from the sort-key run search
        (:func:`repro.indexes.kernels.rank_runs`).  Queries outside
        ``execute`` enumerate no cells.
        """
        execute = np.asarray(execute, dtype=bool)
        # Every grid axis's query intervals as the rows of two (n_axes x
        # n_queries) matrices — an axis no query constrains spans the grid
        # — and all cell ranges from one searchsorted per axis.
        n_axes = len(self._grid_dimensions)
        spans = np.empty((2, n_axes, n_queries))
        for axis, dim in enumerate(self._grid_dimensions):
            if dim in bounds:
                spans[0, axis], spans[1, axis] = bounds[dim]
            else:
                spans[0, axis] = -np.inf
                spans[1, axis] = np.inf
        axis_lows, axis_highs = spans
        axis_lo, axis_hi = axis_cell_ranges(
            self._boundaries, axis_lows, axis_highs, self._cells_per_dim
        )
        filter_needed = np.zeros((n_axes, n_queries), dtype=bool)
        if n_axes:
            # Vectorized filter-pruning check (see _axis_filter_needed) for
            # all axes at once: the post-filter on an axis only matters for
            # queries whose interval does not cover the value bounds of
            # every visited cell (see _refresh_edges).  Phrased as the
            # negation of "provably covered" so NaN (from NaN-polluted
            # boundaries or spans) conservatively keeps the filter, exactly
            # like the scalar path.
            rows = np.arange(n_axes)[:, None]
            filter_needed = ~(
                (axis_lows <= self._edges[rows, axis_lo])
                & (axis_highs >= self._edges[rows, axis_hi + 1])
            )
        # Masked-out queries must enumerate no cells even when their grid
        # ranges are non-empty (the emptiness may come from another
        # attribute, or the planner routed them elsewhere) — and they must
        # not force a post-filter pass on any axis either.
        if np.count_nonzero(execute) < n_queries:
            axis_hi[:, ~execute] = -1
            filter_needed[:, ~execute] = False
        cells, cells_per_query = enumerate_cells_batch(axis_lo, axis_hi, self._shape)
        if n_axes == 0:
            cells_per_query = execute.astype(np.int64)
            cells = np.zeros(int(cells_per_query.sum()), dtype=np.int64)
        cell_qid = np.arange(n_queries, dtype=np.int64).repeat(cells_per_query)

        # One sort-key run search over every (query, cell) pair.
        if self._sort_dimension in bounds:
            sort_lows, sort_highs = bounds[self._sort_dimension]
        else:
            sort_lows = np.full(n_queries, -np.inf)
            sort_highs = np.full(n_queries, np.inf)
        first, last = rank_runs(
            self._rank_keys, self._distinct, cells, cell_qid, sort_lows, sort_highs
        )
        return axis_lo, axis_hi, filter_needed, cells, cell_qid, first, last

    def _filter_runs(
        self,
        bounds: Dict[str, Tuple[np.ndarray, np.ndarray]],
        filter_needed: np.ndarray,
        cell_qid: np.ndarray,
        first: np.ndarray,
        last: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Gather candidate runs and apply the exact post-filter.

        Returns the surviving positions, their query ids and the number of
        gathered (examined) rows.  Tombstoned rows are masked out first,
        then one vectorized pass per attribute runs over the whole batch.
        The sort dimension is proven by the run search; a grid dimension is
        checked only if pruning failed for at least one query, and only
        that query's bounds stay finite.  The candidate set is compressed
        after every attribute that rejected something, so later column
        gathers touch only the still-plausible rows — same final set and
        order (mask selection is order-preserving), substantially fewer
        gathered values on selective batches; once no candidate is left
        the remaining attributes are skipped.
        """
        candidates, run_lengths = gather_ranges(first, last)
        row_qid = cell_qid.repeat(run_lengths)
        n_examined = len(candidates)
        live = live_candidate_mask(candidates, self._tombstone)
        if live is not None and np.count_nonzero(live) < len(live):
            candidates = candidates[live]
            row_qid = row_qid[live]
        axis_of = {dim: axis for axis, dim in enumerate(self._grid_dimensions)}
        for dim, (lows, highs) in bounds.items():
            if not len(candidates):
                break
            if dim == self._sort_dimension:
                continue
            axis = axis_of.get(dim)
            if axis is not None:
                needed = filter_needed[axis]
                n_needed = np.count_nonzero(needed)
                if n_needed < len(needed):
                    if not n_needed:
                        continue
                    lows = np.where(needed, lows, -np.inf)
                    highs = np.where(needed, highs, np.inf)
            values = self._columns[dim][candidates]
            mask = (values >= lows[row_qid]) & (values <= highs[row_qid])
            if np.count_nonzero(mask) < len(mask):
                candidates = candidates[mask]
                row_qid = row_qid[mask]
        return candidates, row_qid, n_examined

    # ------------------------------------------------------------------
    # Aggregate pushdown
    # ------------------------------------------------------------------
    def _column_prefix(self, column: str) -> np.ndarray:
        """Prefix sums of ``column`` over the clustered positions (lazy,
        cached).

        One ``O(n)`` cumsum per column, amortised over every SUM/AVG
        pushdown: a covered candidate run ``[first, last)`` then folds to
        its exact total with one subtraction and zero value gathers.
        Invalidated whenever the layout changes.
        """
        prefix = self._agg_prefix.get(column)
        if prefix is None:
            prefix = prefix_sums(self._columns[column])
            self._agg_prefix[column] = prefix
        return prefix

    def batch_aggregate_partial(
        self, queries: Sequence[Rectangle], spec: Aggregate
    ) -> AggregatePartial:
        """Grid pushdown of :meth:`MultidimensionalIndex.batch_aggregate_partial`."""
        queries = list(queries)
        n_queries = len(queries)
        if not n_queries:
            return AggregatePartial.identity(0)
        bounds = batch_bounds(queries)
        live = batch_live(bounds, n_queries)
        return self.batch_aggregate_from_bounds(bounds, n_queries, live, n_queries, spec)

    def batch_aggregate_from_bounds(
        self,
        bounds: Dict[str, Tuple[np.ndarray, np.ndarray]],
        n_queries: int,
        execute: np.ndarray,
        n_recorded: int,
        spec: Aggregate,
    ) -> AggregatePartial:
        """Fold a columnar query batch into per-query aggregate accumulators.

        The run-level pushdown: candidate (query, cell) runs are found
        exactly like the materialising batch path, but a run that is
        *provably exact* — every overlapped grid axis either fully covered
        by the query interval (no post-filter) or the cell strictly
        interior to the query's cell box, no constrained non-grid
        attributes, no tombstones; the sorted dimension is always exact by
        the run search — is folded without gathering anything:

        * COUNT adds the run length;
        * SUM/AVG add the run total from the :meth:`_column_prefix` cache
          (one subtraction per run);
        * MIN/MAX gather the run's *values* (never its row ids) and fold
          them per run with :func:`repro.indexes.kernels.segment_reduce`.

        Only the remaining boundary/unprovable runs gather values and take
        the exact post-filter, so ``rows_examined`` — which counts gathered
        rows only — collapses for covered aggregates.  Row ids are never
        materialised on any branch, which the repro-lint materialize pass
        and the gather-interception test both enforce.
        """
        partial = AggregatePartial.identity(n_queries)
        if self.n_rows == 0:
            self.stats.record_batch(n_recorded, aggregates=n_recorded)
            return partial
        axis_lo, axis_hi, filter_needed, cells, cell_qid, first, last = (
            self._candidate_runs(bounds, n_queries, execute)
        )

        # Which runs are provably exact without the post-filter?  A query
        # is fold-eligible only if nothing outside the grid + sorted
        # dimensions constrains it and no tombstone hides inside the runs
        # (run lengths cannot see deletes).
        grid_dims = set(self._grid_dimensions)
        eligible = np.full(n_queries, self._n_tombstoned == 0)
        if self._n_tombstoned == 0:
            for dim, (lows, highs) in bounds.items():
                if dim == self._sort_dimension or dim in grid_dims:
                    continue
                eligible &= np.isinf(lows) & np.isinf(highs) & (lows < 0) & (highs > 0)
        covered_run = eligible[cell_qid]
        for axis in range(len(axis_lo)):
            coords = (cells // self._cell_strides[axis]) % self._cells_per_dim
            interior = (coords > axis_lo[axis][cell_qid]) & (coords < axis_hi[axis][cell_qid])
            covered_run &= interior | ~filter_needed[axis][cell_qid]

        values = self._columns[spec.column] if spec.column is not None else None
        run_lengths_all = last - first
        folded = covered_run & (run_lengths_all > 0)
        folded_examined = 0
        if folded.any():
            fold_qids = cell_qid[folded]
            fold_first = first[folded]
            fold_last = last[folded]
            fold_lengths = run_lengths_all[folded]
            partial.add_run_counts(fold_qids, fold_lengths)
            if spec.op in ("sum", "avg") and spec.column is not None:
                prefix = self._column_prefix(spec.column)
                partial.add_run_totals(
                    fold_qids, segment_sum(prefix, fold_first, fold_last)
                )
            elif spec.op in ("min", "max"):
                gathered, lengths = gather_ranges(fold_first, fold_last)
                run_values = values[gathered]
                folded_examined = len(run_values)
                extremes = segment_reduce(run_values, lengths, spec.op)
                if spec.op == "min":
                    np.minimum.at(partial.minimum, fold_qids, extremes)
                else:
                    np.maximum.at(partial.maximum, fold_qids, extremes)

        # Gather path for the boundary / unprovable runs: exactly the
        # materialising batch path's post-filter, folding *values* at the
        # surviving positions instead of returning their row ids.
        # ``rows_examined`` counts gathered candidate rows (here, plus the
        # MIN/MAX run-value gathers above) — the metric the agg-bench gate
        # compares against materialize-then-reduce.
        n_examined = int(folded_examined)
        remaining = ~covered_run
        if remaining.any():
            candidates, row_qid, n_gathered = self._filter_runs(
                bounds,
                filter_needed,
                cell_qid[remaining],
                first[remaining],
                last[remaining],
            )
            n_examined += n_gathered
            partial.fold_values(
                row_qid, values[candidates] if values is not None else None
            )
        self.stats.record_batch(
            n_recorded,
            rows_examined=n_examined,
            rows_matched=int(partial.count.sum()),
            cells_visited=len(cells),
            aggregates=n_recorded,
        )
        return partial

    # ------------------------------------------------------------------
    # kNN (expanding-ring search over the grid directory)
    # ------------------------------------------------------------------
    def knn_partial(
        self,
        point,
        k: int,
        *,
        metric: str = "l2",
        aux_axes: Optional[Dict[int, Tuple[float, float, float]]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expanding-ring kNN over the grid directory.

        The search keeps an inclusive cell box per grid axis.  An axis is
        *bounded* when the query point constrains it — directly (the axis
        attribute is in the point) or through an FD translation supplied
        as ``aux_axes[axis] = (coordinate, scale, slack)``, meaning every
        covered row satisfies ``|v_dep - y| >= scale·|v_axis - coordinate|
        - slack`` for the point's dependent attribute ``y``.  Bounded axes
        seed at the coordinate's cell; information-less axes start at full
        span (a row outside the box on such an axis could be at distance
        zero, so they may never prune).

        Each iteration scans the not-yet-visited cells of the box exactly
        (true distances on the real columns), then compares the running
        k-th distance key against ``d_min`` — the smallest distance any
        row *outside* the box could have, the minimum over bounded axes of
        the value gap between the point and the box edge's boundary
        (squared for L2, matching the monotone keys).  The search stops
        only when ``kth < d_min`` *strictly*: on equality an unvisited row
        could tie the key with a smaller row id, and the library-wide
        ``(key, row_id)`` tie-break must win.  Otherwise the box grows one
        cell toward the nearer side per bounded axis (one
        ``rings_expanded`` increment per growth round) until it covers the
        directory.
        """
        if self.n_rows == 0:
            self.stats.record(knn_queries=1)
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        n_axes = len(self._grid_dimensions)
        aux = dict(aux_axes or {})
        # (coordinate, scale, slack) per bounded axis; None = information-less.
        targets: List[Optional[Tuple[float, float, float]]] = []
        for axis, dim in enumerate(self._grid_dimensions):
            if dim in point:
                targets.append((float(point[dim]), 1.0, 0.0))
            elif axis in aux:
                targets.append(tuple(float(v) for v in aux[axis]))
            else:
                targets.append(None)
        lo = np.zeros(max(n_axes, 1), dtype=np.int64)
        hi = np.full(max(n_axes, 1), self._cells_per_dim - 1, dtype=np.int64)
        for axis in range(n_axes):
            target = targets[axis]
            if target is not None:
                cell = int(
                    np.clip(
                        np.searchsorted(self._boundaries[axis], target[0], side="right") - 1,
                        0,
                        self._cells_per_dim - 1,
                    )
                )
                lo[axis] = hi[axis] = cell
        visited = np.zeros(self.n_cells, dtype=bool)
        best_keys = np.empty(0, dtype=np.float64)
        best_ids = np.empty(0, dtype=np.int64)
        rows_examined = 0
        cells_seen = 0
        rings = 0
        while True:
            if n_axes:
                cells = enumerate_cells(lo.tolist(), hi.tolist(), self._shape)
            else:
                cells = np.zeros(1, dtype=np.int64)
            new_cells = cells[~visited[cells]]
            visited[new_cells] = True
            cells_seen += len(new_cells)
            if len(new_cells):
                positions, _ = gather_ranges(
                    self._offsets[new_cells], self._offsets[new_cells + 1]
                )
                live_mask = live_candidate_mask(positions, self._tombstone)
                if live_mask is not None:
                    positions = positions[live_mask]
                if len(positions):
                    rows_examined += len(positions)
                    keys = point_distances(self._columns, positions, point, metric)
                    best_keys, best_ids = select_topk(
                        np.concatenate([best_keys, keys]),
                        np.concatenate([best_ids, self._row_ids[positions]]),
                        k,
                    )
            # Smallest distance key any row outside the current box could
            # carry, and which bounded axes can still grow (and which side
            # of each is nearer).
            d_min = np.inf
            growable: List[Tuple[int, bool]] = []  # (axis, grow_left)
            for axis in range(n_axes):
                target = targets[axis]
                if target is None:
                    continue
                value, scale, slack = target
                boundaries = self._boundaries[axis]
                left_gap = (
                    max(0.0, value - float(boundaries[lo[axis]]))
                    if lo[axis] > 0
                    else np.inf
                )
                right_gap = (
                    max(0.0, float(boundaries[hi[axis] + 1]) - value)
                    if hi[axis] < self._cells_per_dim - 1
                    else np.inf
                )
                axis_gap = min(
                    max(0.0, scale * left_gap - slack) if np.isfinite(left_gap) else np.inf,
                    max(0.0, scale * right_gap - slack) if np.isfinite(right_gap) else np.inf,
                )
                d_min = min(d_min, axis_gap)
                if lo[axis] > 0 or hi[axis] < self._cells_per_dim - 1:
                    growable.append((axis, left_gap <= right_gap and lo[axis] > 0))
            d_min_key = d_min * d_min if (metric == "l2" and np.isfinite(d_min)) else d_min
            if len(best_ids) >= k and float(best_keys[k - 1]) < d_min_key:
                break
            if not growable:
                break
            rings += 1
            for axis, grow_left in growable:
                if grow_left:
                    lo[axis] -= 1
                elif hi[axis] < self._cells_per_dim - 1:
                    hi[axis] += 1
                else:
                    lo[axis] -= 1
        self.stats.record(
            rows_examined=rows_examined,
            cells_visited=cells_seen,
            knn_queries=1,
            rings_expanded=rings,
        )
        return best_keys, best_ids

    # ------------------------------------------------------------------
    # Memory and layout introspection
    # ------------------------------------------------------------------
    def directory_bytes(self) -> int:
        """Cell address table plus quantile boundaries.

        The run-search keys and the distinct sort keys belong to the
        physical clustering of records into sorted pages, so they count as
        data layout rather than directory overhead (consistently with the
        uniform-grid accounting).
        """
        boundary_bytes = int(sum(b.nbytes for b in self._boundaries))
        return int(self._offsets.nbytes) + boundary_bytes

    @property
    def sort_dimension(self) -> str:
        """The attribute kept sorted inside every cell."""
        return self._sort_dimension

    @property
    def grid_dimensions(self) -> Tuple[str, ...]:
        """The attributes with grid lines."""
        return self._grid_dimensions

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        return int(np.prod(self._shape)) if self._shape else 1

    def cell_sizes(self) -> np.ndarray:
        """Number of records per cell (page-length distribution, Figure 4a)."""
        return np.diff(self._offsets)
