"""Exact answers for the benchmark's queries, independent of the engine.

Nothing here calls into ``repro``.  Two structures, both far cheaper per
query than a full NumPy scan at a million rows:

* :class:`Oracle` answers rectangles over a fixed table.  It buckets the
  rows into a grid of equal-count bins on the four dimensions that
  jointly select least for the batch at hand, gathers the rows of the
  cells a rectangle covers and filters them on every dimension.  It
  also answers kNN by one vectorised scan.
* :class:`LiveAnswers` keeps the answers of a fixed set of rectangles
  exact while rows are inserted, updated and deleted.  Each query holds
  a candidate list — its initial answer plus every row written later
  that matched it at write time — and an answer re-filters the
  candidates on the current values and the live mask, so rows that
  were deleted or moved out of the box drop out.
"""

from __future__ import annotations

import itertools
from typing import List, Mapping, Sequence, Tuple

import numpy as np


def _in_box(values: Mapping[str, np.ndarray], dims: Sequence[str], low: np.ndarray,
            high: np.ndarray, ids: np.ndarray) -> np.ndarray:
    for j, d in enumerate(dims):
        column = values[d][ids]
        ids = ids[(column >= low[j]) & (column <= high[j])]
    return ids


class _Grid:
    """Row ids bucketed by equal-count bins on a few dimensions.

    A row's bin on a dimension is the number of bin edges at or below its
    value, and a query range ``[low, high]`` covers the bins of ``low``
    through ``high``, so every row inside the range lies in a covered
    cell: the candidates are a superset of the answer, never a subset.
    Rows are stored cell by cell, so the covered cells along the last
    dimension are one contiguous slice.
    """

    GRID_DIMS = 4
    BINS = 16

    def __init__(self, columns: Sequence[np.ndarray], picked: Tuple[int, ...]) -> None:
        self.picked = picked
        n_rows = len(columns[0])
        self.edges = []
        cell = np.zeros(n_rows, dtype=np.int64)
        for column in columns:
            ranked = np.sort(column)
            edges = np.unique(ranked[(np.arange(1, self.BINS) * n_rows) // self.BINS])
            self.edges.append(edges)
            cell = cell * (len(edges) + 1) + np.searchsorted(edges, column, side="right")
        self.shape = tuple(len(edges) + 1 for edges in self.edges)
        self.order = np.argsort(cell, kind="stable")
        counts = np.bincount(cell, minlength=int(np.prod(self.shape)))
        self.offsets = np.concatenate([[0], np.cumsum(counts)])

    def candidates(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        spans = []
        for j, edges in zip(self.picked, self.edges):
            if low[j] > high[j]:
                return self.order[:0]
            spans.append((int(np.searchsorted(edges, low[j], side="right")),
                          int(np.searchsorted(edges, high[j], side="right"))))
        bases = np.zeros(1, dtype=np.int64)
        for (first, last), size in zip(spans[:-1], self.shape[:-1]):
            bases = (bases[:, None] * size + np.arange(first, last + 1)[None, :]).ravel()
        first, last = spans[-1]
        bases = bases * self.shape[-1]
        starts = self.offsets[bases + first]
        lengths = self.offsets[bases + last + 1] - starts
        total = int(lengths.sum())
        skip = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return self.order[skip + np.arange(total)]


class Oracle:
    """Exact range and kNN answers over a fixed table."""

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self.dims = list(columns)
        self.columns = {d: np.asarray(columns[d], dtype=np.float64) for d in self.dims}
        self._grids = {}

    def range_batch(self, lows: np.ndarray, highs: np.ndarray) -> List[np.ndarray]:
        """Sorted matching ids per query; ``lows``/``highs`` are (queries, dims)."""
        grid = self._grid(self._grid_dims(lows, highs))
        return [
            np.sort(_in_box(self.columns, self.dims, low, high, grid.candidates(low, high)))
            for low, high in zip(lows, highs)
        ]

    def _grid_dims(self, lows: np.ndarray, highs: np.ndarray) -> Tuple[int, ...]:
        """The ``GRID_DIMS`` dimensions whose joint box holds the fewest rows.

        Estimated on an evenly spaced sample of rows and queries, so
        correlated dimensions, which prune little together, are avoided.
        """
        n_rows = len(self.columns[self.dims[0]])
        rows = np.linspace(0, n_rows - 1, min(n_rows, 8192)).astype(np.int64)
        queries = np.linspace(0, len(lows) - 1, min(len(lows), 128)).astype(np.int64)
        inside = [
            (self.columns[d][rows][None, :] >= lows[queries, j, None])
            & (self.columns[d][rows][None, :] <= highs[queries, j, None])
            for j, d in enumerate(self.dims)
        ]
        width = min(_Grid.GRID_DIMS, len(self.dims))
        return min(
            itertools.combinations(range(len(self.dims)), width),
            key=lambda picked: int(np.logical_and.reduce([inside[j] for j in picked]).sum()),
        )

    def _grid(self, picked: Tuple[int, ...]) -> "_Grid":
        if picked not in self._grids:
            self._grids[picked] = _Grid([self.columns[self.dims[j]] for j in picked], picked)
        return self._grids[picked]

    def column_sums(self, results: Sequence[np.ndarray], column: str) -> np.ndarray:
        values = self.columns[column]
        return np.array([float(np.sum(values[ids])) for ids in results])

    def knn(self, point: Mapping[str, float], k: int) -> np.ndarray:
        """The k nearest ids by squared L2 distance, ties to the smaller id.

        Distances are summed in the point's key order with the same
        float64 operations the engine's executor uses, so equal keys are
        equal bit for bit and the tie-break alone decides between them.
        """
        keys = None
        for dim, target in point.items():
            diff = self.columns[dim] - float(target)
            keys = diff * diff if keys is None else keys + diff * diff
        ids = np.arange(len(keys))
        if len(ids) > k:
            within = keys <= np.partition(keys, k - 1)[k - 1]
            ids, keys = ids[within], keys[within]
        return ids[np.lexsort((ids, keys))[:k]]


class LiveAnswers:
    """Exact answers of fixed rectangles over a table under writes."""

    def __init__(self, columns: Mapping[str, np.ndarray], lows: np.ndarray,
                 highs: np.ndarray) -> None:
        self.dims = list(columns)
        self.lows, self.highs = lows, highs
        n_rows = len(columns[self.dims[0]])
        self.columns = {d: np.array(columns[d], dtype=np.float64) for d in self.dims}
        self.live = np.ones(n_rows, dtype=bool)
        self._candidates = Oracle(columns).range_batch(lows, highs)

    def _grow(self, needed: int) -> None:
        size = len(self.live)
        if needed <= size:
            return
        capacity = max(needed, 2 * size)
        for d in self.dims:
            grown = np.zeros(capacity)
            grown[:size] = self.columns[d]
            self.columns[d] = grown
        live = np.zeros(capacity, dtype=bool)
        live[:size] = self.live
        self.live = live

    def write(self, ids: np.ndarray, columns: Mapping[str, np.ndarray]) -> None:
        """Insert new ids, or overwrite live ones, with ``columns``."""
        self._grow(int(ids.max()) + 1)
        hit = np.ones((len(self.lows), len(ids)), dtype=bool)
        for j, d in enumerate(self.dims):
            values = np.asarray(columns[d], dtype=np.float64)
            self.columns[d][ids] = values
            hit &= (values[None, :] >= self.lows[:, j, None]) & (values[None, :] <= self.highs[:, j, None])
        self.live[ids] = True
        queries, rows = np.nonzero(hit)
        if len(queries):
            cuts = np.flatnonzero(np.diff(queries)) + 1
            for part_q, part_r in zip(np.split(queries, cuts), np.split(rows, cuts)):
                q = int(part_q[0])
                self._candidates[q] = np.concatenate([self._candidates[q], ids[part_r]])

    def delete(self, ids: np.ndarray) -> None:
        self.live[ids] = False

    def answer(self, q: int) -> np.ndarray:
        cand = self._candidates[q]
        cand = np.unique(cand[self.live[cand]])
        return _in_box(self.columns, self.dims, self.lows[q], self.highs[q], cand)

    def column_sum(self, ids: np.ndarray, column: str) -> float:
        return float(np.sum(self.columns[column][ids]))
