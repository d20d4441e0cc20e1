"""Vectorized NumPy kernels of the grid-family read path.

Every grid-shaped index in the library (uniform grid, sorted-cell grid,
column files, and through them the COAX primary/outlier indexes) answers a
range query with the same three steps:

1. enumerate the hyper-rectangle of candidate cells overlapping the query;
2. narrow each cell's contiguous record run — either the whole cell, or the
   sub-run of rows whose in-cell sorted attribute lies in the query
   interval;
3. gather the surviving run positions into one candidate array.

Before this module those steps ran as a Python hot loop: one
``itertools.product`` tuple per cell, two Python-dispatched
``np.searchsorted`` calls per cell and a slice/append/concatenate chain.
The kernels below replace them with whole-batch NumPy primitives so the
per-cell (and, through :mod:`repro.core.coax`'s batch path, the per-query)
interpreter overhead is paid once per *batch* instead of once per cell:

* :func:`enumerate_cells` — the meshgrid / ``ravel_multi_index``
  vectorization of the candidate cell hyper-rectangle, in the same
  row-major order ``itertools.product`` used so results stay bit-identical;
* :func:`cell_rank_keys` and :func:`rank_runs` — the run search of a
  (cell, sort-key) clustered layout: every row carries one non-decreasing
  integer key ``cell * (n_distinct + 1) + rank(sort key)``, so the runs of
  *all* (query, cell) pairs of a batch come from two exact
  ``np.searchsorted`` calls over that one array;
* :func:`gather_ranges` — the cumsum/repeat trick turning an array of
  ``[start, stop)`` ranges into the concatenated index array in one shot,
  replacing the per-cell slice/append/``np.concatenate`` chain;
* :func:`axis_cell_ranges` — batched boundary bisection: the inclusive
  cell-index ranges of *many* query intervals with one
  ``np.searchsorted`` per axis.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "SMALL_QUERY_CELLS",
    "enumerate_cells",
    "enumerate_cells_batch",
    "cell_rank_keys",
    "rank_runs",
    "gather_ranges",
    "axis_cell_ranges",
    "row_major_strides",
    "observed_axis_spans",
    "axis_filter_needed",
    "live_candidate_mask",
    "prefix_sums",
    "segment_sum",
    "segment_reduce",
]

#: Below this many candidate cells a single query takes the scalar per-cell
#: path: the batched kernels (cell enumeration, run search, gather, pruning
#: analysis) pay a fixed NumPy dispatch overhead that only amortises once
#: enough cells share it.  Shared by every grid-family index so the hybrid
#: switch cannot drift between layouts.
SMALL_QUERY_CELLS = 24


def row_major_strides(shape: Sequence[int]) -> Tuple[int, ...]:
    """Row-major strides of a grid shape, for scalar flat-id arithmetic."""
    strides: List[int] = []
    below = 1
    for length in reversed(tuple(shape)):
        strides.append(below)
        below *= length
    return tuple(reversed(strides))


def observed_axis_spans(
    columns: Mapping[str, np.ndarray], dims: Sequence[str]
) -> Tuple[List[float], List[float]]:
    """Observed ``[min, max]`` per grid dimension (``(+inf, -inf)`` if empty).

    The edge cells of a clipped grid are catch-alls (values below the first
    or above the last boundary land in them), so the boundaries alone do
    not bound the data; these spans close that gap for the filter-pruning
    check.  Callers keep them current when rows are absorbed.
    """
    lows: List[float] = []
    highs: List[float] = []
    for dim in dims:
        values = columns[dim]
        if len(values):
            lows.append(float(values.min()))
            highs.append(float(values.max()))
        else:
            lows.append(np.inf)
            highs.append(-np.inf)
    return lows, highs


def axis_filter_needed(
    low: float,
    high: float,
    lo_cell: int,
    hi_cell: int,
    boundaries: np.ndarray,
    n_cells: int,
    axis_low: float,
    axis_high: float,
) -> bool:
    """Can the exact post-filter on one grid axis reject any visited row?

    Rows in cells ``>= lo_cell`` carry values ``>= boundaries[lo_cell]``
    (for ``lo_cell > 0``; the first cell is a clipped catch-all bounded
    only by the observed axis minimum), and rows in cells ``<= hi_cell``
    carry values ``< boundaries[hi_cell + 1]`` (symmetrically for the last
    cell).  When the query interval covers those bounds on both sides,
    every visited row satisfies the interval and the post-filter on this
    axis would gather a column for nothing.  Comparisons are phrased so
    NaN (from NaN-polluted data) conservatively keeps the filter.
    """
    lower_covered = low <= (boundaries[lo_cell] if lo_cell > 0 else axis_low)
    if not lower_covered:
        return True
    upper_covered = high >= (
        boundaries[hi_cell + 1] if hi_cell < n_cells - 1 else axis_high
    )
    return not upper_covered


def live_candidate_mask(
    candidates: np.ndarray, tombstone: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Mask of gathered candidate positions that are not tombstoned.

    The delete-side analogue of the post-filter kernels: ``tombstone`` is a
    per-position boolean bitmap (``True`` = deleted) or ``None`` when the
    index holds no deletes at all.  Returns ``None`` in the no-deletes case
    so callers skip the gather entirely — the read path pays nothing until
    the first delete — and otherwise one vectorised gather of the bitmap,
    which every read path (scalar post-filter, batch post-filter pass)
    folds into its existing candidate mask so deletes never add a pass.
    """
    if tombstone is None:
        return None
    return ~tombstone[candidates]


def enumerate_cells(
    lo_cells: Sequence[int],
    hi_cells: Sequence[int],
    shape: Tuple[int, ...],
) -> np.ndarray:
    """Flat ids of every cell in the inclusive hyper-rectangle of cell ranges.

    ``lo_cells``/``hi_cells`` give the inclusive per-axis cell range and
    ``shape`` the grid shape.  The ids come back in row-major (C) order —
    exactly the order ``itertools.product`` over per-axis ``range`` objects
    would produce — so callers that replaced a product loop with this kernel
    return candidates in the same order as before.
    """
    if not shape:
        return np.zeros(1, dtype=np.int64)
    axes = [
        np.arange(int(lo), int(hi) + 1, dtype=np.int64)
        for lo, hi in zip(lo_cells, hi_cells)
    ]
    if len(axes) == 1:
        return axes[0]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.ravel_multi_index([m.ravel() for m in mesh], shape).astype(np.int64)


def enumerate_cells_batch(
    lo_cells: np.ndarray,
    hi_cells: np.ndarray,
    shape: Tuple[int, ...],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat cell ids of many cell hyper-rectangles, concatenated in order.

    ``lo_cells``/``hi_cells`` are ``(n_axes, n_queries)`` inclusive range
    matrices.  Returns ``(cells, counts)`` where ``cells`` concatenates
    every query's row-major cell enumeration (so
    ``np.split(cells, np.cumsum(counts)[:-1])`` recovers the per-query
    lists, each identical to :func:`enumerate_cells` for that query) and
    ``counts`` is the per-query cell count.  A query whose range is empty on
    some axis (``hi < lo``) contributes zero cells.

    The whole batch is enumerated without a per-query Python step: one
    global arange is decomposed into per-query mixed-radix digits — one
    floor-divide/mod pair per axis — and re-composed into flat ids with the
    grid strides.  When no query covers more than one cell (point
    lookups), each id is just the dot product of its range starts with the
    strides.
    """
    lo_cells = np.asarray(lo_cells, dtype=np.int64)
    hi_cells = np.asarray(hi_cells, dtype=np.int64)
    n_axes, n_queries = lo_cells.shape
    if not shape or n_axes == 0:
        counts = np.ones(n_queries, dtype=np.int64)
        return np.zeros(n_queries, dtype=np.int64), counts
    lengths = hi_cells - lo_cells
    lengths += 1
    np.maximum(lengths, 0, out=lengths)
    counts = np.multiply.reduce(lengths, axis=0)
    if n_queries == 0 or counts.max() <= 1:
        cells = np.dot(row_major_strides(shape), lo_cells)
        return cells[counts > 0], counts
    total = int(counts.sum())
    ends = np.cumsum(counts)
    # Rank of every output cell within its own query's enumeration.
    rank = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    qid = np.repeat(np.arange(n_queries, dtype=np.int64), counts)
    # Row-major decomposition: axis 0 varies slowest, so its digit is the
    # rank divided by the product of all later axis lengths.
    below = np.ones(n_queries, dtype=np.int64)
    strides_below = np.empty((n_axes, n_queries), dtype=np.int64)
    for axis in range(n_axes - 1, -1, -1):
        strides_below[axis] = below
        below = below * lengths[axis]
    cells = np.zeros(total, dtype=np.int64)
    for axis in range(n_axes):
        digit = (rank // strides_below[axis][qid]) % np.maximum(lengths[axis][qid], 1)
        cells = cells * shape[axis] + (lo_cells[axis][qid] + digit)
    return cells, counts


def cell_rank_keys(
    cells: np.ndarray, keys: np.ndarray, distinct: np.ndarray
) -> np.ndarray:
    """Run-search keys of rows laid out in (cell, sort-key) order.

    ``distinct`` holds the sorted distinct sort-key values (``np.unique``:
    NaN, if any, once and last).  Row ``i`` gets ``cells[i] * (len(distinct)
    + 1) + searchsorted(distinct, keys[i], "left")``.  A key's rank orders
    exactly like the key itself (NaN last, as in the in-cell lexsort) and
    never exceeds ``len(distinct) - 1``, so the keys of one cell stay below
    the first key of the next: over a clustered layout the array is
    non-decreasing and :func:`rank_runs` can search it whole.
    """
    return np.asarray(cells, dtype=np.int64) * (len(distinct) + 1) + distinct.searchsorted(
        keys, "left"
    )


def rank_runs(
    rank_keys: np.ndarray,
    distinct: np.ndarray,
    cells: np.ndarray,
    owners: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``[first, last)`` runs of in-cell sort keys within ``[low, high]``.

    ``rank_keys`` comes from :func:`cell_rank_keys` over a (cell, sort-key)
    clustered layout; ``lows``/``highs`` are per-query bounds and
    ``owners[i]`` names the query of cell ``cells[i]``.  Each bound is
    mapped to a rank once per query, then every cell's run comes from two
    exact ``searchsorted`` calls over the whole key array:

    * ``key >= low``  exactly when ``rank(key) >= searchsorted(distinct,
      low, "left")``;
    * ``key <= high`` exactly when ``rank(key) < searchsorted(distinct,
      high, "right")``.

    The result equals per-segment ``start + np.searchsorted(cell_keys,
    low, "left")`` and ``start + np.searchsorted(cell_keys, high,
    "right")``, with ``last`` clamped to at least ``first`` so an empty
    interval yields an empty run.  A NaN bound gets rank 0 and lands on
    its segment start.
    """
    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    low_ranks = distinct.searchsorted(lows, "left")
    high_ranks = distinct.searchsorted(highs, "right")
    low_ranks[np.isnan(lows)] = 0
    high_ranks[np.isnan(highs)] = 0
    segment = np.asarray(cells, dtype=np.int64) * (len(distinct) + 1)
    first = rank_keys.searchsorted(segment + low_ranks[owners])
    last = rank_keys.searchsorted(segment + high_ranks[owners])
    np.maximum(last, first, out=last)
    return first, last


def gather_ranges(starts: np.ndarray, stops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated indices of many ``[start, stop)`` ranges, in range order.

    Returns ``(indices, lengths)`` where ``indices`` is the one-array
    equivalent of ``np.concatenate([np.arange(a, b) for a, b in zip(...)])``
    and ``lengths`` the per-range contribution (``stop - start`` clipped to
    zero) so callers can attribute the gathered rows back to their source
    range (cell or query) without another pass.  Built from one ``cumsum``
    and one ``repeat`` — no Python-level loop over ranges.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lengths = np.maximum(stops - starts, 0)
    total = int(np.add.reduce(lengths))
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths
    # Within each range the offset runs 0..length-1; shifting a global arange
    # by each range's start minus its position in the output yields all
    # ranges at once.
    shift = starts - (lengths.cumsum() - lengths)
    indices = np.arange(total, dtype=np.int64) + shift.repeat(lengths)
    return indices, lengths


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of a value array (length ``n + 1``).

    The one-time cache behind the SUM pushdown: with ``p = prefix_sums(v)``
    every contiguous run ``v[first:last]`` sums to ``p[last] - p[first]``
    in O(1), so an aggregate over covered candidate runs never gathers the
    values at all (see :func:`segment_sum`).  Computed in float64; run
    sums recovered by differencing re-associate the addition, so they can
    differ from a direct left-to-right sum in the last ulps — callers
    compare SUM/AVG results with a float tolerance, never bit-for-bit.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(len(values) + 1, dtype=np.float64)
    out[0] = 0.0
    np.cumsum(values, out=out[1:])
    return out


def segment_sum(
    prefix: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Per-run value sums of ``[start, stop)`` runs from a prefix-sum cache.

    The run-level sum fold: one gather pair and one subtraction for *all*
    runs, independent of run length.  Empty runs (``stop <= start``)
    yield exactly 0.0.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    return prefix[np.maximum(stops, starts)] - prefix[starts]


def segment_reduce(
    values: np.ndarray, lengths: np.ndarray, op: str
) -> np.ndarray:
    """Per-run reduction over back-to-back runs of a gathered value array.

    ``values`` concatenates the runs (run ``i`` occupies ``lengths[i]``
    consecutive slots, exactly the layout :func:`gather_ranges`
    produces); ``op`` is ``"sum"``, ``"min"`` or ``"max"``.  Empty runs
    reduce to the identity (0.0 / ``+inf`` / ``-inf``), so callers can
    fold the output straight into per-query accumulators.  One
    ``reduceat`` over the non-empty runs instead of a Python loop.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n_runs = len(lengths)
    identity = {"sum": 0.0, "min": np.inf, "max": -np.inf}[op]
    out = np.full(n_runs, identity, dtype=np.float64)
    nonempty = lengths > 0
    if not nonempty.any():
        return out
    ends = np.cumsum(lengths)
    run_starts = (ends - lengths)[nonempty]
    ufunc = {"sum": np.add, "min": np.minimum, "max": np.maximum}[op]
    out[nonempty] = ufunc.reduceat(np.asarray(values, dtype=np.float64), run_starts)
    return out


def axis_cell_ranges(
    boundaries: Union[np.ndarray, Sequence[np.ndarray]],
    lows: np.ndarray,
    highs: np.ndarray,
    n_cells: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Inclusive cell ranges for a whole batch of intervals.

    Vectorized version of the per-query boundary bisection.  For one axis,
    ``boundaries`` is its boundary array and ``lows``/``highs`` hold every
    query's interval on it; for a whole grid, ``boundaries`` lists the
    per-axis boundary arrays and ``lows``/``highs`` are ``(n_axes,
    n_queries)`` matrices.  Each axis costs one ``np.searchsorted`` over
    its lows and highs together, and the results are clamped in place for
    all axes at once.  Returns ``(lo_cells, hi_cells)`` shaped like
    ``lows``, clipped into ``[0, n_cells - 1]``; an empty query interval
    (``low > high``) simply yields ``lo_cell > hi_cell`` and enumerates no
    cells.
    """
    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    if lows.ndim == 1:
        lo_cells, hi_cells = axis_cell_ranges(
            [np.asarray(boundaries, dtype=np.float64)], lows[None], highs[None], n_cells
        )
        return lo_cells[0], hi_cells[0]
    n_axes, n_queries = lows.shape
    cells = np.empty((n_axes, 2 * n_queries), dtype=np.int64)
    for axis, axis_boundaries in enumerate(boundaries):
        cells[axis] = axis_boundaries.searchsorted(
            np.concatenate((lows[axis], highs[axis])), side="right"
        )
    cells -= 1
    np.maximum(cells, 0, out=cells)
    np.minimum(cells, n_cells - 1, out=cells)
    lo_cells = cells[:, :n_queries]
    hi_cells = cells[:, n_queries:]
    # Preserve emptiness: a query with low > high must visit no cells.
    empty = lows > highs
    if np.count_nonzero(empty):
        hi_cells[empty] = lo_cells[empty] - 1
    return lo_cells, hi_cells
