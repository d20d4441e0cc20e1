"""Unit tests for the vectorized read-path kernels.

Each kernel is checked against the straightforward reference it replaces
(`itertools.product`, per-segment ``np.searchsorted``, per-range
``np.arange`` concatenation), over randomized inputs including the edge
shapes (empty segments, empty ranges, single cells, empty batches).
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.indexes.kernels import (
    axis_cell_ranges,
    cell_rank_keys,
    enumerate_cells,
    enumerate_cells_batch,
    gather_ranges,
    rank_runs,
)


class TestEnumerateCells:
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_product_order(self, lo0, span0, lo1, span1):
        shape = (6, 6)
        lo_cells = [lo0, lo1]
        hi_cells = [min(lo0 + span0, 5), min(lo1 + span1, 5)]
        expected = [
            int(np.ravel_multi_index(combo, shape))
            for combo in itertools.product(
                range(lo_cells[0], hi_cells[0] + 1), range(lo_cells[1], hi_cells[1] + 1)
            )
        ]
        got = enumerate_cells(lo_cells, hi_cells, shape)
        assert got.tolist() == expected

    def test_no_grid_dimensions(self):
        assert enumerate_cells([], [], ()).tolist() == [0]

    def test_one_axis_passthrough(self):
        assert enumerate_cells([2], [4], (8,)).tolist() == [2, 3, 4]


class TestEnumerateCellsBatch:
    @given(st.integers(0, 6000))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_query_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        shape = (5, 4, 3)
        n_queries = int(rng.integers(1, 8))
        lo = np.stack([rng.integers(0, s, size=n_queries) for s in shape])
        hi = np.stack(
            [np.minimum(lo[a] + rng.integers(-1, s, size=n_queries), s - 1)
             for a, s in enumerate(shape)]
        )
        cells, counts = enumerate_cells_batch(lo, hi, shape)
        assert int(counts.sum()) == len(cells)
        split = np.split(cells, np.cumsum(counts)[:-1])
        for i in range(n_queries):
            expected = enumerate_cells(lo[:, i], hi[:, i], shape)
            if (hi[:, i] < lo[:, i]).any():
                assert counts[i] == 0
            else:
                assert split[i].tolist() == expected.tolist()

    @given(st.integers(0, 6000))
    @settings(max_examples=30, deadline=None)
    def test_single_cell_queries(self, seed):
        # Point-like batches (at most one cell per query) take the
        # dot-product shortcut; empty queries must still give no cell.
        rng = np.random.default_rng(seed)
        shape = (5, 4, 3)
        n_queries = int(rng.integers(1, 8))
        lo = np.stack([rng.integers(0, s, size=n_queries) for s in shape])
        hi = lo - (rng.random((len(shape), n_queries)) < 0.2)
        cells, counts = enumerate_cells_batch(lo, hi, shape)
        expected = [
            enumerate_cells(lo[:, i], hi[:, i], shape).tolist()
            if (hi[:, i] >= lo[:, i]).all() else []
            for i in range(n_queries)
        ]
        assert counts.tolist() == [len(cell) for cell in expected]
        assert cells.tolist() == [cell for cell_ids in expected for cell in cell_ids]

    def test_empty_batch_of_cells(self):
        lo = np.array([[1], [2]])
        hi = np.array([[0], [3]])  # axis 0 empty -> no cells
        cells, counts = enumerate_cells_batch(lo, hi, (4, 4))
        assert len(cells) == 0 and counts.tolist() == [0]


def _random_segments(rng, n_segments):
    """Sorted runs with empty segments, duplicate, infinite and NaN keys,
    laid out back to back like the cells of a clustered grid."""
    pool = np.array(
        [-np.inf, -3.0, -1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0, np.inf, np.nan]
    )
    runs = [np.sort(rng.choice(pool, size=rng.integers(0, 20)))
            for _ in range(n_segments)]
    keys = np.concatenate(runs) if runs else np.empty(0)
    lengths = np.array([len(run) for run in runs], dtype=np.int64)
    stops = np.cumsum(lengths)
    starts = stops - lengths
    cells = np.arange(n_segments, dtype=np.int64).repeat(lengths)
    return runs, keys, cells, starts


def _random_bounds(rng, size):
    """Query bounds with infinite values and some NaN."""
    bounds = rng.choice(
        np.array([-np.inf, -4.0, -1.0, 0.0, 0.5, 2.0, 5.0, np.inf]), size=size
    )
    bounds[rng.random(size) < 0.1] = np.nan
    return bounds


def _segment_run(run, start, low, high):
    """Reference run of one segment: two per-segment searchsorted calls,
    a NaN bound landing on the segment start."""
    first = start + (0 if np.isnan(low) else np.searchsorted(run, low, "left"))
    last = start + (0 if np.isnan(high) else np.searchsorted(run, high, "right"))
    return first, max(first, last)


class TestRankRuns:
    @given(st.integers(0, 6000))
    @settings(max_examples=60, deadline=None)
    def test_matches_searchsorted_per_segment(self, seed):
        rng = np.random.default_rng(seed)
        n_segments = int(rng.integers(1, 61))
        runs, keys, cells, starts = _random_segments(rng, n_segments)
        distinct = np.unique(keys)
        rank_keys = cell_rank_keys(cells, keys, distinct)
        assert np.all(np.diff(rank_keys) >= 0)
        lows = _random_bounds(rng, n_segments)
        highs = _random_bounds(rng, n_segments)
        segments = np.arange(n_segments, dtype=np.int64)
        first, last = rank_runs(rank_keys, distinct, segments, segments, lows, highs)
        for i, run in enumerate(runs):
            expected = _segment_run(run, starts[i], lows[i], highs[i])
            assert (first[i], last[i]) == expected, (i, lows[i], highs[i])

    @given(st.integers(0, 6000))
    @settings(max_examples=40, deadline=None)
    def test_owned_bounds_match_per_cell_bounds(self, seed):
        # A batch maps each query's bounds to ranks once and hands them to
        # its cells through ``owners``: the same runs as giving every cell
        # its own copy of the bounds.
        rng = np.random.default_rng(seed)
        n_segments = int(rng.integers(1, 40))
        runs, keys, cells, starts = _random_segments(rng, n_segments)
        distinct = np.unique(keys)
        rank_keys = cell_rank_keys(cells, keys, distinct)
        n_queries = int(rng.integers(1, 6))
        lows = _random_bounds(rng, n_queries)
        highs = _random_bounds(rng, n_queries)
        visited = rng.integers(0, n_segments, size=int(rng.integers(0, 50)))
        owners = np.sort(rng.integers(0, n_queries, size=len(visited)))
        first, last = rank_runs(rank_keys, distinct, visited, owners, lows, highs)
        own = np.arange(len(visited), dtype=np.int64)
        first_copy, last_copy = rank_runs(
            rank_keys, distinct, visited, own, lows[owners], highs[owners]
        )
        assert np.array_equal(first, first_copy)
        assert np.array_equal(last, last_copy)
        for i, (cell, owner) in enumerate(zip(visited, owners)):
            expected = _segment_run(runs[cell], starts[cell], lows[owner], highs[owner])
            assert (first[i], last[i]) == expected

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        distinct = np.empty(0)
        rank_keys = cell_rank_keys(empty, np.empty(0), distinct)
        first, last = rank_runs(
            rank_keys, distinct, empty, empty, np.empty(0), np.empty(0)
        )
        assert len(first) == len(last) == 0
        # Cells of an empty layout hold empty runs for any bound.
        cells = np.array([0, 3], dtype=np.int64)
        first, last = rank_runs(
            rank_keys, distinct, cells, np.zeros(2, dtype=np.int64),
            np.array([-np.inf]), np.array([np.inf]),
        )
        assert first.tolist() == last.tolist() == [0, 0]


class TestGatherRanges:
    @given(st.integers(0, 6000))
    @settings(max_examples=40, deadline=None)
    def test_matches_arange_concatenation(self, seed):
        rng = np.random.default_rng(seed)
        n_ranges = int(rng.integers(0, 10))
        starts = rng.integers(0, 50, size=n_ranges)
        stops = starts + rng.integers(-3, 8, size=n_ranges)  # some empty
        expected = (
            np.concatenate([np.arange(a, max(a, b)) for a, b in zip(starts, stops)])
            if n_ranges
            else np.empty(0)
        )
        indices, lengths = gather_ranges(starts, stops)
        assert indices.tolist() == expected.tolist()
        assert lengths.tolist() == np.maximum(stops - starts, 0).tolist()


class TestAxisCellRanges:
    def test_matches_scalar_bisection(self):
        boundaries = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        lows = np.array([-1.0, 0.5, 2.0, 3.9, 10.0])
        highs = np.array([0.2, 1.5, 2.0, 10.0, 11.0])
        lo_cells, hi_cells = axis_cell_ranges(boundaries, lows, highs, 4)
        for i in range(len(lows)):
            expected_lo = int(np.clip(np.searchsorted(boundaries, lows[i], side="right") - 1, 0, 3))
            expected_hi = int(np.clip(np.searchsorted(boundaries, highs[i], side="right") - 1, 0, 3))
            assert lo_cells[i] == expected_lo and hi_cells[i] == expected_hi

    def test_edge_values(self):
        # On a boundary, below the first, beyond the last and infinite.
        boundaries = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        lows = np.array([1.0, -5.0, 4.0, -np.inf, 0.0, 2.0, -np.inf])
        highs = np.array([2.0, -1.0, 9.0, np.inf, 0.0, 4.0, -np.inf])
        lo_cells, hi_cells = axis_cell_ranges(boundaries, lows, highs, 4)
        assert lo_cells.tolist() == [1, 0, 3, 0, 0, 2, 0]
        assert hi_cells.tolist() == [2, 0, 3, 3, 0, 3, 0]

    def test_empty_interval_yields_no_cells(self):
        boundaries = np.array([0.0, 1.0, 2.0])
        lo_cells, hi_cells = axis_cell_ranges(
            boundaries, np.array([1.5]), np.array([0.5]), 2
        )
        assert hi_cells[0] < lo_cells[0]

    @given(st.integers(0, 6000))
    @settings(max_examples=30, deadline=None)
    def test_stacked_axes_match_per_axis(self, seed):
        rng = np.random.default_rng(seed)
        n_axes, n_queries, n_cells = 3, int(rng.integers(1, 9)), 4
        boundaries = [np.sort(rng.normal(size=n_cells + 1)) for _ in range(n_axes)]
        pool = np.array([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf])
        lows = rng.choice(pool, size=(n_axes, n_queries))
        highs = rng.choice(pool, size=(n_axes, n_queries))
        lows[0, 0] = boundaries[0][2]  # exactly on a boundary
        lo_cells, hi_cells = axis_cell_ranges(boundaries, lows, highs, n_cells)
        for axis in range(n_axes):
            lo_axis, hi_axis = axis_cell_ranges(
                boundaries[axis], lows[axis], highs[axis], n_cells
            )
            assert np.array_equal(lo_cells[axis], lo_axis)
            assert np.array_equal(hi_cells[axis], hi_axis)
            empty = lows[axis] > highs[axis]
            assert (hi_axis[empty] < lo_axis[empty]).all()
