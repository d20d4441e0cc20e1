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
    SMALL_QUERY_CELLS,
    axis_cell_ranges,
    enumerate_cells,
    enumerate_cells_batch,
    gather_ranges,
    segment_bisect,
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
    """Sorted runs with empty segments, duplicate keys and infinite keys."""
    pool = np.array([-np.inf, -3.0, -1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0, np.inf])
    runs = [np.sort(rng.choice(pool, size=rng.integers(0, 20)))
            for _ in range(n_segments)]
    keys = np.concatenate(runs) if runs else np.empty(0)
    lengths = np.array([len(run) for run in runs], dtype=np.int64)
    stops = np.cumsum(lengths)
    starts = stops - lengths
    values = rng.choice(np.array([-np.inf, -4.0, -1.0, 0.0, 0.5, 2.0, 5.0, np.inf]),
                        size=n_segments)
    return runs, keys, starts, stops, values


class TestSegmentBisect:
    @given(st.integers(0, 6000), st.sampled_from(["left", "right"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_searchsorted_per_segment(self, seed, side):
        # 1-60 segments: both the per-segment branch (fewer than
        # SMALL_QUERY_CELLS) and the whole-array rounds are drawn.
        rng = np.random.default_rng(seed)
        n_segments = int(rng.integers(1, 61))
        runs, keys, starts, stops, values = _random_segments(rng, n_segments)
        got = segment_bisect(keys, starts, stops, values, side=side)
        for i, run in enumerate(runs):
            expected = starts[i] + np.searchsorted(run, values[i], side=side)
            assert got[i] == expected, (i, side)

    @given(st.integers(0, 6000), st.sampled_from(["left", "right"]))
    @settings(max_examples=40, deadline=None)
    def test_both_branches_agree(self, seed, side):
        # The same segments searched below and above SMALL_QUERY_CELLS:
        # padding the batch with copies moves it onto the whole-array
        # rounds, which must give the small branch's positions.
        rng = np.random.default_rng(seed)
        n_segments = int(rng.integers(1, SMALL_QUERY_CELLS))
        _, keys, starts, stops, values = _random_segments(rng, n_segments)
        values[rng.random(n_segments) < 0.1] = np.nan
        small = segment_bisect(keys, starts, stops, values, side=side)
        copies = -(-SMALL_QUERY_CELLS // n_segments)
        large = segment_bisect(
            keys, np.tile(starts, copies), np.tile(stops, copies),
            np.tile(values, copies), side=side,
        )
        assert len(large) >= SMALL_QUERY_CELLS
        assert np.array_equal(np.tile(small, copies), large)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert len(segment_bisect(np.empty(0), empty, empty, np.empty(0))) == 0


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
