"""Tests for quantile/CDF helpers used by the grid indexes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats.quantiles import quantile_boundaries, uniform_boundaries


class TestQuantileBoundaries:
    def test_equal_depth_partition(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(scale=10.0, size=10_000)
        boundaries = quantile_boundaries(values, 8)
        assert len(boundaries) == 9
        counts, _ = np.histogram(values, bins=boundaries)
        # Equal-depth cells: every cell holds roughly 1/8 of the data.
        assert counts.min() > 0.7 * len(values) / 8
        assert counts.max() < 1.3 * len(values) / 8

    def test_strictly_increasing_even_with_ties(self):
        values = np.array([1.0] * 500 + [2.0] * 500)
        boundaries = quantile_boundaries(values, 10)
        assert np.all(np.diff(boundaries) > 0)

    def test_constant_column(self):
        boundaries = quantile_boundaries(np.full(100, 5.0), 4)
        assert np.all(np.diff(boundaries) > 0)
        assert boundaries[0] == 5.0

    def test_empty_input(self):
        boundaries = quantile_boundaries(np.array([]), 4)
        assert len(boundaries) == 5

    def test_invalid_cell_count(self):
        with pytest.raises(ValueError):
            quantile_boundaries(np.arange(10.0), 0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200), st.integers(1, 16))
    def test_boundaries_cover_data(self, values, n_cells):
        array = np.array(values)
        boundaries = quantile_boundaries(array, n_cells)
        assert len(boundaries) == n_cells + 1
        assert boundaries[0] <= array.min()
        assert boundaries[-1] >= array.max()
        assert np.all(np.diff(boundaries) > 0)


class TestUniformBoundaries:
    def test_equal_width(self):
        boundaries = uniform_boundaries(np.array([0.0, 10.0]), 5)
        assert np.allclose(np.diff(boundaries), 2.0)

    def test_constant_column(self):
        boundaries = uniform_boundaries(np.full(10, 3.0), 4)
        assert np.all(np.diff(boundaries) > 0)

    def test_invalid_cell_count(self):
        with pytest.raises(ValueError):
            uniform_boundaries(np.arange(4.0), 0)
