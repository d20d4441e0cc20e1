"""Tests for correlation measures and soft-FD strength scoring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats.correlation import (
    fit_line,
    pearson_correlation,
    soft_fd_strength,
)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(100.0)
        assert pearson_correlation(x, 3.0 * x + 1.0) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(100.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=5_000)
        y = rng.normal(size=5_000)
        assert abs(pearson_correlation(x, y)) < 0.1

    def test_degenerate_inputs(self):
        assert pearson_correlation(np.array([]), np.array([])) == 0.0
        assert pearson_correlation(np.array([1.0]), np.array([2.0])) == 0.0
        assert pearson_correlation(np.ones(10), np.arange(10.0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.arange(3.0), np.arange(4.0))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=50))
    def test_bounded_in_unit_interval(self, values):
        x = np.array(values)
        y = np.sin(x)  # arbitrary deterministic transform
        r = pearson_correlation(x, y)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestFitLine:
    def test_recovers_slope_and_intercept(self):
        x = np.linspace(0.0, 10.0, 500)
        slope, intercept = fit_line(x, 4.0 * x - 2.0)
        assert slope == pytest.approx(4.0, abs=1e-9)
        assert intercept == pytest.approx(-2.0, abs=1e-9)

    def test_constant_x_falls_back_to_mean(self):
        slope, intercept = fit_line(np.ones(10), np.arange(10.0))
        assert slope == 0.0
        assert intercept == pytest.approx(4.5)

    def test_empty_input(self):
        assert fit_line(np.array([]), np.array([])) == (0.0, 0.0)


class TestSoftFDStrength:
    def test_strong_linear_dependency_scores_high(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 100.0, size=3_000)
        y = 2.0 * x + rng.normal(scale=0.5, size=3_000)
        assert soft_fd_strength(x, y) > 0.8

    def test_independent_attributes_score_low(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 100.0, size=3_000)
        y = rng.uniform(0.0, 100.0, size=3_000)
        assert soft_fd_strength(x, y) < 0.4

    def test_constant_dependent_scores_one(self):
        x = np.arange(100.0)
        assert soft_fd_strength(x, np.full(100, 7.0)) == 1.0

    def test_too_few_points(self):
        assert soft_fd_strength(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_score_is_bounded(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=500)
        y = 0.3 * x + rng.normal(size=500)
        assert 0.0 <= soft_fd_strength(x, y) <= 1.0
