"""Tests for the closed-form results of Section 7 / Appendix G."""

from __future__ import annotations


import numpy as np
import pytest

from repro.stats.csm import segment_stream, simulate_gap_stream
from repro.stats.theory import (
    effectiveness_ratio,
    expected_keys_per_segment,
    expected_segment_count,
    grid_cells_scanned,
    keys_per_segment_variance,
    mean_first_exit_time_with_drift,
    scanned_area,
)


def _result_area(query_width, epsilon, slope):
    """Area of the R-box (Equation 3): ``q_y * 2 eps / a``."""
    return query_width * 2.0 * epsilon / slope


class TestAreas:
    def test_equation_3_and_4(self):
        assert scanned_area(10.0, 2.0, 1.0) == pytest.approx(2 * 2 * (4 + 10) / 1.0)

    def test_scanned_area_always_at_least_result_area(self):
        for q in (0.0, 1.0, 5.0, 100.0):
            for eps in (0.5, 2.0, 10.0):
                assert scanned_area(q, eps, 2.0) >= _result_area(q, eps, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            scanned_area(-1.0, 1.0, 1.0)


class TestEffectiveness:
    def test_equation_5_values(self):
        assert effectiveness_ratio(10.0, 5.0) == pytest.approx(10.0 / 20.0)
        assert effectiveness_ratio(0.0, 5.0) == 0.0

    def test_tends_to_one_as_margin_shrinks(self):
        values = [effectiveness_ratio(10.0, eps) for eps in (10.0, 1.0, 0.1, 0.001)]
        assert values == sorted(values)
        assert values[-1] > 0.999

    def test_matches_area_ratio(self):
        q, eps, a = 7.0, 3.0, 2.0
        assert effectiveness_ratio(q, eps) == pytest.approx(
            _result_area(q, eps, a) / scanned_area(q, eps, a)
        )

    def test_bounded_in_unit_interval(self):
        for q in (0.0, 1.0, 100.0):
            for eps in (0.1, 5.0):
                assert 0.0 <= effectiveness_ratio(q, eps) <= 1.0


class TestSegmentTheorems:
    def test_theorem_71_formula(self):
        assert expected_keys_per_segment(10.0, 2.0) == pytest.approx(25.0)

    def test_theorem_73_formula(self):
        assert keys_per_segment_variance(10.0, 2.0) == pytest.approx(2 * 10**4 / (3 * 2**4))

    def test_theorem_74_formula(self):
        assert expected_segment_count(1_000, 10.0, 2.0) == pytest.approx(40.0)

    def test_driftless_limit_of_theorem_72(self):
        assert mean_first_exit_time_with_drift(10.0, 2.0, 0.0) == pytest.approx(25.0)

    def test_theorem_72_maximum_at_zero_drift(self):
        base = mean_first_exit_time_with_drift(10.0, 1.0, 0.0)
        for drift in (-0.5, -0.1, 0.1, 0.5):
            assert mean_first_exit_time_with_drift(10.0, 1.0, drift) < base

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_keys_per_segment(0.0, 1.0)
        with pytest.raises(ValueError):
            expected_segment_count(-1, 1.0, 1.0)

    def test_theorem_71_matches_simulation(self):
        """Empirical mean segment capacity approaches eps^2/sigma^2 when sigma << eps."""
        rng = np.random.default_rng(0)
        epsilon, sigma = 15.0, 1.0
        gaps = simulate_gap_stream(300_000, mean=2.0, std=sigma, rng=rng)
        lengths = np.array(segment_stream(gaps, epsilon, slope=2.0)[:-1], dtype=float)
        predicted = expected_keys_per_segment(epsilon, sigma)
        assert lengths.mean() == pytest.approx(predicted, rel=0.25)

    def test_theorem_74_matches_simulation(self):
        rng = np.random.default_rng(1)
        epsilon, sigma, n = 12.0, 1.0, 200_000
        gaps = simulate_gap_stream(n, mean=3.0, std=sigma, rng=rng)
        measured = len(segment_stream(gaps, epsilon, slope=3.0))
        predicted = expected_segment_count(n, epsilon, sigma)
        assert measured == pytest.approx(predicted, rel=0.3)


class TestGridComparison:
    def test_grid_cells_grow_as_margin_shrinks(self):
        counts = [
            grid_cells_scanned(1_000.0, 2_000.0, eps, 2.0, 10.0) for eps in (32.0, 8.0, 2.0)
        ]
        assert counts == sorted(counts)

    def test_scan_factor_scales_inversely(self):
        base = grid_cells_scanned(100.0, 100.0, 1.0, 1.0, 5.0, scan_factor=1.0)
        halved = grid_cells_scanned(100.0, 100.0, 1.0, 1.0, 5.0, scan_factor=2.0)
        assert halved == pytest.approx(base / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_cells_scanned(0.0, 1.0, 1.0, 1.0, 1.0)
