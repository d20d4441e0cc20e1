"""Tests for the Centre-Sequence Model and the gap-stream segmentation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.csm import (
    CentreSequence,
    build_centre_sequence,
    segment_stream,
    simulate_gap_stream,
)


class TestCentreSequence:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CentreSequence(np.arange(3.0), np.arange(2.0), np.arange(3))

    def test_empty_gaps(self):
        sequence = CentreSequence(np.array([1.0]), np.array([2.0]), np.array([1]))
        assert len(sequence.gaps) == 0


class TestBuildCentreSequence:
    def test_centres_approximate_linear_data(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 100.0, size=20_000)
        y = 3.0 * x + rng.normal(scale=0.5, size=20_000)
        sequence = build_centre_sequence(x, y, 50)
        predicted = 3.0 * sequence.positions
        assert np.abs(sequence.centres - predicted).max() < 2.0

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=5_000)
        y = rng.uniform(size=5_000)
        sequence = build_centre_sequence(x, y, 32)
        assert int(sequence.counts.sum()) == 5_000

    def test_empty_intervals_dropped(self):
        # Data in two tight clusters: most intervals between them are empty.
        x = np.concatenate([np.full(100, 0.0), np.full(100, 100.0)])
        y = np.concatenate([np.zeros(100), np.full(100, 10.0)])
        sequence = build_centre_sequence(x, y, 50)
        assert sequence.n_intervals == 2

    def test_degenerate_inputs(self):
        empty = build_centre_sequence(np.array([]), np.array([]), 10)
        assert empty.n_intervals == 0
        constant = build_centre_sequence(np.ones(10), np.arange(10.0), 5)
        assert constant.n_intervals == 1
        assert constant.centres[0] == pytest.approx(4.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_centre_sequence(np.arange(3.0), np.arange(4.0), 4)
        with pytest.raises(ValueError):
            build_centre_sequence(np.arange(3.0), np.arange(3.0), 0)


class TestSimulateGapStream:
    @pytest.mark.parametrize("distribution", ["normal", "uniform", "exponential"])
    def test_moments_match_request(self, distribution):
        rng = np.random.default_rng(2)
        gaps = simulate_gap_stream(100_000, mean=4.0, std=0.5, rng=rng, distribution=distribution)
        assert gaps.mean() == pytest.approx(4.0, abs=0.05)
        assert gaps.std() == pytest.approx(0.5, abs=0.05)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_gap_stream(0, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            simulate_gap_stream(10, 1.0, 1.0, rng, distribution="bogus")


class TestSegmentStream:
    def test_zero_variance_stream_needs_one_segment(self):
        gaps = np.full(1_000, 2.0)
        lengths = segment_stream(gaps, epsilon=1.0)
        assert lengths == [1_000]

    def test_lengths_sum_to_stream_length(self):
        rng = np.random.default_rng(3)
        gaps = simulate_gap_stream(5_000, mean=1.0, std=0.8, rng=rng)
        lengths = segment_stream(gaps, epsilon=2.0)
        assert sum(lengths) == 5_000

    def test_larger_epsilon_needs_fewer_segments(self):
        rng = np.random.default_rng(4)
        gaps = simulate_gap_stream(20_000, mean=1.0, std=1.0, rng=rng)
        few = len(segment_stream(gaps, epsilon=20.0))
        many = len(segment_stream(gaps, epsilon=5.0))
        assert few < many

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            segment_stream(np.ones(10), epsilon=0.0)

    def test_empty_stream(self):
        assert segment_stream(np.array([]), epsilon=1.0) == []

    @given(st.integers(10, 500), st.floats(0.5, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_segments_partition_the_stream(self, n, epsilon):
        rng = np.random.default_rng(n)
        gaps = rng.normal(1.0, 1.0, size=n)
        lengths = segment_stream(gaps, epsilon=epsilon)
        assert sum(lengths) == n
        assert all(length > 0 for length in lengths)
