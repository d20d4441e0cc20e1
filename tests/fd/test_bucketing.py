"""Tests for the Algorithm 1 bucketing / training-set construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fd.bucketing import BucketGrid, BucketingConfig, build_training_set


class TestBucketingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BucketingConfig(sample_count=0)
        with pytest.raises(ValueError):
            BucketingConfig(bucket_chunks=1)
        with pytest.raises(ValueError):
            BucketingConfig(cell_threshold=0)


class TestBucketGrid:
    def test_counts_cover_all_inserted_records(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 10.0, size=1_000)
        y = rng.uniform(0.0, 10.0, size=1_000)
        grid = BucketGrid.from_sample(x, y, bucket_chunks=8)
        assert grid.total_count == 1_000
        assert grid.shape == (8, 8)

    def test_incremental_insert(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 10.0, size=500)
        y = rng.uniform(0.0, 10.0, size=500)
        grid = BucketGrid.from_sample(x, y, bucket_chunks=4)
        grid.insert(np.array([5.0]), np.array([5.0]))
        assert grid.total_count == 501

    def test_out_of_range_values_clamp_to_edge_cells(self):
        grid = BucketGrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
        grid.insert(np.array([-10.0, 10.0]), np.array([-10.0, 10.0]))
        assert grid.counts[0, 0] == 1
        assert grid.counts[-1, -1] == 1

    def test_mismatched_lengths_rejected(self):
        grid = BucketGrid(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 3))
        with pytest.raises(ValueError):
            grid.insert(np.arange(3.0), np.arange(4.0))

    def test_too_few_edges_rejected(self):
        with pytest.raises(ValueError):
            BucketGrid(np.array([0.0]), np.array([0.0, 1.0]))

    def test_dense_cell_centres_for_linear_data(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 100.0, size=20_000)
        y = 2.0 * x + rng.normal(scale=1.0, size=20_000)
        grid = BucketGrid.from_sample(x, y, bucket_chunks=32)
        cx, cy, weights = grid.dense_cell_centres(threshold=5)
        assert len(cx) == len(cy) == len(weights)
        assert len(cx) > 0
        # Dense-cell centres should themselves lie near the generating line.
        assert np.abs(cy - 2.0 * cx).max() < 15.0

    def test_no_dense_cells(self):
        grid = BucketGrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        cx, cy, weights = grid.dense_cell_centres(threshold=1)
        assert len(cx) == 0

    def test_memory_bytes_positive(self):
        grid = BucketGrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
        assert grid.memory_bytes() > 0

    def test_empty_insert_is_noop(self):
        grid = BucketGrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        grid.insert(np.array([]), np.array([]))
        assert grid.total_count == 0


class TestBuildTrainingSet:
    def test_weights_reflect_cell_counts(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 50.0, size=30_000)
        y = 3.0 * x + rng.normal(scale=0.5, size=30_000)
        config = BucketingConfig(sample_count=10_000, bucket_chunks=32, cell_threshold=3)
        x_train, y_train, weights, grid = build_training_set(x, y, config, rng)
        assert len(x_train) == len(y_train) == len(weights)
        # Training set is far smaller than the sample but carries its mass.
        assert len(x_train) < config.sample_count / 5
        assert weights.sum() <= config.sample_count

    def test_training_set_falls_back_to_sample_when_sparse(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, size=50)
        y = rng.uniform(0.0, 1.0, size=50)
        config = BucketingConfig(sample_count=50, bucket_chunks=64, cell_threshold=5)
        x_train, y_train, weights, _ = build_training_set(x, y, config, rng)
        assert len(x_train) == 50
        assert np.all(weights == 1.0)

    def test_empty_input(self):
        rng = np.random.default_rng(6)
        x_train, y_train, weights, _ = build_training_set(
            np.array([]), np.array([]), BucketingConfig(), rng
        )
        assert len(x_train) == 0

    def test_sampling_respects_sample_count(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 10.0, size=5_000)
        y = x.copy()
        config = BucketingConfig(sample_count=500, bucket_chunks=16, cell_threshold=1)
        _, _, weights, grid = build_training_set(x, y, config, rng)
        assert grid.total_count == 500

    def test_mismatched_input_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            build_training_set(np.arange(3.0), np.arange(4.0), BucketingConfig(), rng)
