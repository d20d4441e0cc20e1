"""Tests for the query workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.queries import (
    WorkloadConfig,
    generate_knn_queries,
    generate_point_queries,
    generate_selectivity_queries,
)
from repro.data.table import Table


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(4)
    return Table(
        {
            "a": rng.uniform(0.0, 100.0, size=4_000),
            "b": rng.normal(50.0, 10.0, size=4_000),
            "c": rng.uniform(-1.0, 1.0, size=4_000),
        }
    )


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_queries=0)
        with pytest.raises(ValueError):
            WorkloadConfig(k_neighbours=0)


class TestKNNQueries:
    def test_number_and_kind(self, table):
        workload = generate_knn_queries(table, WorkloadConfig(n_queries=12, k_neighbours=30))
        assert len(workload) == 12
        assert workload.kind == "range"

    def test_queries_constrain_all_requested_dims(self, table):
        workload = generate_knn_queries(
            table, WorkloadConfig(n_queries=5, k_neighbours=30, dimensions=("a", "c"))
        )
        for query in workload:
            assert {name for name, _ in query.items()} <= {"a", "c"}
            assert query.constrains("a")

    def test_each_query_matches_at_least_k_records(self, table):
        k = 25
        workload = generate_knn_queries(table, WorkloadConfig(n_queries=10, k_neighbours=k, seed=2))
        for query in workload:
            assert len(table.select(query)) >= k

    def test_deterministic_for_seed(self, table):
        config = WorkloadConfig(n_queries=5, k_neighbours=20, seed=9)
        first = generate_knn_queries(table, config)
        second = generate_knn_queries(table, config)
        assert first.queries == second.queries

    def test_larger_k_means_larger_queries(self, table):
        small = generate_knn_queries(table, WorkloadConfig(n_queries=10, k_neighbours=10, seed=1))
        large = generate_knn_queries(table, WorkloadConfig(n_queries=10, k_neighbours=500, seed=1))
        assert large.mean_selectivity(table) > small.mean_selectivity(table)


class TestPointQueries:
    def test_point_queries_match_existing_records(self, table):
        workload = generate_point_queries(table, WorkloadConfig(n_queries=15, seed=3))
        assert workload.kind == "point"
        for query in workload:
            assert query.is_point
            assert len(table.select(query)) >= 1

    def test_cardinalities_cached(self, table):
        workload = generate_point_queries(table, WorkloadConfig(n_queries=5, seed=3))
        first = workload.cardinalities(table)
        second = workload.cardinalities(table)
        assert first is second


class TestSelectivityQueries:
    def test_mean_selectivity_near_target(self, table):
        target = 200
        workload = generate_selectivity_queries(
            table, target, WorkloadConfig(n_queries=10, seed=5)
        )
        measured = workload.mean_selectivity(table)
        assert 0.3 * target <= measured <= 3.0 * target

    def test_targets_are_ordered(self, table):
        low = generate_selectivity_queries(table, 50, WorkloadConfig(n_queries=8, seed=6))
        high = generate_selectivity_queries(table, 1_000, WorkloadConfig(n_queries=8, seed=6))
        assert high.mean_selectivity(table) > low.mean_selectivity(table)

    def test_invalid_target(self, table):
        with pytest.raises(ValueError):
            generate_selectivity_queries(table, 0)

    def test_kind_labels_target(self, table):
        workload = generate_selectivity_queries(table, 100, WorkloadConfig(n_queries=4, seed=7))
        assert workload.kind.startswith("selectivity~")
