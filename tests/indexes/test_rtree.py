"""Tests for the R-Tree baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.indexes.base import IndexBuildError
from repro.indexes.rtree import RTreeIndex


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(3)
    n = 3_000
    return Table(
        {
            "x": rng.uniform(0.0, 100.0, size=n),
            "y": rng.normal(0.0, 25.0, size=n),
            "z": rng.exponential(scale=5.0, size=n),
        }
    )


@pytest.fixture(scope="module")
def queries(table):
    rng = np.random.default_rng(4)
    result = []
    for _ in range(15):
        anchor = table.row(int(rng.integers(0, table.n_rows)))
        result.append(
            Rectangle(
                {
                    "x": Interval(anchor["x"] - 10, anchor["x"] + 10),
                    "y": Interval(anchor["y"] - 10, anchor["y"] + 10),
                }
            )
        )
    return result


def _node_count(index: RTreeIndex) -> int:
    """Total number of nodes of the tree."""
    count = 0
    stack = [index._root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend(node.children)
    return count


class TestBulkLoad:
    def test_exactness(self, table, queries):
        index = RTreeIndex(table, node_capacity=10)
        for query in queries:
            assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    def test_point_queries(self, table):
        index = RTreeIndex(table, node_capacity=8)
        for row_id in (0, 500, 2999):
            assert row_id in index.point_query(table.row(row_id))

    def test_capacity_validation(self, table):
        with pytest.raises(IndexBuildError):
            RTreeIndex(table, node_capacity=1)

    def test_height_and_node_count_scale_with_capacity(self, table):
        small_cap = RTreeIndex(table, node_capacity=4)
        large_cap = RTreeIndex(table, node_capacity=32)
        assert small_cap.height() >= large_cap.height()
        assert _node_count(small_cap) > _node_count(large_cap)

    def test_leaf_occupancy_respects_capacity(self, table):
        index = RTreeIndex(table, node_capacity=10)
        stack = [index._root]
        while stack:
            node = stack.pop()
            assert node.n_entries <= 10
            if not node.is_leaf:
                stack.extend(node.children)

    def test_empty_index(self, table):
        index = RTreeIndex(table, row_ids=np.empty(0, dtype=np.int64))
        assert index.count(Rectangle.unconstrained()) == 0
        assert index.height() == 1

    def test_single_row(self, table):
        index = RTreeIndex(table, row_ids=np.array([42], dtype=np.int64))
        assert index.count(Rectangle.unconstrained()) == 1

    def test_directory_bytes_grow_with_smaller_capacity(self, table):
        small_cap = RTreeIndex(table, node_capacity=4)
        large_cap = RTreeIndex(table, node_capacity=32)
        assert small_cap.directory_bytes() > large_cap.directory_bytes()

    def test_pruning_avoids_full_scan(self, table):
        index = RTreeIndex(table, node_capacity=10)
        index.stats.reset()
        index.range_query(Rectangle({"x": Interval(0.0, 1.0), "y": Interval(0.0, 1.0)}))
        assert index.stats.rows_examined < table.n_rows / 5
        assert index.stats.nodes_visited < _node_count(index)

    def test_query_on_non_indexed_dimension_is_still_exact(self, table):
        index = RTreeIndex(table, dimensions=("x", "y"))
        query = Rectangle({"z": Interval(0.0, 2.0)})
        assert np.array_equal(np.sort(index.range_query(query)), table.select(query))
