"""Tests for the index base class contract and the full-scan baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.core.coax import COAXIndex
from repro.indexes.base import IndexBuildError, QueryStats
from repro.indexes.column_files import ColumnFilesIndex
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.grid_file import SortedCellGridIndex
from repro.indexes.rtree import RTreeIndex
from repro.indexes.uniform_grid import UniformGridIndex

#: Every index type of the library.
INDEX_CLASSES = (
    ColumnFilesIndex,
    COAXIndex,
    FullScanIndex,
    RTreeIndex,
    SortedCellGridIndex,
    UniformGridIndex,
)


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(0)
    return Table(
        {
            "a": rng.uniform(0.0, 100.0, size=2_000),
            "b": rng.uniform(0.0, 100.0, size=2_000),
        }
    )


class TestQueryStats:
    def test_record_and_reset(self):
        stats = QueryStats()
        stats.record(rows_examined=10, rows_matched=3, cells_visited=2)
        stats.record(rows_examined=20, rows_matched=5)
        assert stats.queries == 2
        assert stats.rows_examined == 30
        assert stats.mean_rows_examined == 15.0
        stats.reset()
        assert stats.queries == 0
        assert stats.mean_rows_examined == 0.0

    def test_merge_sums_every_counter(self):
        left = QueryStats(
            queries=2,
            rows_examined=10,
            rows_matched=3,
            cells_visited=4,
            nodes_visited=1,
            shards_pruned=2,
        )
        right = QueryStats(
            queries=1,
            rows_examined=5,
            rows_matched=2,
            cells_visited=6,
            nodes_visited=0,
            shards_pruned=3,
        )
        merged = left.merge(right)
        assert merged is left  # accumulates in place, returns self
        assert (left.queries, left.rows_examined, left.rows_matched) == (3, 15, 5)
        assert (left.cells_visited, left.nodes_visited, left.shards_pruned) == (10, 1, 5)
        # The other operand is untouched.
        assert right.queries == 1 and right.rows_examined == 5

    def test_merge_then_reset_clears_shards_pruned(self):
        stats = QueryStats()
        stats.merge(QueryStats(shards_pruned=7))
        stats.record(shards_pruned=1)
        assert stats.shards_pruned == 8
        stats.reset()
        assert stats.shards_pruned == 0

    def test_snapshot_is_an_independent_copy(self):
        stats = QueryStats()
        stats.record(rows_examined=10, rows_matched=3, shards_pruned=2)
        frozen = stats.snapshot()
        stats.record(rows_examined=20, rows_matched=5)
        # The snapshot keeps the values at capture time...
        assert frozen.queries == 1
        assert frozen.rows_examined == 10
        assert frozen.shards_pruned == 2
        # ...while the live counters kept accumulating.
        assert stats.queries == 2
        assert stats.rows_examined == 30

    def test_delta_windows_the_counters(self):
        stats = QueryStats()
        stats.record(rows_examined=10, rows_matched=3, cells_visited=4)
        before = stats.snapshot()
        stats.record(rows_examined=20, rows_matched=5, shards_pruned=6)
        stats.record(rows_examined=5, nodes_visited=2)
        window = stats.delta(before)
        assert window.queries == 2
        assert window.rows_examined == 25
        assert window.rows_matched == 5
        assert window.cells_visited == 0
        assert window.nodes_visited == 2
        assert window.shards_pruned == 6
        # Neither operand is mutated: cumulative semantics are preserved.
        assert stats.queries == 3 and stats.rows_examined == 35
        assert before.queries == 1 and before.rows_examined == 10

    def test_delta_of_fresh_snapshot_is_zero(self):
        stats = QueryStats()
        stats.record(rows_examined=7)
        window = stats.delta(stats.snapshot())
        assert window.queries == 0
        assert window.rows_examined == 0
        assert window.mean_rows_examined == 0.0


class TestEveryIndexType:
    """The base-class contract holds for every index type, not just the scan."""

    @pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda cls: cls.__name__)
    def test_unknown_dimension_rejected(self, table, cls):
        with pytest.raises(IndexBuildError):
            cls(table, dimensions=("nope",))

    @pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda cls: cls.__name__)
    def test_row_ids_subset(self, table, cls):
        row_ids = np.arange(0, 2_000, 2, dtype=np.int64)
        index = cls(table, row_ids=row_ids)
        assert index.n_rows == len(row_ids)
        query = Rectangle({"a": Interval(10.0, 60.0)})
        expected = np.intersect1d(table.select(query), row_ids)
        assert np.array_equal(np.sort(index.range_query(query)), expected)


class TestBaseContract:
    def test_unknown_dimension_rejected(self, table):
        with pytest.raises(IndexBuildError):
            FullScanIndex(table, dimensions=("nope",))

    def test_row_ids_subset(self, table):
        row_ids = np.arange(0, 100, dtype=np.int64)
        index = FullScanIndex(table, row_ids=row_ids)
        assert index.n_rows == 100
        result = index.range_query(Rectangle.unconstrained())
        assert np.array_equal(np.sort(result), row_ids)

    def test_results_are_original_row_ids(self, table):
        row_ids = np.array([5, 10, 20], dtype=np.int64)
        index = FullScanIndex(table, row_ids=row_ids)
        point = table.row(10)
        result = index.point_query(point)
        assert 10 in result

    def test_empty_query_returns_nothing(self, table):
        index = FullScanIndex(table)
        assert len(index.range_query(Rectangle({"a": Interval(5.0, 1.0)}))) == 0

    def test_empty_index(self, table):
        index = FullScanIndex(table, row_ids=np.empty(0, dtype=np.int64))
        assert index.count(Rectangle.unconstrained()) == 0

    def test_data_and_total_bytes(self, table):
        index = FullScanIndex(table)
        assert index.data_bytes() == table.nbytes()
        assert index.total_bytes() == index.data_bytes() + index.directory_bytes()


class TestFullScan:
    def test_matches_table_select(self, table):
        index = FullScanIndex(table)
        query = Rectangle({"a": Interval(10.0, 50.0), "b": Interval(0.0, 30.0)})
        assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    def test_zero_directory_overhead(self, table):
        assert FullScanIndex(table).directory_bytes() == 0

    def test_stats_count_every_row(self, table):
        index = FullScanIndex(table)
        index.range_query(Rectangle({"a": Interval(0.0, 1.0)}))
        assert index.stats.rows_examined == table.n_rows

    def test_count_helper(self, table):
        index = FullScanIndex(table)
        query = Rectangle({"a": Interval(0.0, 50.0)})
        assert index.count(query) == len(table.select(query))


class TestPositionLookupCache:
    def test_positions_of_round_trip(self, table):
        index = FullScanIndex(table, row_ids=np.array([5, 1, 9, 3], dtype=np.int64))
        positions = index.positions_of(np.array([9, 5], dtype=np.int64))
        assert sorted(positions.tolist()) == [0, 2]

    def test_uncovered_ids_dropped(self, table):
        index = FullScanIndex(table, row_ids=np.array([5, 1], dtype=np.int64))
        positions = index.positions_of(np.array([1, 777], dtype=np.int64))
        assert positions.tolist() == [1]

    def test_lookup_is_cached(self, table, monkeypatch):
        index = FullScanIndex(table)
        calls = {"n": 0}
        original = np.argsort

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        for _ in range(5):
            index.positions_of(np.array([0, 1], dtype=np.int64))
        assert calls["n"] == 1

    def test_empty_inputs(self, table):
        index = FullScanIndex(table)
        assert len(index.positions_of(np.empty(0, dtype=np.int64))) == 0


class TestBatchRangeQuery:
    def test_results_align_with_single_queries(self, table):
        index = FullScanIndex(table)
        queries = [
            Rectangle({"a": Interval(0.0, 30.0)}),
            Rectangle({"b": Interval(50.0, 80.0)}),
            Rectangle({"a": Interval(90.0, 100.0), "b": Interval(0.0, 10.0)}),
        ]
        results = index.batch_range_query(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert np.array_equal(result, index.range_query(query))
