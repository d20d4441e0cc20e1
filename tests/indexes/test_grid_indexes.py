"""Tests for the uniform grid, the quantile grid file and Column Files."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.executors import Aggregate
from repro.data.predicates import Interval, Rectangle, batch_bounds, batch_live
from repro.data.table import Table
from repro.indexes.base import IndexBuildError
from repro.indexes.column_files import ColumnFilesIndex
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.grid_file import SortedCellGridIndex
from repro.indexes.uniform_grid import UniformGridIndex, _capped_cells_per_dim


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(1)
    n = 4_000
    return Table(
        {
            "a": rng.uniform(0.0, 100.0, size=n),
            "b": rng.exponential(scale=20.0, size=n),
            "c": rng.normal(50.0, 15.0, size=n),
        }
    )


@pytest.fixture(scope="module")
def queries(table):
    rng = np.random.default_rng(2)
    result = []
    for _ in range(15):
        anchor = table.row(int(rng.integers(0, table.n_rows)))
        result.append(
            Rectangle(
                {
                    "a": Interval(anchor["a"] - 20, anchor["a"] + 20),
                    "b": Interval(anchor["b"] - 15, anchor["b"] + 15),
                    "c": Interval(anchor["c"] - 10, anchor["c"] + 10),
                }
            )
        )
    return result


class TestCellCap:
    def test_capped_cells_per_dim(self):
        assert _capped_cells_per_dim(8, 2, 100) == 8  # 64 <= 100
        assert _capped_cells_per_dim(8, 3, 100) == 4  # 4^3=64 <= 100 < 5^3
        assert _capped_cells_per_dim(100, 1, 10) == 10
        assert _capped_cells_per_dim(8, 0, 10) == 8
        assert _capped_cells_per_dim(8, 4, 1) == 1

    def test_directory_never_exceeds_budget(self, table):
        index = UniformGridIndex(table, cells_per_dim=64)
        assert index.n_cells <= table.n_rows

    def test_explicit_max_cells(self, table):
        index = UniformGridIndex(table, cells_per_dim=10, max_cells=30)
        assert index.n_cells <= 30


class TestUniformGrid:
    def test_exactness(self, table, queries):
        index = UniformGridIndex(table, cells_per_dim=8)
        for query in queries:
            assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    def test_point_queries(self, table):
        index = UniformGridIndex(table, cells_per_dim=8)
        for row_id in (0, 17, 1999):
            result = index.point_query(table.row(row_id))
            assert row_id in result

    def test_invalid_cells(self, table):
        with pytest.raises(IndexBuildError):
            UniformGridIndex(table, cells_per_dim=0)

    def test_cell_sizes_sum_to_rows(self, table):
        index = UniformGridIndex(table, cells_per_dim=6)
        assert int(index.cell_sizes().sum()) == table.n_rows

    def test_empty_table_subset(self, table):
        index = UniformGridIndex(table, row_ids=np.empty(0, dtype=np.int64))
        assert index.count(Rectangle.unconstrained()) == 0

    def test_prunes_rows_relative_to_full_scan(self, table, queries):
        index = UniformGridIndex(table, cells_per_dim=8)
        index.stats.reset()
        for query in queries:
            index.range_query(query)
        assert index.stats.rows_examined < len(queries) * table.n_rows * 0.8

    def test_skewed_cell_distribution(self, table):
        index = UniformGridIndex(table, cells_per_dim=10, dimensions=("b",))
        sizes = index.cell_sizes()
        # The exponential column concentrates mass in the first cells.
        assert sizes[0] > sizes[-1]


class TestSortedCellGrid:
    def test_exactness(self, table, queries):
        index = SortedCellGridIndex(table, cells_per_dim=8, sort_dimension="a")
        for query in queries:
            assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    def test_sort_dimension_has_no_grid_lines(self, table):
        index = SortedCellGridIndex(table, cells_per_dim=8, sort_dimension="b")
        assert "b" not in index.grid_dimensions
        assert index.sort_dimension == "b"
        assert len(index.grid_dimensions) == table.n_dims - 1

    def test_unknown_sort_dimension(self, table):
        with pytest.raises(IndexBuildError):
            SortedCellGridIndex(table, sort_dimension="zzz")

    def test_quantile_cells_are_balanced(self, table):
        index = SortedCellGridIndex(table, cells_per_dim=4, sort_dimension="a")
        sizes = index.cell_sizes()
        non_empty = sizes[sizes > 0]
        # Quantile boundaries keep the per-cell load within a reasonable factor.
        assert non_empty.max() < 10 * max(non_empty.mean(), 1.0)

    def test_query_on_sort_dimension_only(self, table):
        index = SortedCellGridIndex(table, cells_per_dim=4, sort_dimension="a")
        query = Rectangle({"a": Interval(10.0, 30.0)})
        assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    def test_examines_fewer_rows_than_uniform_grid_on_sorted_dim(self, table):
        sorted_grid = SortedCellGridIndex(table, cells_per_dim=6, sort_dimension="a")
        uniform = UniformGridIndex(table, cells_per_dim=6)
        query = Rectangle({"a": Interval(40.0, 42.0)})
        sorted_grid.stats.reset()
        uniform.stats.reset()
        sorted_grid.range_query(query)
        uniform.range_query(query)
        assert sorted_grid.stats.rows_examined <= uniform.stats.rows_examined

    def test_nan_sort_keys_match_queries_that_leave_the_sort_dimension_free(self):
        """A NaN sort key sorts above ``+inf``, yet ``Table.select`` returns
        its row to every query that leaves the sort dimension free.  The
        scalar path (small-cell loop and kernel branch), the batch path,
        the COUNT pushdown and a 4-shard engine must return it too."""
        rng = np.random.default_rng(5)
        columns = {name: rng.uniform(0.0, 100.0, size=200) for name in ("x", "y", "z")}
        columns["x"][[5, 17]] = np.nan
        columns["y"][[5, 17]] = 30.0
        nan_table = Table(columns)
        queries = [
            Rectangle({"y": Interval(-1e9, 1e9)}),
            Rectangle({"y": Interval(20.0, 40.0)}),
            Rectangle({"x": Interval(-np.inf, 50.0), "y": Interval(0.0, 60.0)}),
        ]
        expected = [nan_table.select(query) for query in queries]
        assert np.isin([5, 17], expected[0]).all() and np.isin([5, 17], expected[1]).all()
        index = SortedCellGridIndex(nan_table, cells_per_dim=8, sort_dimension="x")
        cells = []
        for query, want in zip(queries, expected):
            before = index.stats.cells_visited
            assert np.array_equal(np.sort(index.range_query(query)), want)
            cells.append(index.stats.cells_visited - before)
        # Both scalar branches ran.
        assert min(cells) <= index.SMALL_QUERY_CELLS < max(cells)
        for got, want in zip(index.batch_range_query(queries), expected):
            assert np.array_equal(np.sort(got), want)
        counts = [len(want) for want in expected]
        assert index.batch_aggregate(queries, Aggregate("count")).tolist() == counts
        engine = ShardedCOAX(nan_table, config=EngineConfig(n_shards=4), groups=[])
        for query, want in zip(queries, expected):
            assert np.array_equal(engine.range_query(query), want)
        for got, want in zip(engine.batch_range_query(queries), expected):
            assert np.array_equal(got, want)
        assert engine.batch_aggregate(queries, Aggregate("count")).tolist() == counts

    def test_directory_bytes_positive(self, table):
        index = SortedCellGridIndex(table, cells_per_dim=4)
        assert index.directory_bytes() > 0

    def test_single_dimension_degenerates_to_sorted_column(self, table):
        grid = SortedCellGridIndex(table, dimensions=("a",), sort_dimension="a")
        full_scan = FullScanIndex(table, dimensions=("a",))
        query = Rectangle({"a": Interval(5.0, 10.0)})
        assert np.array_equal(
            np.sort(grid.range_query(query)), np.sort(full_scan.range_query(query))
        )


class TestSharedBatchCore:
    """``batch_flat_from_bounds`` and ``batch_aggregate_from_bounds`` run on
    one candidate-run core; fed the same bounds batch they must agree."""

    def _batch(self, table):
        rng = np.random.default_rng(5)
        queries = []
        for i in range(48):
            anchor = table.row(int(rng.integers(0, table.n_rows)))
            intervals = {
                "a": Interval(anchor["a"] - 25, anchor["a"] + 25),
                "b": Interval(anchor["b"] - 20, anchor["b"] + 20),
            }
            if i % 2:
                # "c" is neither a grid nor the sort dimension.
                intervals["c"] = Interval(anchor["c"] - 15, anchor["c"] + 15)
            if i % 8 == 5:
                intervals["b"] = Interval.empty()
            queries.append(Rectangle(intervals))
        return queries

    def test_dropped_queries_and_counters_agree(self, table):
        index = SortedCellGridIndex(
            table, cells_per_dim=8, sort_dimension="a", dimensions=("a", "b")
        )
        deleted = np.arange(0, table.n_rows, 7)
        index.delete_rows(deleted)
        queries = self._batch(table)
        n_queries = len(queries)
        bounds = batch_bounds(queries)
        # COAX routes a planner-chosen subset while counting fewer queries.
        execute = batch_live(bounds, n_queries) & (np.arange(n_queries) % 3 != 0)
        n_recorded = int(execute.sum())
        assert 0 < n_recorded < n_queries

        index.stats.reset()
        ids, counts = index.batch_flat_from_bounds(bounds, n_queries, execute, n_recorded)
        flat_stats = index.stats.snapshot()
        index.stats.reset()
        partial = index.batch_aggregate_from_bounds(
            bounds, n_queries, execute, n_recorded, Aggregate("count")
        )
        agg_stats = index.stats.snapshot()

        per_query = np.split(ids, np.cumsum(counts)[:-1])
        for i, query in enumerate(queries):
            if execute[i]:
                expected = np.setdiff1d(table.select(query), deleted)
                assert np.array_equal(np.sort(per_query[i]), expected), i
            else:
                assert len(per_query[i]) == 0, i
                assert partial.count[i] == 0 and partial.total[i] == 0.0, i
                assert partial.minimum[i] == np.inf and partial.maximum[i] == -np.inf, i
        assert counts.sum() > 0
        assert np.array_equal(partial.count, counts)
        assert flat_stats.queries == agg_stats.queries == n_recorded
        assert flat_stats.cells_visited == agg_stats.cells_visited > 0


class TestColumnFiles:
    def test_exactness(self, table, queries):
        index = ColumnFilesIndex(table, cells_per_dim=6, sort_dimension="a")
        for query in queries:
            assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    def test_defaults_to_full_schema(self, table):
        index = ColumnFilesIndex(table)
        assert index.dimensions == tuple(table.schema)
        assert index.sort_dimension == tuple(table.schema)[0]


class TestAbsorbRows:
    """Incremental merge of new rows into an existing sorted-cell grid."""

    def _combined(self, table: Table, seed: int, k: int):
        rng = np.random.default_rng(seed)
        extra = Table(
            {
                "a": rng.uniform(0.0, 120.0, size=k),
                "b": rng.exponential(scale=25.0, size=k),
                "c": rng.normal(40.0, 20.0, size=k),
            }
        )
        combined = table.concat(extra)
        new_ids = np.arange(table.n_rows, combined.n_rows, dtype=np.int64)
        return combined, new_ids

    def test_absorb_matches_rebuild(self, table, queries):
        combined, new_ids = self._combined(table, seed=5, k=1_500)
        incremental = SortedCellGridIndex(table, cells_per_dim=5, sort_dimension="a")
        incremental.absorb_rows(combined.take(new_ids).columns(), new_ids)
        rebuilt = SortedCellGridIndex(combined, cells_per_dim=5, sort_dimension="a")
        assert incremental.n_rows == combined.n_rows
        for query in queries:
            assert np.array_equal(
                np.sort(incremental.range_query(query)),
                np.sort(rebuilt.range_query(query)),
            )
            assert np.array_equal(
                np.sort(incremental.range_query(query)), combined.select(query)
            )

    def test_absorb_keeps_cells_sorted(self, table):
        combined, new_ids = self._combined(table, seed=6, k=800)
        index = SortedCellGridIndex(table, cells_per_dim=4, sort_dimension="b")
        index.absorb_rows(combined.take(new_ids).columns(), new_ids)
        keys = index.column("b")
        offsets = index._offsets
        for cell in range(index.n_cells):
            cell_keys = keys[offsets[cell]:offsets[cell + 1]]
            assert np.all(np.diff(cell_keys) >= 0.0)
        assert offsets[-1] == combined.n_rows

    def test_absorb_empty_batch(self, table):
        index = SortedCellGridIndex(table, cells_per_dim=4)
        no_rows = np.empty(0, dtype=np.int64)
        index.absorb_rows(table.take(no_rows).columns(), no_rows)
        assert index.n_rows == table.n_rows

    def test_absorb_into_empty_index(self, table):
        empty = SortedCellGridIndex(
            table, cells_per_dim=4, row_ids=np.empty(0, dtype=np.int64)
        )
        all_ids = np.arange(table.n_rows, dtype=np.int64)
        empty.absorb_rows(table.columns(), all_ids)
        assert empty.n_rows == table.n_rows
        query = Rectangle({"a": Interval(10.0, 60.0)})
        assert np.array_equal(np.sort(empty.range_query(query)), table.select(query))

    def test_repeated_absorption(self, table, queries):
        index = SortedCellGridIndex(table, cells_per_dim=5, sort_dimension="a")
        current = table
        for seed in (7, 8, 9):
            combined, new_ids = self._combined(current, seed=seed, k=400)
            index.absorb_rows(combined.take(new_ids).columns(), new_ids)
            current = combined
        rebuilt = SortedCellGridIndex(current, cells_per_dim=5, sort_dimension="a")
        for query in queries:
            assert np.array_equal(
                np.sort(index.range_query(query)),
                np.sort(rebuilt.range_query(query)),
            )
