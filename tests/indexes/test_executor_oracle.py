"""Executor property tests: every optimised path vs the full-scan oracle.

The oracle (:class:`FullScanIndex`) re-implements aggregates, kNN and
top-k from first principles; these tests hold the grid fold kernels and
the COAX facade to it element-for-element — bit-for-bit for COUNT/MIN/MAX
(integer run arithmetic, order-free extremes), 1e-9 for SUM/AVG whose
fold order legitimately differs — including under interleaved CRUD, and
prove the aggregate path never materialises candidate row ids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coax import COAXIndex
from repro.data.executors import AGGREGATE_OPS, Aggregate, TopK
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.grid_file import SortedCellGridIndex


def random_rectangles(table: Table, n: int, rng: np.random.Generator):
    """Random rectangles over random dimension subsets, empties included."""
    dims = list(table.schema)
    queries = []
    for _ in range(n):
        chosen = rng.choice(dims, size=rng.integers(1, len(dims) + 1), replace=False)
        intervals = {}
        for dim in chosen:
            column = np.asarray(table.column(dim), dtype=np.float64)
            a, b = rng.uniform(column.min(), column.max(), size=2)
            lo, hi = (a, b) if a <= b else (b, a)
            if rng.random() < 0.1:
                lo, hi = hi + 1.0, hi + 2.0  # deliberately empty
            intervals[dim] = Interval(float(lo), float(hi))
        queries.append(Rectangle(intervals))
    return queries


def assert_aggregates_match_oracle(index, oracle, queries, column: str) -> None:
    for op in AGGREGATE_OPS:
        spec = Aggregate(op, None if op == "count" else column)
        got = index.batch_aggregate(queries, spec)
        want = oracle.batch_aggregate(queries, spec)
        if op in ("count", "min", "max"):
            assert np.array_equal(got, want, equal_nan=True), op
        else:
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9, equal_nan=True), op


@pytest.fixture(scope="module")
def corr_table() -> Table:
    """Correlated 3-column table with duplicated values to force ties."""
    rng = np.random.default_rng(42)
    n = 5_000
    x = np.round(rng.uniform(0.0, 60.0, size=n), 0)  # coarse: many exact ties
    y = 2.0 * x + 5.0 + rng.normal(0.0, 1.0, size=n)
    v = rng.normal(0.0, 10.0, size=n)
    return Table({"x": x, "y": y, "v": v})


class TestGridAggregates:
    def test_grid_matches_oracle(self, corr_table, rng):
        index = SortedCellGridIndex(corr_table, cells_per_dim=5)
        oracle = FullScanIndex(corr_table)
        queries = random_rectangles(corr_table, 40, np.random.default_rng(0))
        assert_aggregates_match_oracle(index, oracle, queries, "v")

    def test_grid_matches_oracle_after_deletes(self, corr_table):
        index = SortedCellGridIndex(corr_table, cells_per_dim=5)
        oracle = FullScanIndex(corr_table)
        doomed = np.arange(0, corr_table.n_rows, 7, dtype=np.int64)
        index.delete_rows(doomed)
        oracle.delete_rows(doomed)
        queries = random_rectangles(corr_table, 25, np.random.default_rng(1))
        assert_aggregates_match_oracle(index, oracle, queries, "v")

    def test_empty_match_semantics(self, corr_table):
        index = SortedCellGridIndex(corr_table, cells_per_dim=5)
        nothing = [Rectangle({"x": Interval(1e9, 2e9)})]
        assert index.batch_aggregate(nothing, Aggregate("count", None))[0] == 0
        assert index.batch_aggregate(nothing, Aggregate("sum", "v"))[0] == 0.0
        for op in ("min", "max", "avg"):
            assert np.isnan(index.batch_aggregate(nothing, Aggregate(op, "v"))[0])


class TestCOAXAggregates:
    def test_coax_matches_oracle(self, corr_table, fast_coax_config):
        index = COAXIndex(corr_table, config=fast_coax_config)
        oracle = FullScanIndex(corr_table)
        queries = random_rectangles(corr_table, 40, np.random.default_rng(2))
        assert_aggregates_match_oracle(index, oracle, queries, "v")

    def test_coax_matches_oracle_under_interleaved_crud(
        self, corr_table, fast_coax_config
    ):
        index = COAXIndex(corr_table, config=fast_coax_config)
        rng = np.random.default_rng(3)
        n_new = 600
        fresh = {
            "x": np.round(rng.uniform(0.0, 60.0, size=n_new), 0),
            "y": rng.uniform(0.0, 130.0, size=n_new),
            "v": rng.normal(0.0, 10.0, size=n_new),
        }
        new_ids = index.insert_batch(fresh)
        assert len(new_ids) == n_new
        doomed = np.concatenate(
            [
                np.arange(0, corr_table.n_rows, 9, dtype=np.int64),
                new_ids[::5],
            ]
        )
        index.delete_batch(doomed)

        combined = Table(
            {
                name: np.concatenate(
                    [np.asarray(corr_table.column(name), dtype=np.float64), fresh[name]]
                )
                for name in corr_table.schema
            }
        )
        oracle = FullScanIndex(combined)
        oracle.delete_rows(doomed)

        queries = random_rectangles(corr_table, 30, np.random.default_rng(4))
        # Pending (un-compacted) deltas first, then the compacted layout.
        assert_aggregates_match_oracle(index, oracle, queries, "v")
        index.compact()
        assert_aggregates_match_oracle(index, oracle, queries, "v")

    def test_airline_coax_matches_oracle(self, airline_coax, airline_small):
        oracle = FullScanIndex(airline_small)
        queries = random_rectangles(airline_small, 25, np.random.default_rng(5))
        assert_aggregates_match_oracle(airline_coax, oracle, queries, "AirTime")


class _TrapArray(np.ndarray):
    """Row-id array that refuses to be gathered from."""

    def __getitem__(self, item):  # noqa: D105
        raise AssertionError("aggregate path materialised candidate row ids")


class TestNoIdMaterialization:
    def test_aggregates_never_touch_row_id_arrays(self, corr_table, fast_coax_config):
        # The enforcement teeth behind the repro-lint materialize pass:
        # every row-id array on the read path is replaced by a trap that
        # raises on any indexing, and the aggregate answers must still
        # come out — folded from runs and column values, never from ids.
        index = COAXIndex(corr_table, config=fast_coax_config)
        queries = random_rectangles(corr_table, 15, np.random.default_rng(6))
        expected = {
            op: index.batch_aggregate(
                queries, Aggregate(op, None if op == "count" else "v")
            )
            for op in AGGREGATE_OPS
        }
        traps = []
        # The sub-indexes hold every row id; the facade keeps no id array.
        for sub in (index.primary_index, index.outlier_index):
            traps.append((sub, sub._row_ids))
            sub._row_ids = sub._row_ids.view(_TrapArray)
        try:
            for op, want in expected.items():
                spec = Aggregate(op, None if op == "count" else "v")
                got = index.batch_aggregate(queries, spec)
                assert np.array_equal(got, want, equal_nan=True)
        finally:
            for sub, original in traps:
                sub._row_ids = original


class TestTopKAndKNN:
    def test_knn_matches_oracle_with_ties(self, corr_table, fast_coax_config):
        index = COAXIndex(corr_table, config=fast_coax_config)
        oracle = FullScanIndex(corr_table)
        rng = np.random.default_rng(7)
        for _ in range(12):
            # Integer-grid centres over the rounded x column force exact
            # distance ties, so only the row-id tie-break makes the
            # result well-defined.
            point = {"x": float(rng.integers(0, 60))}
            if rng.random() < 0.5:
                point["y"] = float(rng.uniform(0.0, 130.0))
            for metric in ("l2", "linf"):
                k = int(rng.integers(1, 40))
                got = index.knn(point, k, metric=metric)
                want = oracle.knn(point, k, metric=metric)
                assert np.array_equal(got, want), (point, metric, k)

    def test_knn_k_larger_than_live_rows(self):
        table = Table({"x": np.arange(5.0), "v": np.arange(5.0)})
        index = SortedCellGridIndex(table, cells_per_dim=2)
        ids = index.knn({"x": 2.2}, 50)
        assert sorted(ids.tolist()) == [0, 1, 2, 3, 4]
        assert ids.tolist()[0] == 2

    def test_topk_by_column_matches_oracle(self, corr_table, fast_coax_config):
        index = COAXIndex(corr_table, config=fast_coax_config)
        oracle = FullScanIndex(corr_table)
        queries = random_rectangles(corr_table, 10, np.random.default_rng(8))
        for query in queries:
            for largest in (False, True):
                spec = TopK(7, column="v", largest=largest)
                assert np.array_equal(
                    index.topk(query, spec), oracle.topk(query, spec)
                ), (query, largest)

    def test_topk_sees_pending_and_deleted_rows(self, corr_table, fast_coax_config):
        index = COAXIndex(corr_table, config=fast_coax_config)
        oracle = FullScanIndex(corr_table)
        spec = TopK(5, column="v", largest=True)
        query = Rectangle({"x": Interval(10.0, 50.0)})
        top = index.topk(query, spec)
        index.delete_batch(top[:2])
        oracle.delete_rows(top[:2])
        assert np.array_equal(index.topk(query, spec), oracle.topk(query, spec))
