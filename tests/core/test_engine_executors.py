"""Sharded executor tests: aggregates/kNN/top-k across the shard fleet.

Every sharding (1/2/7 shards, serial and on 2- and 4-thread pools) must
answer executor queries bit-identically (COUNT/MIN/MAX, all kNN/top-k ids) to
the unsharded COAX index and the full-scan oracle — SUM/AVG to 1e-9,
since shard merge order re-associates the float folds — including with
pending deltas and tombstones in play, and per-query attribution must
sum back to the batch totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EngineConfig, LayoutConfig
from repro.core.engine import ShardedCOAX
from repro.data.executors import AGGREGATE_OPS, Aggregate, TopK
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.indexes.full_scan import FullScanIndex

SHARDINGS = [(1, "thread", 1), (2, "thread", 2), (7, "thread", 4)]


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(99)
    n = 4_000
    x = np.round(rng.uniform(0.0, 50.0, size=n), 0)
    y = 1.5 * x + rng.normal(0.0, 1.0, size=n)
    v = rng.normal(0.0, 5.0, size=n)
    return Table({"x": x, "y": y, "v": v})


@pytest.fixture(scope="module")
def queries() -> list:
    rng = np.random.default_rng(5)
    out = []
    for _ in range(24):
        a, b = np.sort(rng.uniform(0.0, 50.0, size=2))
        intervals = {"x": Interval(float(a), float(b))}
        if rng.random() < 0.5:
            c, d = np.sort(rng.uniform(-15.0, 90.0, size=2))
            intervals["y"] = Interval(float(c), float(d))
        out.append(Rectangle(intervals))
    out.append(Rectangle({"x": Interval(900.0, 901.0)}))  # empty
    return out


def make_engine(table, n_shards, executor, workers):
    return ShardedCOAX(
        table,
        config=EngineConfig(n_shards=n_shards, executor=executor, workers=workers),
    )


def assert_engine_matches(engine, oracle, queries):
    for op in AGGREGATE_OPS:
        spec = Aggregate(op, None if op == "count" else "v")
        got = engine.batch_aggregate(queries, spec)
        want = oracle.batch_aggregate(queries, spec)
        if op in ("count", "min", "max"):
            assert np.array_equal(got, want, equal_nan=True), op
        else:
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9, equal_nan=True), op


@pytest.mark.parametrize("n_shards,executor,workers", SHARDINGS)
def test_sharded_aggregates_match_oracle(table, queries, n_shards, executor, workers):
    engine = make_engine(table, n_shards, executor, workers)
    try:
        assert_engine_matches(engine, FullScanIndex(table), queries)
    finally:
        engine.close()


@pytest.mark.parametrize("n_shards,executor,workers", SHARDINGS)
def test_sharded_executors_under_interleaved_crud(
    table, queries, n_shards, executor, workers
):
    engine = make_engine(table, n_shards, executor, workers)
    try:
        rng = np.random.default_rng(17)
        fresh = {
            "x": np.round(rng.uniform(0.0, 50.0, size=500), 0),
            "y": rng.uniform(-15.0, 90.0, size=500),
            "v": rng.normal(0.0, 5.0, size=500),
        }
        new_ids = engine.insert_batch(fresh)
        doomed = np.concatenate(
            [np.arange(0, table.n_rows, 9, dtype=np.int64), new_ids[::4]]
        )
        engine.delete_batch(doomed)
        combined = Table(
            {
                name: np.concatenate(
                    [np.asarray(table.column(name), dtype=np.float64), fresh[name]]
                )
                for name in table.schema
            }
        )
        oracle = FullScanIndex(combined)
        oracle.delete_rows(doomed)
        # Pending deltas and tombstones first, then the compacted fleet.
        assert_engine_matches(engine, oracle, queries)
        for point in ({"x": 20.0}, {"x": 3.0, "y": 7.5}):
            for k in (1, 13):
                assert np.array_equal(
                    engine.knn(point, k), oracle.knn(point, k)
                ), (point, k)
        spec = TopK(9, column="v", largest=True)
        for query in queries[:6]:
            assert np.array_equal(engine.topk(query, spec), oracle.topk(query, spec))
        engine.compact()
        assert_engine_matches(engine, oracle, queries)
    finally:
        engine.close()


@pytest.mark.parametrize("n_shards,executor,workers", [(2, "thread", 2)])
def test_sharded_knn_ties_break_by_global_id(n_shards, executor, workers):
    # Duplicate rows landing in different shards: equal distances must
    # resolve toward the smaller *global* id, matching the oracle.
    x = np.tile(np.arange(10.0), 40)
    table = Table({"x": x, "v": np.arange(400.0)})
    engine = make_engine(table, n_shards, executor, workers)
    try:
        oracle = FullScanIndex(table)
        for k in (1, 7, 25):
            got = engine.knn({"x": 4.0}, k)
            assert np.array_equal(got, oracle.knn({"x": 4.0}, k)), k
    finally:
        engine.close()


def test_aggregate_attribution_sums_to_batch(table, queries):
    engine = make_engine(table, 2, "thread", 2)
    try:
        spec = Aggregate("sum", "v")
        values, per_query = engine.batch_aggregate_attributed(queries, spec)
        assert len(values) == len(per_query) == len(queries)
        assert sum(s.queries for s in per_query) == len(queries)
        assert sum(s.aggregates for s in per_query) == len(queries)
        assert all(s.aggregates == 1 for s in per_query)
        assert all(s.knn_queries == 0 for s in per_query)
        # Attributed counters sum back to the engine's batch counters.
        for field in (
            "rows_examined",
            "rows_matched",
            "cells_visited",
            "nodes_visited",
            "shards_pruned",
        ):
            assert sum(getattr(s, field) for s in per_query) == getattr(
                engine.stats, field
            ), field
    finally:
        engine.close()


def test_aggregate_batches_feed_the_layout_monitor(table, queries):
    # The adaptive layout sketches every batch op, not only range queries.
    engine = ShardedCOAX(
        table,
        config=EngineConfig(n_shards=4, workers=2, layout=LayoutConfig(enabled=True)),
    )
    try:
        engine.batch_aggregate(queries, Aggregate("count", None))
        engine.batch_aggregate_attributed(queries, Aggregate("sum", "v"))
        assert engine.layout.observed > 0
    finally:
        engine.close()


def test_engine_stats_count_ops(table, queries):
    engine = make_engine(table, 2, "thread", 2)
    try:
        engine.batch_aggregate(queries, Aggregate("count", None))
        assert engine.stats.aggregates == len(queries)
        assert engine.stats.knn_queries == 0
        engine.knn({"x": 10.0}, 5)
        assert engine.stats.knn_queries == 1
        assert engine.stats.rings_expanded >= 0
        engine.topk(queries[0], TopK(3, column="v"))
        assert engine.stats.knn_queries == 2
        # The materialising path leaves the per-op counters untouched.
        before = engine.stats.aggregates
        engine.batch_range_query(queries[:3])
        assert engine.stats.aggregates == before
    finally:
        engine.close()
