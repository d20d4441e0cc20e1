"""Batch reads over pending delta rows, checked against a full-scan oracle.

COAX hands its delta store the planner's columnar bound matrices, and the
sharded engine slices those matrices per shard sub-batch.  These tests
build an unsharded COAX index and 1- and 4-shard engines (1 and 2
workers), leave inserts, updates and deletes pending (no auto-compaction),
and check that every batch range and aggregate answer equals a brute-force
scan of the live rows and the scalar per-query loop.  Narrow predictor
ranges make shard pruning hand some shard a strict subset of the batch,
so the sliced-bounds path runs too.  The ``QueryStats`` counters must
follow the delta store's accounting: every live query a store is asked
about examines all of its pending rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coax import COAXIndex
from repro.core.config import EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.executors import Aggregate
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel

ENGINE_GRID = [(1, 1), (1, 2), (4, 1), (4, 2)]
SPECS = [
    Aggregate("count"),
    Aggregate("sum", "y"),
    Aggregate("min", "y"),
    Aggregate("max", "z"),
]
COUNTERS = ("queries", "rows_examined", "rows_matched", "cells_visited", "aggregates")


def linear_groups():
    return [
        FDGroup(
            predictor="x",
            dependents=("y",),
            models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
        )
    ]


def fd_rows(rng, n: int):
    """``n`` rows on the soft FD y ~= 2x, a sixth of them outliers."""
    x = rng.uniform(0.0, 100.0, size=n)
    y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
    flip = rng.random(n) < 0.15
    y[flip] = rng.uniform(0.0, 250.0, size=int(flip.sum()))
    return {"x": x, "y": y, "z": rng.uniform(0.0, 8.0, size=n)}


class Reference:
    """The live rows by id: the full-scan oracle every store must match."""

    def __init__(self, columns) -> None:
        self.columns = {name: np.array(values) for name, values in columns.items()}
        self.alive = np.ones(len(columns["x"]), dtype=bool)

    def insert(self, columns, row_ids) -> None:
        assert row_ids.tolist() == list(range(len(self.alive), len(self.alive) + len(row_ids)))
        for name in self.columns:
            self.columns[name] = np.concatenate([self.columns[name], columns[name]])
        self.alive = np.concatenate([self.alive, np.ones(len(row_ids), dtype=bool)])

    def delete(self, row_ids) -> None:
        self.alive[row_ids] = False

    def update(self, row_ids, columns) -> None:
        for name in self.columns:
            self.columns[name][row_ids] = columns[name]

    def select(self, query: Rectangle) -> np.ndarray:
        mask = self.alive.copy()
        for name, interval in query.items():
            mask &= (self.columns[name] >= interval.low) & (self.columns[name] <= interval.high)
        return np.flatnonzero(mask)


def probe_queries(rng) -> list:
    """Narrow predictor ranges (one shard each), dependent-only and
    random boxes, an empty query, an unconstrained one and one that
    misses every row."""
    queries = []
    for _ in range(24):
        x_low = rng.uniform(-5.0, 100.0)
        queries.append(Rectangle({"x": Interval(x_low, x_low + rng.uniform(0.0, 6.0))}))
    for _ in range(8):
        y_low = rng.uniform(0.0, 220.0)
        queries.append(Rectangle({"y": Interval(y_low, y_low + 30.0)}))
    for _ in range(8):
        x_low, y_low = rng.uniform(0.0, 80.0), rng.uniform(0.0, 200.0)
        queries.append(
            Rectangle(
                {
                    "x": Interval(x_low, x_low + 20.0),
                    "y": Interval(y_low, y_low + 50.0),
                    "z": Interval(1.0, 6.0),
                }
            )
        )
    queries += [
        Rectangle({"x": Interval(5.0, 1.0)}),
        Rectangle(),
        Rectangle({"x": Interval(1e6, 2e6)}),
    ]
    return queries


def oracle_aggregate(reference: Reference, query: Rectangle, spec: Aggregate) -> float:
    ids = reference.select(query)
    if spec.op == "count":
        return float(len(ids))
    values = reference.columns[spec.column][ids]
    if spec.op == "sum":
        return float(values.sum())
    return float(getattr(np, spec.op)(values)) if len(ids) else float("nan")


def assert_aggregates_equal(got, want, spec: Aggregate) -> None:
    if spec.op == "sum":
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)
    else:
        np.testing.assert_array_equal(got, want)


def counters(stats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


def advance(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in COUNTERS}


def record_delta_calls(shard: COAXIndex, calls: list) -> None:
    """Log the sub-batch size of every delta batch call on ``shard``."""
    store = shard.delta
    for method in ("scan_batch", "fold_aggregate_batch"):
        original = getattr(store, method)

        def logged(bounds, n_queries, *rest, _original=original):
            calls.append((shard, n_queries))
            return _original(bounds, n_queries, *rest)

        setattr(store, method, logged)


@pytest.fixture(scope="module")
def scenario():
    """Base table, pending inserts, deletes and updates, applied alike to
    the reference, an unsharded COAX index and every engine shape."""
    rng = np.random.default_rng(29)
    base = fd_rows(rng, 800)
    reference = Reference(base)
    table = Table(base)
    index = COAXIndex(table, groups=linear_groups())
    engines = {
        shape: ShardedCOAX(
            table,
            config=EngineConfig(n_shards=shape[0], workers=shape[1]),
            groups=linear_groups(),
        )
        for shape in ENGINE_GRID
    }
    stores = [index, *engines.values()]
    inserted = fd_rows(rng, 240)
    ids = index.insert_batch(inserted)
    for engine in engines.values():
        assert engine.insert_batch(inserted).tolist() == ids.tolist()
    reference.insert(inserted, ids)
    # Deletes and updates hit base rows and pending rows alike.
    doomed = np.unique(np.concatenate([rng.choice(800, 30, replace=False), ids[::9]]))
    moved = np.unique(np.concatenate([rng.choice(800, 20, replace=False), ids[1::7]]))
    moved = np.setdiff1d(moved, doomed)
    changes = fd_rows(rng, len(moved))
    for store in stores:
        store.delete_batch(doomed)
        store.update_batch(moved, changes)
    reference.delete(doomed)
    reference.update(moved, changes)
    # Nothing was compacted: updated base rows wait in the delta store.
    assert np.isin(moved[moved < 800], index.delta.row_ids).all()
    assert index.n_pending == 240 - np.count_nonzero(doomed >= 800) + np.count_nonzero(moved < 800)
    for engine in engines.values():
        assert engine.n_pending == index.n_pending
    try:
        yield reference, index, engines, probe_queries(rng)
    finally:
        for engine in engines.values():
            engine.close()


def snapshot(index: COAXIndex) -> tuple:
    stores = (index, index.primary_index, index.outlier_index)
    return tuple(counters(store.stats) for store in stores)


def work_since(index: COAXIndex, before: tuple):
    """``index``'s counter advance since ``before`` and the rows its primary
    and outlier index examined in that time."""
    own, primary, outlier = (advance(now, old) for now, old in zip(snapshot(index), before))
    return own, primary["rows_examined"] + outlier["rows_examined"]


def test_coax_batches_match_oracle_and_scalar_loop(scenario):
    reference, index, _, queries = scenario
    expected = [reference.select(query) for query in queries]
    assert sum(len(ids) for ids in expected) > 0
    assert [query for query in queries if query.is_empty]
    n_live = sum(not query.is_empty for query in queries)

    scalar = [index.range_query(query) for query in queries]
    before = snapshot(index)
    batch = index.batch_range_query(queries)
    work, sub_examined = work_since(index, before)
    for want, got_scalar, got_batch in zip(expected, scalar, batch):
        assert np.array_equal(want, got_scalar)
        assert np.array_equal(want, got_batch)
    assert work["queries"] == n_live
    assert work["rows_matched"] == sum(len(ids) for ids in expected)
    assert work["rows_examined"] == sub_examined + index.n_pending * n_live

    for spec in SPECS:
        want = np.array([oracle_aggregate(reference, query, spec) for query in queries])
        before = snapshot(index)
        got = index.batch_aggregate(queries, spec)
        work, sub_examined = work_since(index, before)
        assert_aggregates_equal(got, want, spec)
        assert_aggregates_equal(got, [index.aggregate(query, spec) for query in queries], spec)
        assert work["aggregates"] == len(queries)
        assert work["rows_matched"] == sum(len(ids) for ids in expected)
        assert work["rows_examined"] == sub_examined + index.n_pending * n_live


@pytest.mark.parametrize("shape", ENGINE_GRID, ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_engine_batches_match_oracle_on_shard_sub_batches(scenario, shape):
    reference, _, engines, queries = scenario
    engine = engines[shape]
    expected = [reference.select(query) for query in queries]
    calls: list = []
    for shard in engine.shards:
        record_delta_calls(shard, calls)
    try:
        engine.stats.reset()
        scalar = [engine.range_query(query) for query in queries]
        scalar_stats = counters(engine.stats)
        engine.stats.reset()
        batch = check_shard_accounting(engine, calls, engine.batch_range_query, queries)
        assert counters(engine.stats) == scalar_stats
        for want, got_scalar, got_batch in zip(expected, scalar, batch):
            assert np.array_equal(want, got_scalar)
            assert np.array_equal(want, got_batch)
        for spec in SPECS:
            want = np.array([oracle_aggregate(reference, query, spec) for query in queries])
            got = check_shard_accounting(engine, calls, engine.batch_aggregate, queries, spec)
            assert_aggregates_equal(got, want, spec)
            assert_aggregates_equal(
                got, [engine.aggregate(query, spec) for query in queries], spec
            )
    finally:
        for shard in engine.shards:
            for method in ("scan_batch", "fold_aggregate_batch"):
                vars(shard.delta).pop(method, None)
    if shape[0] > 1:
        # Pruning handed some shard a strict, non-empty subset of a batch.
        assert any(0 < n_queries < len(queries) for _, n_queries in calls)


def check_shard_accounting(engine, calls, run, *args):
    """Run one engine batch call and check every shard's rows examined: its
    sub-indexes' work plus all pending rows per query its delta store was
    asked about (engine sub-batches hold live queries only)."""
    before = [snapshot(shard) for shard in engine.shards]
    calls.clear()
    result = run(*args)
    for shard, old in zip(engine.shards, before):
        asked = sum(n_queries for owner, n_queries in calls if owner is shard)
        work, sub_examined = work_since(shard, old)
        assert work["rows_examined"] == sub_examined + shard.n_pending * asked
    return result
