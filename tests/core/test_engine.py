"""Tests for the sharded scatter-gather engine (``ShardedCOAX``).

The engine is a pure execution-layer refactor: for any shard count,
worker count and partitioning scheme, every query — scalar or batch,
before or after arbitrary interleaved CRUD, across a format-v4 save/load
round trip — must return exactly what one unsharded ``COAXIndex`` over
the same data returns.  The property tests drive that oracle equivalence;
dedicated tests pin id ownership (every live id held by exactly one
shard), the pruning counters, the concurrency contract and the
persistence surface.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig, EngineConfig, LayoutConfig, MaintenanceConfig
from repro.core.engine import EngineClosedError, ShardedCOAX
from repro.core.layout import LayoutProposal
from repro.data.executors import TopK
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel
from repro.io.persistence import (
    _read_columnar,
    _write_columnar,
    load_engine,
    load_index,
    save_index,
)

#: Shard/worker grid the satellite property test runs (7 shards is prime
#: on purpose: uneven partitions, some possibly empty after deletes).
ENGINE_GRID = [(1, 1), (1, 4), (2, 1), (2, 4), (7, 1), (7, 4)]

PROBES = [
    Rectangle({"x": Interval(10.0, 60.0)}),
    Rectangle({"y": Interval(30.0, 130.0)}),
    Rectangle({"x": Interval(0.0, 100.0), "y": Interval(-1e6, 1e6)}),
    Rectangle({"y": Interval(150.0, 220.0)}),  # dependent-only: translated
    Rectangle({"x": Interval(5.0, 1.0)}),  # empty
    Rectangle({"x": Interval(1e6, 2e6)}),  # misses every shard box
    Rectangle(),
]


def linear_groups():
    return [
        FDGroup(
            predictor="x",
            dependents=("y",),
            models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
        )
    ]


def linear_table(seed: int, n: int = 400) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 100.0, size=n)
    y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
    flip = rng.random(n) < 0.15
    y[flip] = rng.uniform(0.0, 250.0, size=int(flip.sum()))
    return Table({"x": x, "y": y})


def build_engine(table: Table, n_shards: int, workers: int, **kwargs) -> ShardedCOAX:
    return ShardedCOAX(
        table,
        config=EngineConfig(n_shards=n_shards, workers=workers, **kwargs),
        groups=linear_groups(),
    )


def stats_tuple(stats):
    return (
        stats.queries,
        stats.rows_examined,
        stats.rows_matched,
        stats.cells_visited,
        stats.nodes_visited,
        stats.shards_pruned,
    )


def assert_engine_matches_oracle(engine: ShardedCOAX, oracle: COAXIndex, queries):
    """Results bit-identical to the oracle; engine batch == engine scalar
    including every ``QueryStats`` counter."""
    expected = [oracle.range_query(query) for query in queries]
    engine.stats.reset()
    scalar = [engine.range_query(query) for query in queries]
    scalar_stats = stats_tuple(engine.stats)
    engine.stats.reset()
    batch = engine.batch_range_query(queries)
    batch_stats = stats_tuple(engine.stats)
    for position, (want, got_scalar, got_batch) in enumerate(
        zip(expected, scalar, batch)
    ):
        assert np.array_equal(want, got_scalar), ("scalar", position)
        assert np.array_equal(want, got_batch), ("batch", position)
    assert scalar_stats == batch_stats
    return batch_stats


class TestConstruction:
    def test_range_partitioning_covers_every_row_once(self):
        table = linear_table(0)
        engine = build_engine(table, 4, 1)
        assert engine.n_shards == 4
        assert engine.partition_dimension == "x"
        assert len(engine.shard_boundaries) == 3
        assert np.all(np.diff(engine.shard_boundaries) >= 0)
        covered = np.sort(np.concatenate([s.row_ids for s in engine.shards]))
        assert len(covered) == table.n_rows  # locally, every shard is dense
        assert np.array_equal(np.sort(engine.row_ids), np.arange(table.n_rows))
        # Quantile boundaries give near-even shard sizes.
        sizes = [shard.n_rows for shard in engine.shards]
        assert max(sizes) - min(sizes) <= 2

    def test_hash_partitioning_spreads_by_row_id(self):
        table = linear_table(1)
        engine = build_engine(table, 3, 1, partitioning="hash")
        assert engine.partition_dimension is None
        for global_id in (0, 1, 2, 5, 399):
            probe = np.array([global_id], dtype=np.int64)
            holders = [no for no, shard in enumerate(engine.shards) if shard.rows_live(probe)[0]]
            assert holders == [global_id % 3]

    def test_mapping_round_trips_every_global_id(self):
        """Every global id of the build is held by exactly one shard, which
        answers with that id."""
        table = linear_table(2)
        engine = build_engine(table, 7, 1)
        every_id = np.arange(table.n_rows, dtype=np.int64)
        holders = np.zeros(table.n_rows, dtype=np.int64)
        for shard in engine.shards:
            holders += shard.rows_live(every_id)
            assert np.array_equal(
                np.sort(shard.range_query(Rectangle())), shard.row_ids
            )
        assert np.all(holders == 1)

    def test_more_shards_than_rows_tolerated(self):
        table = linear_table(3, n=5)
        engine = build_engine(table, 7, 1)
        assert engine.n_rows == 5
        assert np.array_equal(
            np.sort(engine.range_query(Rectangle())), np.arange(5, dtype=np.int64)
        )

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(n_shards=0)
        with pytest.raises(ValueError):
            EngineConfig(workers=0)
        with pytest.raises(ValueError):
            EngineConfig(partitioning="modulo")

    def test_shared_groups_across_shards(self):
        engine = build_engine(linear_table(4), 3, 1)
        for shard in engine.shards:
            assert [g.predictor for g in shard.groups] == ["x"]


class TestOneCopyPerRecord:
    """The sub-indexes hold the only copy of every record: the data bytes
    are 8 per value, and no index keeps its build table alive."""

    def test_flat_index(self):
        table = linear_table(31, n=2_000)
        n_values = table.n_rows * len(table.schema)
        probe = weakref.ref(table.column("x"))
        index = COAXIndex(table, groups=linear_groups())
        assert index.data_bytes() == 8 * n_values
        del table
        gc.collect()
        assert probe() is None
        assert index.count(Rectangle()) == 2_000

    def test_four_shard_engine(self):
        table = linear_table(32, n=2_000)
        n_values = table.n_rows * len(table.schema)
        probe = weakref.ref(table.column("x"))
        engine = build_engine(table, 4, 1)
        assert sum(shard.data_bytes() for shard in engine.shards) == 8 * n_values
        del table
        gc.collect()
        assert probe() is None
        assert engine.count(Rectangle()) == 2_000


class TestPruning:
    def test_missed_boxes_are_pruned_and_counted(self):
        table = linear_table(5)
        engine = build_engine(table, 4, 1)
        engine.stats.reset()
        # x in [0, 10] lives entirely in the first range shard.
        hits = engine.range_query(Rectangle({"x": Interval(0.0, 10.0)}))
        expected = table.select(Rectangle({"x": Interval(0.0, 10.0)}))
        assert np.array_equal(np.sort(hits), expected)
        assert engine.stats.shards_pruned >= 2
        assert engine.stats.queries == 1

    def test_unsharded_indexes_never_touch_the_counter(self):
        oracle = COAXIndex(linear_table(6), groups=linear_groups())
        oracle.range_query(Rectangle({"x": Interval(0.0, 10.0)}))
        assert oracle.stats.shards_pruned == 0

    def test_pruning_cannot_hide_pending_rows(self):
        table = linear_table(7)
        engine = build_engine(table, 4, 1)
        # Insert far outside every build-time bounding box.
        row_id = engine.insert({"x": 1_000.0, "y": 5_000.0})
        hits = engine.range_query(Rectangle({"x": Interval(900.0, 1_100.0)}))
        assert hits.tolist() == [row_id]
        # After compaction the row lives in a main structure; still found.
        engine.compact()
        hits = engine.range_query(Rectangle({"x": Interval(900.0, 1_100.0)}))
        assert hits.tolist() == [row_id]

    def test_pruning_recovers_after_drain_and_refill(self):
        """Regression: a drained delta buffer must stop inflating the hull.

        Far-away inserts grow a shard's delta box; once they are all
        deleted the box must reset, so later nearby inserts leave a tight
        hull and far-away queries prune the shard again instead of
        visiting it forever.
        """
        table = linear_table(19)
        engine = build_engine(table, 4, 1)
        # A region between the two far inserts below: always empty, but
        # inside the hull their union spans.
        probe = Rectangle({"x": Interval(600.0, 800.0)})

        def pruned_on_probe() -> int:
            engine.stats.reset()
            assert len(engine.range_query(probe)) == 0
            return engine.stats.shards_pruned

        baseline = pruned_on_probe()
        assert baseline == 4  # every shard misses the probe rectangle
        # Inflate the last shard's delta hull (both rows route above the
        # last range boundary), then drain it completely.
        ids = engine.insert_batch({"x": [500.0, 1_000.0], "y": [10.0, 20.0]})
        assert pruned_on_probe() < baseline
        assert engine.delete_batch(ids) == 2
        # Refill the same shard's buffer with nearby rows only.
        engine.insert_batch({"x": [99.0], "y": [198.0]})
        assert pruned_on_probe() == baseline

    def test_nan_batches_rejected_before_reaching_any_shard(self):
        """Engine-level pruning can never be poisoned through the insert
        path: non-finite batches are rejected up front with the typed
        error and no shard state changes."""
        from repro.core.delta import NonFiniteBatchError

        table = linear_table(20)
        engine = build_engine(table, 2, 1)
        before = engine.next_row_id
        with pytest.raises(NonFiniteBatchError):
            engine.insert_batch({"x": [1.0, np.nan], "y": [2.0, 4.0]})
        assert engine.next_row_id == before
        assert engine.n_pending == 0

    def test_nan_delta_rows_are_never_hidden_by_pruning(self):
        """Even if NaN data reaches a delta buffer directly (bypassing
        coerce_batch, as a hand-built restore could), the hull falls back
        to conservative bounds and queries still find the live rows."""
        table = linear_table(21)
        engine = build_engine(table, 4, 1)
        shard = engine.shards[3]
        global_id = engine._next_global_id
        shard.delta.append_batch(
            {"x": np.array([1_000.0]), "y": np.array([np.nan])},
            np.array([global_id], dtype=np.int64),
        )
        engine._next_global_id += 1
        hits = engine.range_query(Rectangle({"x": Interval(900.0, 1_100.0)}))
        assert hits.tolist() == [global_id]


class TestSingleShardParity:
    def test_one_shard_engine_equals_flat_coax(self):
        table = linear_table(8)
        oracle = COAXIndex(table, groups=linear_groups())
        engine = build_engine(table, 1, 1)
        batch = {"x": [10.0, 20.0], "y": [20.1, 700.0]}
        assert np.array_equal(oracle.insert_batch(batch), engine.insert_batch(batch))
        assert_engine_matches_oracle(engine, oracle, PROBES)
        assert engine.n_pending == oracle.n_pending
        assert engine.n_live == oracle.n_live


class TestEquivalenceProperty:
    """Satellite: 1/2/7 shards x 1/4 workers, interleaved CRUD, stats
    parity, and a v4 save/load round trip — all bit-identical to the
    unsharded COAX oracle.

    ``QueryStats`` parity here means: (a) engine batch and engine scalar
    execution leave identical counters, (b) counters are invariant to the
    worker count (parallel scatter is deterministic), and (c) ``queries``
    and ``rows_matched`` equal the oracle's.  ``rows_examined`` /
    ``cells_visited`` legitimately differ from the oracle's in either
    direction: per-shard quantile grids draw different cell boundaries
    (usually fewer candidates), while engine-level pruning skips whole
    shards including their pending scans.
    """

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_interleaved_crud_matches_oracle(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        table = linear_table(seed)
        oracle = COAXIndex(table, groups=linear_groups())
        engines = {
            (shards, workers): build_engine(table, shards, workers)
            for shards, workers in ENGINE_GRID
        }
        reference_ids = set(range(table.n_rows))
        try:
            for round_no in range(3):
                k = int(rng.integers(5, 60))
                bx = rng.uniform(0.0, 100.0, size=k)
                by = 2.0 * bx + rng.uniform(-10.0, 10.0, size=k)
                expected_ids = oracle.insert_batch({"x": bx, "y": by})
                reference_ids.update(int(i) for i in expected_ids)
                live = np.array(sorted(reference_ids), dtype=np.int64)
                doomed = rng.choice(
                    live, size=min(len(live), int(rng.integers(1, 50))), replace=False
                )
                reference_ids.difference_update(int(i) for i in doomed)
                survivors = np.array(sorted(reference_ids), dtype=np.int64)
                targets = np.unique(
                    rng.choice(
                        survivors,
                        size=min(len(survivors), int(rng.integers(1, 30))),
                        replace=False,
                    )
                )
                ux = rng.uniform(0.0, 100.0, size=len(targets))
                uy = 2.0 * ux + rng.uniform(-10.0, 10.0, size=len(targets))
                deleted_oracle = oracle.delete_batch(doomed)
                oracle.update_batch(targets, {"x": ux, "y": uy})
                if round_no == 1:
                    oracle.compact()
                per_shardcount_stats = {}
                for (shards, workers), engine in engines.items():
                    got_ids = engine.insert_batch({"x": bx, "y": by})
                    assert np.array_equal(got_ids, expected_ids), (shards, workers)
                    assert engine.delete_batch(doomed) == deleted_oracle
                    engine.update_batch(targets, {"x": ux, "y": uy})
                    if round_no == 1:
                        engine.compact()
                    engine_stats = assert_engine_matches_oracle(
                        engine, oracle, PROBES
                    )
                    # Worker count must not change any counter.
                    key = shards
                    if key in per_shardcount_stats:
                        assert per_shardcount_stats[key] == engine_stats, (
                            shards,
                            workers,
                        )
                    per_shardcount_stats[key] = engine_stats
                    assert engine.n_pending == oracle.n_pending, (shards, workers)
                    assert engine.n_live == oracle.n_live, (shards, workers)
                # Logical-query and matched counters agree with the oracle.
                oracle.stats.reset()
                oracle.batch_range_query(PROBES)
                for shards, stats in per_shardcount_stats.items():
                    assert stats[0] == oracle.stats.queries, shards
                    assert stats[2] == oracle.stats.rows_matched, shards
            # Format v4 round trip of the final (un-compacted) CRUD state.
            engine = engines[(7, 4)]
            path = tmp_path_factory.mktemp("engine") / "engine.coax.npz"
            loaded = load_index(save_index(engine, path))
            assert isinstance(loaded, ShardedCOAX)
            assert loaded.n_shards == 7
            assert loaded.next_row_id == oracle.next_row_id
            assert loaded.n_pending == oracle.n_pending
            assert loaded.n_live == oracle.n_live
            assert_engine_matches_oracle(loaded, oracle, PROBES)
            loaded.compact()
            oracle_copy_results = [oracle.range_query(q) for q in PROBES]
            for want, got in zip(
                oracle_copy_results, [loaded.range_query(q) for q in PROBES]
            ):
                assert np.array_equal(want, got)
        finally:
            for engine in engines.values():
                engine.close()


class TestReLayoutEquivalenceProperty:
    """Satellite: the workload-adaptive re-layout is invisible to query
    results.  Engines at 1/2/7 shards run hot skewed traffic (feeding
    the layout sketch) interleaved with CRUD and compactions (the
    re-layout points); after every round each engine must stay
    bit-identical to the unsharded COAX oracle, across every adopted
    boundary change and any shard-count change within the budget.
    """

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_relayout_under_interleaved_crud_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        table = linear_table(seed)
        oracle = COAXIndex(table, groups=linear_groups())
        layout = LayoutConfig(
            enabled=True, sketch_size=64, min_queries=8, min_gain=1.0, max_shards=8
        )
        engines = {
            shards: build_engine(table, shards, 1, layout=layout)
            for shards in (1, 2, 7)
        }
        reference_ids = set(range(table.n_rows))
        try:
            for round_no in range(3):
                # Hot traffic in one narrow random region: this is what
                # the monitor learns from, and it must come back exactly
                # the oracle's rows while doing so.
                low = float(rng.uniform(0.0, 80.0))
                hot = [
                    Rectangle(
                        {
                            "x": Interval(low + d, low + d + 3.0),
                            "y": Interval(2.0 * (low + d) - 2.0, 2.0 * (low + d) + 8.0),
                        }
                    )
                    for d in np.linspace(0.0, 10.0, 12)
                ]
                expected_hot = [oracle.range_query(query) for query in hot]
                for engine in engines.values():
                    for want, got in zip(expected_hot, engine.batch_range_query(hot)):
                        assert np.array_equal(want, got)
                # Interleaved CRUD, mirrored into the oracle.
                k = int(rng.integers(5, 40))
                bx = rng.uniform(low, low + 12.0, size=k)
                by = 2.0 * bx + rng.uniform(-1.0, 1.0, size=k)
                expected_ids = oracle.insert_batch({"x": bx, "y": by})
                reference_ids.update(int(i) for i in expected_ids)
                live = np.array(sorted(reference_ids), dtype=np.int64)
                doomed = rng.choice(
                    live, size=min(len(live), int(rng.integers(1, 30))), replace=False
                )
                reference_ids.difference_update(int(i) for i in doomed)
                survivors = np.array(sorted(reference_ids), dtype=np.int64)
                targets = np.unique(
                    rng.choice(
                        survivors,
                        size=min(len(survivors), int(rng.integers(1, 20))),
                        replace=False,
                    )
                )
                ux = rng.uniform(0.0, 100.0, size=len(targets))
                uy = 2.0 * ux + rng.uniform(-1.0, 1.0, size=len(targets))
                deleted_oracle = oracle.delete_batch(doomed)
                oracle.update_batch(targets, {"x": ux, "y": uy})
                oracle.compact()
                for shards, engine in engines.items():
                    got_ids = engine.insert_batch({"x": bx, "y": by})
                    assert np.array_equal(got_ids, expected_ids), shards
                    assert engine.delete_batch(doomed) == deleted_oracle, shards
                    engine.update_batch(targets, {"x": ux, "y": uy})
                    engine.compact()  # the re-layout point
                    assert_engine_matches_oracle(engine, oracle, PROBES)
                    assert engine.n_pending == oracle.n_pending, shards
                    assert engine.n_live == oracle.n_live, shards
            # The concentrated workload at min_gain=1.0 must have made at
            # least one engine adopt — otherwise this property never
            # exercised a re-layout at all.
            epochs = {
                shards: engine.layout.epoch if engine.layout is not None else 0
                for shards, engine in engines.items()
            }
            assert any(epoch >= 1 for epoch in epochs.values()), epochs
        finally:
            for engine in engines.values():
                engine.close()


#: Steps the id-ownership property draws its sequences from.
OWNERSHIP_STEPS = ("insert", "delete", "update", "compact_shard", "compact", "relayout", "reload")


def assert_id_ownership(engine: ShardedCOAX, live) -> None:
    """Every live global id is held by exactly one shard — live in one of
    its grids or pending in its delta store, never both — and no shard
    holds a dead or never-issued id."""
    probe = np.arange(-2, engine.next_row_id + 3, dtype=np.int64)
    holders = np.zeros(len(probe), dtype=np.int64)
    for shard in engine.shards:
        in_grids = shard.primary_index.rows_live(probe).astype(np.int64)
        in_grids += shard.outlier_index.rows_live(probe)
        places = in_grids + np.isin(probe, shard.delta.row_ids)
        assert np.all(places <= 1)
        holders += places
    assert np.array_equal(holders, np.isin(probe, list(live)).astype(np.int64))
    assert engine.memory_breakdown()["mapping"] == 0


class TestIdOwnershipProperty:
    """The engine keeps no id mapping: a lookup by id asks the shards, so
    it is only correct while every live id sits in exactly one shard.
    Any sequence of writes, per-shard and full compactions, forced
    re-layouts and save/load round trips, under range and hash
    partitioning, must keep that after every step, with answers equal to
    an unsharded COAX index given the same writes."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        partitioning=st.sampled_from(["range", "hash"]),
        steps=st.lists(st.sampled_from(OWNERSHIP_STEPS), min_size=1, max_size=8),
    )
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_every_live_id_is_held_by_exactly_one_shard(
        self, seed, partitioning, steps, tmp_path_factory
    ):
        rng = np.random.default_rng(seed)
        table = linear_table(seed, n=200)
        oracle = COAXIndex(table, groups=linear_groups())
        engine = build_engine(table, 3, 1, partitioning=partitioning)
        live = set(range(table.n_rows))
        assert_id_ownership(engine, live)
        try:
            for step_no, step in enumerate(steps):
                if step == "insert":
                    x = rng.uniform(0.0, 100.0, size=int(rng.integers(1, 30)))
                    ids = engine.insert_batch({"x": x, "y": 2.0 * x})
                    assert np.array_equal(ids, oracle.insert_batch({"x": x, "y": 2.0 * x}))
                    live.update(ids.tolist())
                elif step == "delete":
                    doomed = rng.integers(-1, engine.next_row_id + 2, size=20)
                    assert engine.delete_batch(doomed) == oracle.delete_batch(doomed)
                    live.difference_update(doomed.tolist())
                elif step == "update" and live:
                    pool = np.array(sorted(live), dtype=np.int64)
                    targets = rng.choice(pool, size=min(len(pool), 10), replace=False)
                    # Pending rows too: their owner is known only to its delta store.
                    pending = np.concatenate([shard.delta.row_ids for shard in engine.shards])
                    targets = np.union1d(targets, pending[:5])
                    x = rng.uniform(0.0, 100.0, size=len(targets))
                    engine.update_batch(targets, {"x": x, "y": 2.0 * x})
                    oracle.update_batch(targets, {"x": x, "y": 2.0 * x})
                elif step == "compact_shard":
                    engine.compact(shard=int(rng.integers(0, engine.n_shards)))
                elif step == "relayout" and partitioning == "range":
                    n_new = int(rng.integers(1, 5))
                    boundaries = np.sort(rng.uniform(0.0, 100.0, size=n_new - 1))
                    proposal = LayoutProposal(
                        boundaries=tuple(boundaries.tolist()),
                        n_shards=n_new,
                        old_cost=1.0,
                        new_cost=1.0,
                        n_queries=0,
                    )
                    with engine.write_lock:
                        engine._rebuild_layout(proposal, list(engine.groups))
                elif step == "reload":
                    path = tmp_path_factory.mktemp("ownership") / f"step{step_no}"
                    save_index(engine, path)
                    reloaded = load_engine(path)
                    engine.close()
                    engine = reloaded
                else:
                    # "compact", and the steps that do not apply here: a
                    # re-layout under hash partitioning, an update with
                    # no live row left.
                    engine.compact()
                    oracle.compact()
                assert_id_ownership(engine, live)
                assert_engine_matches_oracle(engine, oracle, PROBES)
        finally:
            engine.close()


class TestProcessExecutor:
    """The contract the removed process executor was held to, now held by
    the thread pool: a 4-worker engine stays bit-identical — ids, order
    AND every ``QueryStats`` counter — to the serial execution of the same
    engine shape under interleaved CRUD + compact, and ``close()``
    releases every pool thread and fd."""

    def test_executor_config_validation(self):
        with pytest.raises(ValueError, match="process executor was removed"):
            EngineConfig(executor="process")
        with pytest.raises(ValueError):
            EngineConfig(executor="fibers")
        assert EngineConfig(executor="thread").executor == "thread"
        assert EngineConfig().executor == "thread"

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_interleaved_crud_parity_across_executors(self, seed):
        rng = np.random.default_rng(seed)
        table = linear_table(seed)
        oracle = COAXIndex(table, groups=linear_groups())
        threaded = build_engine(table, 4, 4)
        serial = build_engine(table, 4, 1)
        engines = [threaded, serial]
        try:
            for round_no in range(2):
                k = int(rng.integers(5, 40))
                bx = rng.uniform(0.0, 100.0, size=k)
                by = 2.0 * bx + rng.uniform(-10.0, 10.0, size=k)
                new_ids = oracle.insert_batch({"x": bx, "y": by})
                live = oracle.live_row_ids()
                doomed = rng.choice(
                    live, size=min(len(live), int(rng.integers(1, 30))), replace=False
                )
                deleted = oracle.delete_batch(doomed)
                survivors = oracle.live_row_ids()
                targets = np.unique(
                    rng.choice(
                        survivors,
                        size=min(len(survivors), int(rng.integers(1, 20))),
                        replace=False,
                    )
                )
                ux = rng.uniform(0.0, 100.0, size=len(targets))
                uy = 2.0 * ux + rng.uniform(-10.0, 10.0, size=len(targets))
                oracle.update_batch(targets, {"x": ux, "y": uy})
                if round_no == 1:
                    oracle.compact()
                for engine in engines:
                    assert np.array_equal(
                        engine.insert_batch({"x": bx, "y": by}), new_ids
                    )
                    assert engine.delete_batch(doomed) == deleted
                    engine.update_batch(targets, {"x": ux, "y": uy})
                    if round_no == 1:
                        engine.compact()
                # assert_engine_matches_oracle also pins batch == scalar
                # counters; the threaded batch path scatters on the pool
                # while the serial one runs inline, so this is the
                # cross-worker stats-parity check.
                round_stats = [
                    assert_engine_matches_oracle(engine, oracle, PROBES)
                    for engine in engines
                ]
                assert round_stats[0] == round_stats[1]
        finally:
            for engine in engines:
                engine.close()

    def test_close_releases_workers_processes_and_fds(self):
        """Satellite regression: after ``close()`` no scatter threads and
        no fds opened by the scatter survive."""
        gc.collect()
        baseline_fds = set(os.listdir("/proc/self/fd"))
        engine = build_engine(linear_table(40), 4, 4)
        engine.insert_batch({"x": [10.0, 90.0], "y": [20.0, 180.0]})
        results = engine.batch_range_query(PROBES)  # starts the pool
        assert any(
            thread.name.startswith("sharded-coax")
            for thread in threading.enumerate()
        )
        engine.close()
        gc.collect()
        assert not any(
            thread.name.startswith("sharded-coax")
            for thread in threading.enumerate()
        )
        leaked = set(os.listdir("/proc/self/fd")) - baseline_fds
        assert not leaked, f"fds leaked across close(): {sorted(leaked)}"
        # Queries stay usable after close (the pool recreates on demand)
        # and still return the same results.
        again = engine.batch_range_query(PROBES)
        for want, got in zip(results, again):
            assert np.array_equal(want, got)
        engine.close()

    def test_context_manager_closes(self):
        with build_engine(linear_table(41), 2, 2) as engine:
            engine.batch_range_query(PROBES)
            assert engine._executor is not None
        assert engine._executor is None


class TestAdaptiveMaintenanceCoordination:
    """Drifting stream + forced model refresh across the shard grid.

    The engine owns ONE shared monitor; a full compaction refreshes the
    models and pushes them to every shard, so (a) results stay
    bit-identical to the adaptive flat COAX oracle and to the delete-aware
    logical store at 1/2/7 shards, before and after every refresh, (b) all
    shards carry identical groups at all times, and (c) a format-v5 round
    trip restores the shared monitor.
    """

    ADAPTIVE = COAXConfig(
        maintenance=MaintenanceConfig(enabled=True, min_observations=50)
    )

    DRIFT_PROBES = PROBES + [
        Rectangle({"y": Interval(150.0, 330.0)}),  # the drifted band
    ]

    def _reference_results(self, reference, query):
        return np.array(
            sorted(
                row_id
                for row_id, record in reference.items()
                if all(
                    query.interval(name).contains_value(value)
                    for name, value in record.items()
                )
            ),
            dtype=np.int64,
        )

    def test_shards_never_own_a_manager(self):
        engine = ShardedCOAX(
            linear_table(30),
            config=EngineConfig(n_shards=3, workers=1, coax=self.ADAPTIVE),
            groups=linear_groups(),
        )
        assert engine.maintenance is not None
        assert all(shard.maintenance is None for shard in engine.shards)
        # The shard configs carry maintenance disabled, so even a direct
        # shard compaction can never refresh models on its own.
        assert all(
            not shard.config.maintenance.enabled for shard in engine.shards
        )

    def test_single_shard_compact_never_refreshes(self):
        rng = np.random.default_rng(31)
        engine = ShardedCOAX(
            linear_table(31),
            config=EngineConfig(n_shards=2, workers=1, coax=self.ADAPTIVE),
            groups=linear_groups(),
        )
        bx = rng.uniform(0.0, 100.0, size=200)
        engine.insert_batch({"x": bx, "y": 2.0 * bx + 80.0})
        before = engine.groups
        engine.compact(shard=0)
        assert engine.groups == before  # groups untouched
        assert engine.maintenance.monitor("x->y").epoch == 0
        engine.compact()  # the full compaction refreshes
        assert engine.maintenance.monitor("x->y").epoch >= 1
        engine.close()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_drifting_crud_matches_oracle_across_shards(
        self, seed, tmp_path_factory
    ):
        rng = np.random.default_rng(seed)
        table = linear_table(seed)
        oracle = COAXIndex(table, config=self.ADAPTIVE, groups=linear_groups())
        engines = {
            (shards, workers): ShardedCOAX(
                table,
                config=EngineConfig(
                    n_shards=shards, workers=workers, coax=self.ADAPTIVE
                ),
                groups=linear_groups(),
            )
            for shards, workers in [(1, 1), (2, 1), (7, 1), (7, 4)]
        }
        x, y = table.column("x"), table.column("y")
        reference = {
            i: {"x": float(x[i]), "y": float(y[i])} for i in range(table.n_rows)
        }
        try:
            for round_no in range(3):
                shift = 50.0 * (round_no + 1)  # far beyond the +/-1.5 band
                k = int(rng.integers(60, 120))
                bx = rng.uniform(0.0, 100.0, size=k)
                by = 2.0 * bx + shift + rng.uniform(-1.0, 1.0, size=k)
                expected_ids = oracle.insert_batch({"x": bx, "y": by})
                for j, row_id in enumerate(expected_ids):
                    reference[int(row_id)] = {"x": float(bx[j]), "y": float(by[j])}
                live = np.array(sorted(reference), dtype=np.int64)
                doomed = rng.choice(
                    live, size=min(len(live), int(rng.integers(1, 40))), replace=False
                )
                oracle.delete_batch(doomed)
                for row_id in doomed:
                    reference.pop(int(row_id))
                for engine in engines.values():
                    got = engine.insert_batch({"x": bx, "y": by})
                    assert np.array_equal(got, expected_ids)
                    engine.delete_batch(doomed)
                # Bit-identical to the delete-aware store BEFORE refresh.
                for query in self.DRIFT_PROBES:
                    expected = self._reference_results(reference, query)
                    assert np.array_equal(
                        np.sort(oracle.range_query(query)), expected
                    )
                    for key, engine in engines.items():
                        assert np.array_equal(
                            np.sort(engine.range_query(query)), expected
                        ), key
                oracle.compact()
                for engine in engines.values():
                    engine.compact()  # coordinated refresh happens here
                # ... and AFTER it, including engine batch == scalar and
                # worker-invariance via the shared helper.
                for (shards, workers), engine in engines.items():
                    assert_engine_matches_oracle(
                        engine, oracle, self.DRIFT_PROBES
                    )
                    # Every shard carries the engine's refreshed groups.
                    for shard in engine.shards:
                        assert shard.groups == engine.groups, (shards, workers)
            # The drift forced at least one refresh everywhere.
            assert oracle.maintenance.monitor("x->y").epoch >= 1
            for engine in engines.values():
                assert engine.maintenance.monitor("x->y").epoch >= 1
            # Format v5 round trip of the adapted sharded state.
            engine = engines[(7, 1)]
            path = tmp_path_factory.mktemp("drift-engine") / "engine.npz"
            loaded = load_index(save_index(engine, path))
            assert isinstance(loaded, ShardedCOAX)
            assert loaded.maintenance is not None
            assert np.allclose(
                loaded.maintenance.monitor("x->y").state_vector(),
                engine.maintenance.monitor("x->y").state_vector(),
            )
            assert loaded.groups == engine.groups
            for query in self.DRIFT_PROBES:
                assert np.array_equal(
                    np.sort(loaded.range_query(query)),
                    self._reference_results(reference, query),
                )
        finally:
            for engine in engines.values():
                engine.close()


class TestConcurrency:
    def test_write_lock_exposed_everywhere(self):
        table = linear_table(9)
        engine = build_engine(table, 2, 1)
        assert engine.write_lock is engine.write_lock
        for shard in engine.shards:
            assert shard.write_lock is shard.write_lock

    def test_concurrent_inserts_serialise(self):
        table = linear_table(10)
        engine = build_engine(table, 4, 2)
        n_threads, per_thread = 4, 25
        errors = []

        def writer(thread_no: int):
            rng = np.random.default_rng(thread_no)
            try:
                for _ in range(per_thread):
                    x = rng.uniform(0.0, 100.0, size=3)
                    engine.insert_batch({"x": x, "y": 2.0 * x})
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total_new = n_threads * per_thread * 3
        assert engine.next_row_id == table.n_rows + total_new
        # Every id assigned exactly once and every record visible.
        assert len(engine.range_query(Rectangle())) == table.n_rows + total_new
        engine.close()

    def test_concurrent_knn_and_topk_fan_out_keep_counters_exact(self):
        """kNN and top-k scatter over the pool: readers racing on shared
        shards (more threads than cores, tiny switch interval) must get
        the serial answers and leave exact engine counters."""
        table = linear_table(12, n=2_000)
        engine = build_engine(table, 7, 4)
        spec = TopK(5, column="y", largest=True)
        probe = Rectangle({"x": Interval(10.0, 80.0)})
        want_knn = engine.knn({"x": 40.0, "y": 80.0}, 9)
        want_topk = engine.topk(probe, spec)
        engine.stats.reset()
        engine.knn({"x": 40.0, "y": 80.0}, 9)
        engine.topk(probe, spec)
        examined_per_pair = engine.stats.rows_examined
        engine.stats.reset()
        n_threads, rounds = 6, 15
        errors = []

        def reader():
            try:
                for _ in range(rounds):
                    assert np.array_equal(engine.knn({"x": 40.0, "y": 80.0}, 9), want_knn)
                    assert np.array_equal(engine.topk(probe, spec), want_topk)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        calls = n_threads * rounds
        assert engine.stats.knn_queries == 2 * calls
        assert engine.stats.rows_examined == examined_per_pair * calls
        engine.close()

    def test_readers_during_adaptive_refresh_see_consistent_state(self):
        """Queries exclude the coordinated model refresh: a reader can
        never translate with one generation of groups while shards
        execute another (the batch path would lose rows otherwise)."""
        table = linear_table(22)
        engine = ShardedCOAX(
            table,
            config=EngineConfig(
                n_shards=2,
                workers=2,
                coax=COAXConfig(
                    maintenance=MaintenanceConfig(
                        enabled=True, min_observations=50
                    )
                ),
            ),
            groups=linear_groups(),
        )
        everything = Rectangle()
        expected = table.n_rows
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    assert len(engine.range_query(everything)) >= expected
                    engine.batch_range_query([everything])
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            rng = np.random.default_rng(0)
            for round_no in range(4):
                bx = rng.uniform(0.0, 100.0, size=100)
                engine.insert_batch(
                    {"x": bx, "y": 2.0 * bx + 60.0 * (round_no + 1)}
                )
                expected = len(engine.range_query(everything))
                engine.compact()  # refreshes (refit) under drift
        finally:
            stop.set()
            thread.join()
        assert not errors
        assert engine.maintenance.monitor("x->y").epoch >= 1
        engine.close()

    def test_readers_during_compaction_see_consistent_state(self):
        table = linear_table(11)
        engine = build_engine(table, 2, 2)
        x = np.random.default_rng(0).uniform(0.0, 100.0, size=200)
        engine.insert_batch({"x": x, "y": 2.0 * x})
        everything = Rectangle()
        expected = len(engine.range_query(everything))
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    assert len(engine.range_query(everything)) == expected
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(5):
                engine.compact()
        finally:
            stop.set()
            thread.join()
        assert not errors
        engine.close()


class TestEnginePersistence:
    def test_v4_round_trip_preserves_crud_state(self, tmp_path):
        table = linear_table(12)
        engine = build_engine(table, 3, 1)
        engine.insert_batch({"x": [10.0, 50.0], "y": [20.2, 700.0]})
        engine.delete_batch(np.arange(0, 100, 7, dtype=np.int64))
        engine.update_batch(np.array([200], dtype=np.int64), {"x": [42.0], "y": [84.1]})
        path = save_index(engine, tmp_path / "engine.npz")
        loaded = load_index(path)
        assert isinstance(loaded, ShardedCOAX)
        assert loaded.n_shards == engine.n_shards
        assert loaded.partition_dimension == engine.partition_dimension
        assert np.allclose(loaded.shard_boundaries, engine.shard_boundaries)
        assert loaded.n_pending == engine.n_pending
        assert loaded.n_tombstoned == engine.n_tombstoned
        for query in PROBES:
            assert np.array_equal(
                np.sort(loaded.range_query(query)),
                np.sort(engine.range_query(query)),
            )
        # Insert routing keeps working against the restored boundaries.
        assert loaded.insert({"x": 50.0, "y": 100.0}) == engine.next_row_id

    def test_archive_saved_after_relayout_loads(self, tmp_path):
        """A re-layout keeps only live ids in the shard mappings, so the
        archive no longer maps every issued id; it must still load, answer
        like the oracle and issue the next id where the engine left off."""
        table = linear_table(22)
        oracle = COAXIndex(table, groups=linear_groups())
        layout = LayoutConfig(enabled=True, min_queries=8, min_gain=1.0)
        engine = build_engine(table, 2, 1, layout=layout)
        doomed = np.arange(0, 400, 10, dtype=np.int64)
        assert engine.delete_batch(doomed) == oracle.delete_batch(doomed) == 40
        hot = [
            Rectangle({"x": Interval(low, low + 3.0)})
            for low in np.linspace(10.0, 20.0, 12)
        ]
        engine.batch_range_query(hot)
        engine.compact()
        oracle.compact()
        assert engine.layout.epoch == 1
        assert engine.n_rows == 360
        path = save_index(engine, tmp_path / "engine")
        loaded = load_engine(path)
        assert_engine_matches_oracle(loaded, oracle, PROBES + hot)
        assert not loaded.rows_live(doomed).any()
        record = {"x": 50.0, "y": 100.0}
        assert loaded.insert(record) == oracle.insert(record) == engine.next_row_id

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda ids: [ids[0], np.concatenate([ids[1][:-1], ids[0][-1:]])],
            lambda ids: [ids[0][::-1].copy(), ids[1]],
            lambda ids: [ids[0] + 1_000, ids[1]],
            lambda ids: [ids[0] - 1_000, ids[1]],
            lambda ids: [ids[0][:-1], ids[1]],
        ],
        ids=["overlapping", "descending", "past-next-id", "negative", "short"],
    )
    def test_corrupt_mapping_is_rejected(self, corrupt, tmp_path):
        """A sharded archive whose ``__global_of__`` arrays overlap, are
        not strictly ascending inside ``[0, next_global_id)`` or miss a
        local id fails to load with ``ValueError``."""
        engine = build_engine(linear_table(23), 2, 1)
        path = save_index(engine, tmp_path / "engine")
        meta, arrays = _read_columnar(path)
        arrays = {key: np.array(array) for key, array in arrays.items()}
        keys = ["shard0::__global_of__", "shard1::__global_of__"]
        for key, ids in zip(keys, corrupt([arrays[key] for key in keys])):
            arrays[key] = ids
        _write_columnar(meta, arrays, path)
        with pytest.raises(ValueError):
            load_engine(path)

    def test_load_engine_wraps_flat_archives(self, tmp_path):
        table = linear_table(13)
        index = COAXIndex(table, groups=linear_groups())
        index.insert_batch({"x": [10.0], "y": [700.0]})
        path = save_index(index, tmp_path / "flat.npz")
        engine = load_engine(path, workers=2)
        assert isinstance(engine, ShardedCOAX)
        assert engine.n_shards == 1
        assert engine.workers == 2
        assert engine.n_pending == index.n_pending
        for query in PROBES:
            assert np.array_equal(
                np.sort(engine.range_query(query)),
                np.sort(index.range_query(query)),
            )

    def test_load_engine_workers_override_on_v4(self, tmp_path):
        engine = build_engine(linear_table(14), 2, 1)
        path = save_index(engine, tmp_path / "engine.npz")
        assert load_engine(path).workers == 1
        assert load_engine(path, workers=4).workers == 4


class TestDelegatedAPI:
    def test_delete_where_and_rows_live(self):
        table = linear_table(15)
        engine = build_engine(table, 3, 1)
        box = Rectangle({"x": Interval(0.0, 20.0)})
        doomed = engine.delete_where(box)
        assert len(doomed) > 0
        assert not engine.rows_live(doomed).any()
        assert len(engine.range_query(box)) == 0
        # delete_rows routes through the same path (idempotent).
        assert engine.delete_rows(doomed) == 0

    def test_update_batch_is_atomic_across_shards(self):
        table = linear_table(16)
        engine = build_engine(table, 4, 1)
        engine.delete(5)
        before = {
            int(i): engine.rows_live(np.array([i], dtype=np.int64))[0]
            for i in range(10)
        }
        with pytest.raises(KeyError):
            # id 5 is dead: nothing of the batch may apply, on any shard.
            engine.update_batch(
                np.array([0, 5], dtype=np.int64),
                {"x": [1.0, 2.0], "y": [2.0, 4.0]},
            )
        hits = engine.range_query(Rectangle({"x": Interval(0.9, 1.1)}))
        assert 0 not in hits.tolist()
        for i, was_live in before.items():
            assert engine.rows_live(np.array([i], dtype=np.int64))[0] == was_live

    def test_directory_bytes_include_mapping(self):
        engine = build_engine(linear_table(17), 2, 1)
        breakdown = engine.memory_breakdown()
        assert set(breakdown) == {"shard0", "shard1", "mapping"}
        assert engine.directory_bytes() == sum(breakdown.values())

    def test_column_is_not_global(self):
        engine = build_engine(linear_table(18), 2, 1)
        with pytest.raises(NotImplementedError):
            engine.column("x")


class TestShutdown:
    """Terminal shutdown: typed ``EngineClosedError``, unlike reusable close()."""

    def test_shutdown_rejects_reads_and_writes(self):
        engine = build_engine(linear_table(30), 2, 2)
        probe = Rectangle({"x": Interval(10.0, 60.0)})
        assert len(engine.range_query(probe)) > 0
        assert not engine.closed
        engine.shutdown()
        assert engine.closed
        with pytest.raises(EngineClosedError):
            engine.range_query(probe)
        with pytest.raises(EngineClosedError):
            engine.batch_range_query([probe])
        with pytest.raises(EngineClosedError):
            engine.batch_range_query_attributed([probe])
        with pytest.raises(EngineClosedError):
            engine.insert_batch({"x": [1.0], "y": [2.0]})
        with pytest.raises(EngineClosedError):
            engine.delete_batch(np.array([0], dtype=np.int64))
        with pytest.raises(EngineClosedError):
            engine.compact()

    def test_shutdown_is_idempotent(self):
        engine = build_engine(linear_table(31), 2, 1)
        engine.shutdown()
        engine.shutdown()
        assert engine.closed

    def test_close_stays_reusable_but_shutdown_is_terminal(self):
        engine = build_engine(linear_table(32), 2, 2)
        probe = Rectangle({"x": Interval(10.0, 60.0)})
        before = engine.range_query(probe)
        engine.close()
        # close() releases pools but the engine recreates them on demand.
        assert np.array_equal(engine.range_query(probe), before)
        engine.shutdown()
        with pytest.raises(EngineClosedError):
            engine.range_query(probe)

    def test_concurrent_readers_get_typed_error_not_crash(self):
        """Readers racing shutdown() see EngineClosedError, never a raw
        RuntimeError from a dead worker pool."""
        engine = build_engine(linear_table(33, n=1200), 4, 4)
        probe = Rectangle({"x": Interval(0.0, 100.0)})
        stop = threading.Event()
        bad: list = []

        def hammer():
            while not stop.is_set():
                try:
                    engine.range_query(probe)
                except EngineClosedError:
                    return
                except BaseException as exc:  # noqa: BLE001 - the assertion
                    bad.append(exc)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        engine.shutdown()
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not bad, f"reader crashed with {bad!r}"


class TestAttribution:
    """Per-query stats attribution on the flat batch path."""

    def test_attributed_results_match_plain_batch(self):
        engine = build_engine(linear_table(34), 3, 2)
        plain = engine.batch_range_query(PROBES)
        attributed, stats = engine.batch_range_query_attributed(PROBES)
        assert len(attributed) == len(stats) == len(PROBES)
        for want, got in zip(plain, attributed):
            assert np.array_equal(want, got)

    def test_attribution_sums_reproduce_global_counters(self):
        """The even-split attribution is *honest*: per-query stats add up
        to the engine's batch-global counters exactly."""
        for n_shards, workers in [(1, 1), (3, 2), (7, 1)]:
            engine = build_engine(linear_table(35, n=900), n_shards, workers)
            engine.stats.reset()
            results, stats = engine.batch_range_query_attributed(PROBES)
            total = engine.stats
            assert sum(s.queries for s in stats) == total.queries
            assert sum(s.rows_examined for s in stats) == total.rows_examined
            assert sum(s.rows_matched for s in stats) == total.rows_matched
            assert sum(s.cells_visited for s in stats) == total.cells_visited
            assert sum(s.nodes_visited for s in stats) == total.nodes_visited
            assert sum(s.shards_pruned for s in stats) == total.shards_pruned

    def test_exact_fields_are_exact(self):
        engine = build_engine(linear_table(36), 4, 1)
        results, stats = engine.batch_range_query_attributed(PROBES)
        for result, s in zip(results, stats):
            assert s.rows_matched == len(result)
        # The miss-everything probe prunes all four shards; its pruning is
        # attributed to it alone, not smeared across the batch.
        miss = PROBES.index(Rectangle({"x": Interval(1e6, 2e6)}))
        assert stats[miss].shards_pruned == 4
        empty = PROBES.index(Rectangle({"x": Interval(5.0, 1.0)}))
        assert stats[empty].queries == 0  # dead on arrival, no work
        assert stats[empty].rows_examined == 0

    def test_empty_batch(self):
        engine = build_engine(linear_table(37), 2, 1)
        results, stats = engine.batch_range_query_attributed([])
        assert results == [] and stats == []

    def test_all_dead_batch_attributes_zero_work(self):
        engine = build_engine(linear_table(38), 2, 1)
        dead = [Rectangle({"x": Interval(5.0, 1.0)})] * 3
        results, stats = engine.batch_range_query_attributed(dead)
        assert all(len(r) == 0 for r in results)
        assert all(stats_tuple(s) == (0, 0, 0, 0, 0, 0) for s in stats)
