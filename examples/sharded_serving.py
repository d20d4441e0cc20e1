#!/usr/bin/env python
"""Sharded serving: one logical COAX table, N shards, scatter-gather queries.

A production deployment does not run one monolithic index on one core — it
range-partitions the table into shards, each with its own COAX index, and
scatters every query burst over the shards that can possibly match. The
``ShardedCOAX`` engine packages exactly that behind the familiar index
API. This example:

1. builds a 4-shard range-partitioned engine over the synthetic airline
   table with two workers — scatter runs on a thread pool, whose NumPy
   kernels release the GIL — sharing one set of learned FD groups
   across the shards;
2. answers a query burst through the scatter-gather batch path and shows
   the shard-pruning counters (``QueryStats.shards_pruned``);
3. verifies the engine is bit-identical to an unsharded COAX index;
4. runs the full CRUD cycle — inserts routed by partition key, deletes,
   in-place updates — with per-shard independent compaction;
5. saves the engine as a format-7 columnar archive (a directory of raw
   column files plus a manifest) and times the restart: ``load_engine``
   attaches the columns with copy-on-write ``np.memmap`` and reattaches
   the saved grids — milliseconds, no rebuild, no model evaluation —
   while still adopting old flat/npz archives as 1-shard engines;
6. demonstrates workload-adaptive layout recovery: an engine with
   ``EngineConfig.layout`` enabled watches a skewed query stream,
   re-partitions itself at compaction to put its boundaries where the
   queries are, and then *recovers* when the hot region moves — the
   build-time quantile boundaries are a starting point, not a sentence.

Run with::

    python examples/sharded_serving.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    COAXIndex,
    EngineConfig,
    Interval,
    LayoutConfig,
    Rectangle,
    ShardedCOAX,
    load_engine,
    save_index,
)
from repro.data.airline import AirlineConfig, generate_airline_dataset
from repro.data.queries import WorkloadConfig, generate_knn_queries


def main() -> None:
    table, _ = generate_airline_dataset(AirlineConfig(n_rows=60_000, seed=7))

    # ------------------------------------------------------------------
    # 1. Build: 4 range-partitioned shards, groups learned once, scatter
    #    on a two-thread worker pool.
    # ------------------------------------------------------------------
    start = time.perf_counter()
    engine = ShardedCOAX(
        table, config=EngineConfig(n_shards=4, workers=2)
    )
    build_seconds = time.perf_counter() - start
    print("build")
    print("-----")
    print(f"shards             : {engine.n_shards}")
    print(f"partition dimension: {engine.partition_dimension}")
    print(f"boundaries         : {np.round(engine.shard_boundaries, 1).tolist()}")
    print(f"rows per shard     : {[shard.n_rows for shard in engine.shards]}")
    print(f"build time         : {build_seconds:.2f}s (workers={engine.workers})")
    print()

    # ------------------------------------------------------------------
    # 2. Serve a burst; shards outside the query boxes are never touched.
    # ------------------------------------------------------------------
    burst = list(
        generate_knn_queries(
            table,
            WorkloadConfig(
                n_queries=512,
                k_neighbours=200,
                dimensions=("Distance", "ArrTime", "DayOfWeek", "Carrier"),
                seed=3,
            ),
        )
    )
    engine.stats.reset()
    start = time.perf_counter()
    results = engine.batch_range_query(burst)
    elapsed = time.perf_counter() - start
    pruned_per_query = engine.stats.shards_pruned / engine.stats.queries
    print("serving")
    print("-------")
    print(f"burst              : {len(burst)} range queries")
    print(f"throughput         : {len(burst) / elapsed:,.0f} queries/s")
    print(f"shards pruned      : {pruned_per_query:.2f} of {engine.n_shards} per query")
    print()

    # ------------------------------------------------------------------
    # 3. The engine is an execution detail: results match unsharded COAX.
    # ------------------------------------------------------------------
    oracle = COAXIndex(table, groups=list(engine.groups))
    expected = oracle.batch_range_query(burst)
    identical = all(np.array_equal(a, b) for a, b in zip(results, expected))
    print(f"bit-identical to unsharded COAX: {identical}")
    assert identical
    print()

    # ------------------------------------------------------------------
    # 4. CRUD: routed inserts, deletes, updates, per-shard compaction.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(11)
    new_rows = {
        name: rng.uniform(table.min(name), table.max(name), size=1_000)
        for name in table.schema
    }
    ids = engine.insert_batch(new_rows)
    print("updates")
    print("-------")
    print(f"inserted           : {len(ids)} rows (ids {ids[0]}..{ids[-1]})")
    print(f"pending per shard  : {[shard.n_pending for shard in engine.shards]}")
    deleted = engine.delete_batch(ids[:300])
    engine.update_batch(
        ids[300:310],
        {name: values[300:310] for name, values in new_rows.items()},
    )
    print(f"deleted            : {deleted} rows, updated 10 in place")
    # Compact one shard at a time — maintenance is never stop-the-world.
    for shard_no in range(engine.n_shards):
        engine.compact(shard=shard_no)
    print(f"after compaction   : pending={engine.n_pending} tombstoned={engine.n_tombstoned}")
    print()

    # ------------------------------------------------------------------
    # 5. Persistence: format-7 columnar archive, instant restart.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = save_index(engine, Path(tmp) / "airline.coax")
        size_mb = sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6
        start = time.perf_counter()
        restored = load_engine(path, workers=1)
        restart_ms = (time.perf_counter() - start) * 1e3
        probe = Rectangle({"Distance": Interval(500.0, 800.0)})
        match = np.array_equal(
            np.sort(restored.range_query(probe)), np.sort(engine.range_query(probe))
        )
        print("persistence")
        print("-----------")
        print(f"archive            : {path.name}/ ({size_mb:.1f} MB, format v7 columnar)")
        print(f"cold start         : {restart_ms:.1f} ms — mmap attach, no rebuild")
        print(f"restored workers   : {restored.workers} (load-time override wins)")
        print(f"restored shards    : {restored.n_shards}, round-trip identical: {match}")
        assert match
        restored.close()
    engine.close()
    print()

    # ------------------------------------------------------------------
    # 6. Workload-adaptive layout: the engine re-partitions itself when
    #    the observed query distribution says the boundaries are wrong,
    #    and recovers again when the hot region moves.
    # ------------------------------------------------------------------
    adaptive = ShardedCOAX(
        table,
        config=EngineConfig(
            n_shards=4,
            workers=1,
            layout=LayoutConfig(
                enabled=True, sketch_size=256, min_queries=128, min_gain=1.1
            ),
        ),
    )
    dim = adaptive.partition_dimension
    lo, hi = float(table.min(dim)), float(table.max(dim))
    span = hi - lo

    def hot_burst(region_start: float, rng_seed: int) -> None:
        """256 narrow queries concentrated in one tenth of the domain."""
        rng = np.random.default_rng(rng_seed)
        starts = rng.uniform(region_start, region_start + 0.08 * span, 256)
        adaptive.batch_range_query(
            [Rectangle({dim: Interval(s, s + 0.02 * span)}) for s in starts]
        )

    print("adaptive layout")
    print("---------------")
    print(f"build boundaries   : {np.round(adaptive.shard_boundaries, 1).tolist()}")
    hot_burst(lo, rng_seed=17)          # every query in the lowest decile
    adaptive.compact()                   # the re-layout decision point
    print(f"after hot low skew : {np.round(adaptive.shard_boundaries, 1).tolist()}")
    hot_burst(lo + 0.7 * span, rng_seed=19)  # the workload moves
    adaptive.compact()
    print(f"after shift high   : {np.round(adaptive.shard_boundaries, 1).tolist()}")
    monitor = adaptive.layout
    assert monitor is not None
    print(f"re-layouts adopted : {monitor.epoch}")
    burst_check = [
        Rectangle({dim: Interval(lo + 0.7 * span, lo + 0.75 * span)}),
        Rectangle(),
    ]
    same = all(
        np.array_equal(np.sort(adaptive.range_query(q)), np.sort(oracle.range_query(q)))
        for q in burst_check
    )
    print(f"still bit-identical to unsharded COAX: {same}")
    assert same
    adaptive.close()


if __name__ == "__main__":
    main()
