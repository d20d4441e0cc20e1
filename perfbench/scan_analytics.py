"""``scan-analytics``: direct batch range and aggregate calls at 1M rows.

Airline at one million rows (8 float64 columns, 64 MB — far beyond the
per-core L2) in a 4-shard range-partitioned engine with the thread
executor and two workers, called by one caller in a closed loop.  The
caller runs batches of 64 nearest-neighbour range queries
(materialising ids); every second batch is followed by a COUNT or SUM
batch over the same rectangles, so two calls in three materialise and
the median call sits inside one kind of call, not between two.
It loads query translation, the grid kernels, the outlier index and
scatter-gather, and bypasses the serving stack and the delta store.

The cycle holds ``N_BATCHES`` distinct batches (8192 queries) so that
its latency percentiles are a property of the query distribution, not
of which few boxes a seed happened to draw.  Each pass over the cycle is
one window of ``common.OpLog``: the run reports the median pass.
"""

from __future__ import annotations

import gc
from functools import partial

import numpy as np

from repro import Aggregate, AirlineConfig, EngineConfig, ShardedCOAX, generate_airline_dataset
from repro.core.coax import learn_groups
from repro.core.query_translation import translate_query_batch

from perfbench import common, inputs
from perfbench.oracle import Oracle
from perfbench.tracer import Tracer, overhead_frac

ROWS = 1_000_000
BATCH = 64
N_BATCHES = 128
K_NEIGHBOURS = 400
SETUP_REPEATS = 3
SUM_COLUMN = "AirTime"
ENGINE = dict(n_shards=4, workers=2, executor="thread")


def setup(table, dims, config: EngineConfig = EngineConfig(**ENGINE)):
    """Learn the FD groups and build the engine ``SETUP_REPEATS`` times.

    Returns the last engine and ``(learn_s, build_s)`` per repeat; each
    earlier engine is shut down and collected before the next build
    starts, so peak memory holds one engine.
    """
    engine, timings = None, []
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.shutdown()
            engine = None
        gc.collect()  # free the previous engine and the inputs' garbage first
        start = common.clock()
        groups = learn_groups(table, config.coax.detection, dims)
        learned = common.clock()
        engine = ShardedCOAX(table, config=config, groups=groups)
        timings.append((learned - start, common.clock() - learned))
    return engine, timings


class Ops:
    """The fixed op cycle plus its oracle answers."""

    def __init__(self, table, seed: int) -> None:
        self.dims = list(table.schema)
        rng = np.random.default_rng(seed)
        matrix = inputs.matrix_of(table.columns(), self.dims)
        lows, highs = inputs.knn_boxes(matrix, rng, BATCH * N_BATCHES, K_NEIGHBOURS)
        self.bounds = [(lows[i : i + BATCH], highs[i : i + BATCH]) for i in range(0, len(lows), BATCH)]
        self.batches = [inputs.rectangles(lo, hi, self.dims) for lo, hi in self.bounds]
        self.specs = [Aggregate("count") if b % 4 == 0 else Aggregate("sum", SUM_COLUMN) for b in range(N_BATCHES)]
        # (kind, batch number): an aggregate follows every second range batch.
        self.cycle = [
            op
            for b in range(N_BATCHES)
            for op in ((("range", b), ("aggregate", b)) if b % 2 == 0 else (("range", b),))
        ]
        self.expected_ids = None
        self.expected_agg = None

    def answer(self, table) -> None:
        oracle = Oracle(table.columns())
        flat = oracle.range_batch(np.concatenate([lo for lo, _ in self.bounds]),
                                  np.concatenate([hi for _, hi in self.bounds]))
        self.expected_ids = [flat[b * BATCH : (b + 1) * BATCH] for b in range(N_BATCHES)]
        self.expected_agg = []
        for b, ids in enumerate(self.expected_ids):
            if self.specs[b].op == "count":
                self.expected_agg.append(np.array([float(len(i)) for i in ids]))
            else:
                self.expected_agg.append(oracle.column_sums(ids, SUM_COLUMN))

    def run(self, engine, op):
        kind, b = op
        if kind == "range":
            return engine.batch_range_query(self.batches[b])
        return engine.batch_aggregate(self.batches[b], self.specs[b])

    def mismatches(self, op, result) -> int:
        kind, b = op
        if kind == "range":
            return sum(not np.array_equal(got, want) for got, want in zip(result, self.expected_ids[b]))
        want = self.expected_agg[b]
        return int(np.count_nonzero(~np.isclose(np.asarray(result, dtype=np.float64), want, rtol=1e-9, atol=1e-6)))


def _timed_pass(engine, ops, log: common.OpLog):
    for op in ops.cycle:
        log.attempted += BATCH
        start = common.clock()
        try:
            result = ops.run(engine, op)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            log.failed += BATCH
            continue
        log.add(common.clock() - start, BATCH)
        log.failed += ops.mismatches(op, result)
    log.mark()


def _phase(engine, ops, seconds: float, canary: common.Canary, log: common.OpLog) -> None:
    """Cycle the ops until ``seconds`` of wall time have passed (whole cycles)."""
    deadline = common.clock() + seconds
    while True:
        canary.tick()
        _timed_pass(engine, ops, log)
        if common.clock() >= deadline:
            break
    canary.tick()


def run(seed: int, seconds: float, trace: bool, root) -> dict:
    table, _ = generate_airline_dataset(AirlineConfig(n_rows=ROWS))
    dims = tuple(table.schema)
    ops = Ops(table, seed)
    ops.answer(table)
    canary = common.Canary()

    engine, timings = setup(table, dims)
    setup_s = common.median([learn + build for learn, build in timings])

    warm = common.OpLog()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.instrument(engine)
    stats_before = engine.stats.shards_pruned
    _timed_pass(engine, ops, warm)  # warm-up; counted by the tracer
    counted = {}
    if tracer is not None:
        n_queries = BATCH * N_BATCHES
        rng_ = ("batch_flat_from_bounds",)
        agg_ = ("batch_aggregate_from_bounds",)
        examined = tracer.count("primary", "rows_examined", rng_)
        counted = {
            "engine.shards_pruned_per_query": (engine.stats.shards_pruned - stats_before) / (len(ops.cycle) * BATCH),
            "primary.rows_examined_per_query": examined / n_queries,
            "primary.cells_visited_per_query": tracer.count("primary", "cells_visited", rng_) / n_queries,
            "primary.match_ratio": tracer.count("primary", "rows_matched", rng_) / max(examined, 1),
            "primary.agg_rows_examined_per_query": tracer.count("primary", "rows_examined", agg_) / (n_queries // 2),
            "outlier.rows_examined_per_query": tracer.count("outlier", "rows_examined", rng_) / n_queries,
            "outlier.match_ratio": tracer.count("outlier", "rows_matched", rng_)
            / max(tracer.count("outlier", "rows_examined", rng_), 1),
        }
        tracer.reset()

    log = common.OpLog()
    _phase(engine, ops, seconds, canary, log)
    breakdown = engine.memory_breakdown()
    index_bytes = sum(breakdown.values())
    metrics = {
        "setup_s": setup_s,
        "p50_ms": log.percentile_ms(50),
        "p90_ms": log.percentile_ms(90),
        "throughput_qps": log.throughput(),
        "index_bytes": index_bytes,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        calls = tracer.count("engine", "calls")
        metrics = dict(counted)
        metrics.update(
            {
                "fd.learn_s": common.median([learn for learn, _ in timings]),
                "engine.build_s": common.median([build for _, build in timings]),
                "engine.self_ms": tracer.self_ms("engine", ["coax"]) / calls,
                "engine.mapping_bytes": breakdown.get("mapping", 0),
                "coax.shard_ms": tracer.total_ms("coax") / calls,
                "coax.self_ms": tracer.self_ms("coax", ["primary", "outlier", "delta"]) / calls,
                "coax.directory_bytes": index_bytes - breakdown.get("mapping", 0),
                "primary.ms": tracer.total_ms("primary") / calls,
                "outlier.ms": tracer.total_ms("outlier") / calls,
                "delta.scan_ms": tracer.total_ms("delta") / calls,
                "translate.us_per_query": _translate_us(engine, ops),
                "trace.overhead_frac": overhead_frac(
                    tracer, [partial(ops.run, engine, op) for op in ops.cycle * 2]
                ),
            }
        )
    engine.shutdown()
    metrics["host.canary_ms"] = canary.median_ms
    return {
        "metrics": metrics,
        "attempted": warm.attempted + log.attempted,
        "failed": warm.failed + log.failed,
        "canary": canary,
        "tracer": tracer,
    }


def _translate_us(engine, ops) -> float:
    start = common.clock()
    for batch in ops.batches:
        translate_query_batch(batch, engine.groups)
    return (common.clock() - start) * 1e6 / (BATCH * N_BATCHES)
