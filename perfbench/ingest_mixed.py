"""``ingest-mixed``: a fixed script of writes, reads and compactions.

Airline with a 300k-row base table in the scan-analytics engine shape (4
range shards, thread executor, two workers) with drift-aware FD
maintenance, workload-adaptive layout and count-triggered per-shard
auto-compaction enabled.  One caller runs a fixed round in a closed
loop — insert 512 rows, a range batch, delete 512 rows, an aggregate
batch, update 256 rows, then range, aggregate and range batches — and a
full ``compact()`` every 16 rounds, so a run goes through many
compaction cycles.  Five calls in eight are reads, so the median call
is a read rather than the gap between writes and reads.  Reads are
skewed: four in five nearest-neighbour boxes are anchored on short
flights, which gives the layout monitor something to adapt to.  The read
layers run here over pending rows and tombstones, so a gain for reads
that costs writes, or the other way round, shows here.

Each ``FULL_EVERY`` rounds, the same mix of work, are one window of
``common.OpLog``: latency percentiles and throughput are the medians
over the windows.

Delete and update victims come from the benchmark's own list of live
ids (``live_row_ids()`` is O(n)), chosen before the timed call.  The
first ``SCRIPT_ROUNDS`` rounds are the deterministic script: counters
and ``index_bytes`` are read at its end, not at the (time-dependent) end
of the phase.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import Aggregate, AirlineConfig, COAXConfig, EngineConfig, LayoutConfig, generate_airline_dataset
from repro.core.config import MaintenanceConfig

from perfbench import common, inputs
from perfbench.oracle import LiveAnswers
from perfbench.scan_analytics import setup
from perfbench.tracer import Tracer, overhead_frac

ROWS = 300_000
BATCH = 64
N_BATCHES = 16
K_NEIGHBOURS = 400
INSERT, DELETE, UPDATE = 512, 512, 256
FULL_EVERY = 16
SCRIPT_ROUNDS = 32
POOL = 65536
HOT_SHARE = 0.8
HOT_DIM, HOT_QUANTILE = "Distance", 0.3
SUM_COLUMN = "AirTime"
ENGINE = EngineConfig(
    n_shards=4,
    workers=2,
    executor="thread",
    coax=COAXConfig(auto_compact_threshold=2048, maintenance=MaintenanceConfig(enabled=True)),
    layout=LayoutConfig(enabled=True),
)
ROUND = ("insert", "range", "delete", "aggregate", "update", "range", "aggregate", "range")


class Script:
    """Seeded inputs, the benchmark's live-id list and the oracle."""

    def __init__(self, table, seed: int) -> None:
        self.dims = list(table.schema)
        rng = np.random.default_rng(seed)
        columns = table.columns()
        matrix = inputs.matrix_of(columns, self.dims)
        hot = np.flatnonzero(columns[HOT_DIM] <= np.quantile(columns[HOT_DIM], HOT_QUANTILE))
        n_hot = int(BATCH * N_BATCHES * HOT_SHARE)
        hot_lo, hot_hi = inputs.knn_boxes(matrix, rng, n_hot, K_NEIGHBOURS, anchor_pool=hot)
        cold_lo, cold_hi = inputs.knn_boxes(matrix, rng, BATCH * N_BATCHES - n_hot, K_NEIGHBOURS)
        order = rng.permutation(BATCH * N_BATCHES)
        lows = np.concatenate([hot_lo, cold_lo])[order]
        highs = np.concatenate([hot_hi, cold_hi])[order]
        self.batches = [
            inputs.rectangles(lows[i : i + BATCH], highs[i : i + BATCH], self.dims)
            for i in range(0, len(lows), BATCH)
        ]
        self.answers = LiveAnswers(columns, lows, highs)
        pool, _ = generate_airline_dataset(AirlineConfig(n_rows=POOL, seed=seed + 104729))
        self.pool = pool.columns()
        self.pool_at = 0
        self.victims = np.random.default_rng(seed + 1)
        self.live = np.arange(table.n_rows, dtype=np.int64)
        self.reads = 0

    def take_rows(self, n: int):
        at = self.pool_at % POOL
        self.pool_at += n
        picked = np.arange(at, at + n) % POOL
        return {d: self.pool[d][picked] for d in self.dims}

    def next_op(self, kind: str):
        """``(kind, argument)`` with every input drawn before the call."""
        if kind == "insert":
            return kind, self.take_rows(INSERT)
        if kind == "delete":
            picked = self.victims.choice(len(self.live), size=DELETE, replace=False)
            victims = self.live[picked]
            self.live = np.delete(self.live, picked)
            return kind, victims
        if kind == "update":
            picked = self.victims.choice(len(self.live), size=UPDATE, replace=False)
            return kind, (np.sort(self.live[picked]), self.take_rows(UPDATE))
        b = self.reads % N_BATCHES
        self.reads += 1
        return kind, b

    def call(self, engine, op):
        kind, arg = op
        if kind == "insert":
            return engine.insert_batch(arg)
        if kind == "delete":
            return engine.delete_batch(arg)
        if kind == "update":
            return engine.update_batch(arg[0], arg[1])
        if kind == "range":
            return engine.batch_range_query(self.batches[arg])
        if kind == "aggregate":
            return engine.batch_aggregate(self.batches[arg], self.spec(arg))
        return engine.compact()

    @staticmethod
    def spec(b: int) -> Aggregate:
        return Aggregate("count") if b % 2 == 0 else Aggregate("sum", SUM_COLUMN)

    def check(self, op, result) -> int:
        """Apply a write to the oracle, or check a read; returns mismatches."""
        kind, arg = op
        if kind == "insert":
            self.answers.write(result, arg)
            self.live = np.concatenate([self.live, result])
            return int(len(result) != INSERT or len(np.unique(result)) != INSERT)
        if kind == "delete":
            self.answers.delete(arg)
            return int(result != len(arg))
        if kind == "update":
            self.answers.write(arg[0], arg[1])
            return int(not np.array_equal(np.sort(result), arg[0]))
        if kind == "compact":
            return 0
        base = arg * BATCH
        wanted = [self.answers.answer(base + i) for i in range(BATCH)]
        if kind == "range":
            return sum(not np.array_equal(got, want) for got, want in zip(result, wanted))
        if self.spec(arg).op == "count":
            want = np.array([float(len(ids)) for ids in wanted])
        else:
            want = np.array([self.answers.column_sum(ids, SUM_COLUMN) for ids in wanted])
        got = np.asarray(result, dtype=np.float64)
        return int(np.count_nonzero(~np.isclose(got, want, rtol=1e-9, atol=1e-6)))


def _weight(kind: str) -> int:
    """Operations an op counts for: a read batch is BATCH queries."""
    return BATCH if kind in ("range", "aggregate") else 1


def run(seed: int, seconds: float, trace: bool, root) -> dict:
    table, _ = generate_airline_dataset(AirlineConfig(n_rows=ROWS))
    script = Script(table, seed)
    canary = common.Canary()
    engine, timings = setup(table, tuple(table.schema), ENGINE)
    setup_s = common.median([learn + build for learn, build in timings])
    tracer = Tracer() if trace else None

    log = common.OpLog()
    by_kind = {kind: [] for kind in ROUND + ("compact",)}
    pending, delta_bytes, stalls = [], [], []
    full = {"count": 0, "ns": 0, "rows": 0, "refreshes": 0, "shard_calls": 0, "shard_ns": 0}
    at_script_end = None
    rounds = 0
    deadline = common.clock() + seconds
    canary.tick()
    while rounds < SCRIPT_ROUNDS or common.clock() < deadline:
        kinds = ROUND + (("compact",) if (rounds + 1) % FULL_EVERY == 0 else ())
        for kind in kinds:
            if tracer is not None:
                tracer.instrument(engine)
            op = script.next_op(kind)
            if kind in ("range", "aggregate"):
                pending.append(engine.n_pending)
            groups, epoch = engine.groups, engine.layout.epoch
            compacts = tracer.count("coax", "calls", ("compact",)) if tracer else 0
            compact_ns = tracer.count("coax", "ns", ("compact",)) if tracer else 0
            log.attempted += _weight(kind)
            start = common.clock()
            try:
                result = script.call(engine, op)
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                log.failed += _weight(kind)
                continue
            elapsed = common.clock() - start
            log.add(elapsed, BATCH if kind in ("range", "aggregate") else 0)
            by_kind[kind].append(elapsed)
            log.failed += script.check(op, result)
            if kind in ("insert", "delete", "update", "compact"):
                delta_bytes.append(sum(shard.delta.nbytes() for shard in engine.shards))
            if tracer is not None and (kind == "compact" or tracer.count("coax", "calls", ("compact",)) > compacts):
                stalls.append(elapsed)
            if kind == "compact":
                full["count"] += 1
                full["ns"] += int(elapsed * 1e9)
                full["refreshes"] += engine.groups != groups
                if engine.groups != groups or engine.layout.epoch != epoch:
                    full["rows"] += engine.n_rows
                if tracer is not None:
                    full["shard_calls"] += tracer.count("coax", "calls", ("compact",)) - compacts
                    full["shard_ns"] += tracer.count("coax", "ns", ("compact",)) - compact_ns
        rounds += 1
        if rounds % FULL_EVERY == 0:
            log.mark()  # a window of FULL_EVERY rounds: the same mix of work
            canary.tick()
        if rounds == SCRIPT_ROUNDS:
            at_script_end = _script_counters(engine, tracer, full)
    canary.tick()

    metrics = {
        "setup_s": setup_s,
        "p50_ms": log.percentile_ms(50),
        "p90_ms": log.percentile_ms(90),
        "throughput_qps": log.throughput(),
        "index_bytes": at_script_end["index_bytes"],
        "peak_rss_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        metrics = _layer_metrics(engine, tracer, at_script_end, by_kind, timings,
                                 pending, delta_bytes, stalls, full, log, script)
    engine.shutdown()
    metrics["host.canary_ms"] = canary.median_ms
    return {"metrics": metrics, "attempted": log.attempted, "failed": log.failed, "canary": canary, "tracer": tracer}


def _script_counters(engine, tracer, full) -> dict:
    """Counters at the end of the fixed script: they repeat under a seed."""
    breakdown = engine.memory_breakdown()
    counters = {
        "index_bytes": sum(breakdown.values()),
        "engine.mapping_bytes": breakdown.get("mapping", 0),
        "coax.directory_bytes": sum(breakdown.values()) - breakdown.get("mapping", 0),
        "layout.adoptions": engine.layout.epoch,
        "fd.refreshes": full["refreshes"],
    }
    if tracer is not None:
        shard_calls = tracer.count("coax", "calls", ("compact",))
        counters["compact.count"] = shard_calls - full["shard_calls"] + full["count"]
        counters["compact.rows_rewritten"] = tracer.count("coax", "rows_after", ("compact",)) + full["rows"]
        counters["compact.s_total"] = (
            tracer.count("coax", "ns", ("compact",)) - full["shard_ns"] + full["ns"]
        ) / 1e9
        reads = ("batch_flat_from_bounds",)
        counters.update(
            {
                "primary.rows_examined_per_query": tracer.count("primary", "rows_examined", reads),
                "primary.cells_visited_per_query": tracer.count("primary", "cells_visited", reads),
                "primary.matched": tracer.count("primary", "rows_matched", reads),
                "primary.agg_rows_examined_per_query": tracer.count(
                    "primary", "rows_examined", ("batch_aggregate_from_bounds",)
                ),
                "outlier.rows_examined_per_query": tracer.count("outlier", "rows_examined", reads),
                "outlier.matched": tracer.count("outlier", "rows_matched", reads),
                "engine.shards_pruned": engine.stats.shards_pruned,
                "engine.queries": engine.stats.queries,
            }
        )
    return counters


def _layer_metrics(engine, tracer, counted, by_kind, timings, pending, delta_bytes,
                   stalls, full, log, script) -> dict:
    n_range = SCRIPT_ROUNDS * ROUND.count("range") * BATCH
    n_agg = SCRIPT_ROUNDS * ROUND.count("aggregate") * BATCH
    calls = tracer.count("engine", "calls")
    examined = counted["primary.rows_examined_per_query"]
    outlier = counted["outlier.rows_examined_per_query"]
    written = INSERT * len(by_kind["insert"]) + DELETE * len(by_kind["delete"]) + UPDATE * len(by_kind["update"])
    return {
        "fd.learn_s": common.median([learn for learn, _ in timings]),
        "fd.refreshes": counted["fd.refreshes"],
        "engine.build_s": common.median([build for _, build in timings]),
        "engine.self_ms": tracer.self_ms("engine", ["coax"]) / calls,
        "engine.shards_pruned_per_query": counted["engine.shards_pruned"] / counted["engine.queries"],
        "engine.mapping_bytes": counted["engine.mapping_bytes"],
        "coax.shard_ms": tracer.total_ms("coax", ("batch_scatter_flat", "batch_scatter_aggregate")) / calls,
        "coax.self_ms": tracer.self_ms("coax", ["primary", "outlier", "delta"],
                                       ("batch_scatter_flat", "batch_scatter_aggregate")) / calls,
        "coax.directory_bytes": counted["coax.directory_bytes"],
        "primary.ms": tracer.total_ms("primary") / calls,
        "primary.rows_examined_per_query": examined / n_range,
        "primary.cells_visited_per_query": counted["primary.cells_visited_per_query"] / n_range,
        "primary.match_ratio": counted["primary.matched"] / max(examined, 1),
        "primary.agg_rows_examined_per_query": counted["primary.agg_rows_examined_per_query"] / n_agg,
        "outlier.ms": tracer.total_ms("outlier") / calls,
        "outlier.rows_examined_per_query": outlier / n_range,
        "outlier.match_ratio": counted["outlier.matched"] / max(outlier, 1),
        "delta.scan_ms": tracer.total_ms("delta") / calls,
        "delta.pending_rows_mean": float(np.mean(pending)),
        "delta.bytes_peak": max(delta_bytes),
        "write.insert_p50_ms": common.median(by_kind["insert"]) * 1e3,
        "write.delete_p50_ms": common.median(by_kind["delete"]) * 1e3,
        "write.update_p50_ms": common.median(by_kind["update"]) * 1e3,
        "write.rows_per_s": written / log.busy_s,
        "compact.count": counted["compact.count"],
        "compact.s_total": counted["compact.s_total"],
        "compact.stall_max_ms": max(stalls) * 1e3 if stalls else 0.0,
        "compact.rows_rewritten": counted["compact.rows_rewritten"],
        "layout.adoptions": counted["layout.adoptions"],
        "trace.overhead_frac": overhead_frac(
            tracer, [partial(script.call, engine, ("range", b)) for b in range(N_BATCHES)]
        ),
    }
