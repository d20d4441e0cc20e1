"""``serve-lookup``: point lookups and kNN through the TCP serving stack.

OSM at 100k rows (4 float64 columns, 3.2 MB — fits in the per-core L2)
in a 4-shard engine that is saved as a format-v6 archive and attached
with ``load_engine`` (the load is the set-up time) by a server process
of its own (``serve_process.py``), so the load generator — this
process — and the server each have a core, pinned while serving.  Its
``CoalescingQueryServer`` serves two client connections in a closed
loop: each connection keeps ``DEPTH`` requests in flight, sending the
next one as soon as a reply arrives, so the server always has work
queued and the measurement does not hinge on coalescer timer races; four
requests in five are point lookups of an existing row, the fifth a
10-nearest-neighbour search on (Latitude, Longitude).  Each request does
little engine work, so the wire protocol, the coalescer, the dispatcher
and the engine's fixed per-call cost dominate; the delta store and the
heavy scan kernels are not exercised.  Latency percentiles and
throughput are medians over one-second windows (``common.OpLog``);
``peak_rss_mb`` is the server process's.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from repro import OSMConfig, EngineConfig, Rectangle, ShardedCOAX, TopK, generate_osm_dataset
from repro import load_engine, save_index
from repro.serve import ServeClient, ServerError
from repro.serve.protocol import encode_frame, ok_response, read_frame, request_from_wire
from repro.serve.protocol import request_to_wire, split_response

from perfbench import common
from perfbench.oracle import Oracle
from perfbench.tracer import Tracer, overhead_frac

ROWS = 100_000
CLIENTS = 2
#: Requests each connection keeps in flight (pipelined on one socket).
DEPTH = 2
K = 10
KNN_EVERY = 5
N_DISTINCT = 2048
SEQUENCE = 8192
LOADS = 41
WARMUP_S = 1.0
WINDOW_S = 1.0
KNN_DIMS = ("Latitude", "Longitude")


class Requests:
    """Distinct requests, their oracle answers and the seeded sequence."""

    def __init__(self, table, seed: int) -> None:
        rng = np.random.default_rng(seed)
        columns = table.columns()
        dims = list(table.schema)
        rows = rng.integers(0, table.n_rows, size=N_DISTINCT)
        self.items = []  # (query, kNN spec or None for a point lookup)
        for i, row in enumerate(rows):
            if i % KNN_EVERY == 0:
                jitter = rng.normal(0.0, 1e-3, size=len(KNN_DIMS))
                point = {d: float(columns[d][row]) + float(j) for d, j in zip(KNN_DIMS, jitter)}
                self.items.append((Rectangle.unconstrained(), TopK(K, point=point)))
            else:
                self.items.append((Rectangle.from_point({d: float(columns[d][row]) for d in dims}), None))
        self.sequence = rng.integers(0, N_DISTINCT, size=SEQUENCE)
        oracle = Oracle(columns)
        points = np.array([[columns[d][row] for d in dims] for row in rows])
        ranged = oracle.range_batch(points, points)
        self.expected = [
            oracle.knn(spec.point, K) if spec is not None else ranged[i]
            for i, (_, spec) in enumerate(self.items)
        ]

    def direct(self, engine, item: int):
        query, spec = self.items[item]
        if spec is None:
            return engine.batch_range_query_attributed([query])[0][0]
        return engine.knn_attributed(spec.point, spec.k)[0]


class ServerProcess:
    """``serve_process.py`` running the server; always stopped and reaped."""

    def __init__(self, archive: str, loads: int) -> None:
        script = Path(__file__).with_name("serve_process.py")
        self.process = subprocess.Popen(
            [sys.executable, str(script), archive, str(loads)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            hello = self._read()
        except BaseException:
            self.close()
            raise
        self.port, self.loads_s = hello["port"], hello["loads_s"]

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise common.BenchmarkFailure("server process exited early")
        return json.loads(line)

    def snapshot(self) -> dict:
        self.process.stdin.write("snapshot\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.process.poll() is None:
            with contextlib.suppress(OSError):
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
            with contextlib.suppress(OSError):
                self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


async def _client(client, requests: Requests, offset: int, deadline: float, log, record):
    position = offset
    while common.clock() < deadline:
        item = int(requests.sequence[position % SEQUENCE])
        position += 1
        query, spec = requests.items[item]
        start = common.clock()
        try:
            if spec is None:
                served = await client.query(query)
            else:
                served = await client.query(query, spec)
        except ServerError:
            log.attempted += 1
            log.failed += 1
            continue
        if record:
            log.add(common.clock() - start, 1)
            log.attempted += 1
            log.results.append((item, served.row_ids))


async def _windows(log, seconds: float) -> None:
    """Split ``seconds`` of serving into windows of about ``WINDOW_S`` each.

    A phase shorter than ``WINDOW_S`` is one window.
    """
    count = max(1, int(seconds // WINDOW_S))
    at = common.clock()
    log.mark()  # opens the first window; nothing is logged before it
    for _ in range(count):
        await asyncio.sleep(max(0.0, at + seconds / count - common.clock()))
        now = common.clock()
        log.mark(now - at)
        at = now


async def _serve(server: ServerProcess, requests: Requests, seconds: float, log) -> dict:
    clients = []
    try:
        for _ in range(CLIENTS):
            clients.append(await ServeClient.connect("127.0.0.1", server.port))
        slots = [(c, n * SEQUENCE // (CLIENTS * DEPTH)) for n, c in enumerate(clients * DEPTH)]
        warm_until = common.clock() + WARMUP_S
        await asyncio.gather(*(_client(c, requests, o, warm_until, log, False) for c, o in slots))
        before = server.snapshot()
        deadline = common.clock() + seconds
        await asyncio.gather(
            _windows(log, seconds),
            *(_client(c, requests, o, deadline, log, True) for c, o in slots),
        )
        after = server.snapshot()
    finally:
        for client in clients:
            await client.close()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    delta["peak_rss_mb"] = after["peak_rss_mb"]
    return delta


async def _codec_us(requests: Requests) -> tuple:
    """Encode and decode every distinct request and its response once."""
    frames, replies = [], []
    start = common.clock()
    for i, (query, spec) in enumerate(requests.items):
        body = dict(request_to_wire(query, spec) if spec is not None else request_to_wire(query))
        body["id"] = i
        frames.append(encode_frame(body))
        replies.append(encode_frame(ok_response(i, requests.expected[i])))
    encode = common.clock() - start
    reader = asyncio.StreamReader()
    for request, reply in zip(frames, replies):
        reader.feed_data(request)
        reader.feed_data(reply)
    reader.feed_eof()
    start = common.clock()
    for _ in requests.items:
        request_from_wire(await read_frame(reader))
        split_response(await read_frame(reader))
    decode = common.clock() - start
    n = len(requests.items)
    return encode * 1e6 / n, decode * 1e6 / n


def run(seed: int, seconds: float, trace: bool, root) -> dict:
    table, _ = generate_osm_dataset(OSMConfig(n_rows=ROWS))
    requests = Requests(table, seed)
    canary = common.Canary()
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
    try:
        built = ShardedCOAX(table, config=EngineConfig(n_shards=4))
        archive = os.path.join(workdir, "engine")
        save_index(built, archive)
        built.shutdown()
        server = ServerProcess(archive, LOADS)
        try:
            outcome = _measure(server, archive, requests, seconds, trace, canary)
        finally:
            server.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no concurrent run still uses it
    outcome["metrics"]["io.load_s" if trace else "setup_s"] = common.median(server.loads_s)
    return outcome


def _measure(server: ServerProcess, archive: str, requests: Requests, seconds: float,
             trace: bool, canary) -> dict:
    tracer = Tracer() if trace else None
    log = common.OpLog()
    log.results = []
    canary.tick()
    cpus = os.sched_getaffinity(0)
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {min(cpus)})  # the server runs on max(cpus)
    try:
        serving = asyncio.run(_serve(server, requests, seconds, log))
    finally:
        os.sched_setaffinity(0, cpus)
    canary.tick()
    # A second attach of the same archive, in this process: its memory
    # breakdown is the served engine's, and traced runs call it directly.
    engine = load_engine(archive)
    breakdown = engine.memory_breakdown()
    metrics = {
        "p50_ms": log.percentile_ms(50),
        "p90_ms": log.percentile_ms(90),
        "throughput_qps": log.throughput(),
        "index_bytes": sum(breakdown.values()),
        "peak_rss_mb": serving["peak_rss_mb"],
    }
    failed = sum(
        not np.array_equal(ids, requests.expected[item]) for item, ids in log.results
    )
    if tracer is not None:
        served_p50 = metrics["p50_ms"]
        # Deterministic counters: one direct pass over the sequence head.
        tracer.instrument(engine)
        stats = engine.stats
        before = (stats.queries, stats.shards_pruned)
        direct = common.OpLog()
        head = [int(i) for i in requests.sequence[:N_DISTINCT]]
        for item in head:
            start = common.clock()
            ids = requests.direct(engine, item)
            direct.add(common.clock() - start, 1)
            failed += not np.array_equal(ids, requests.expected[item])
        log.attempted += len(head)
        lookups = sum(1 for i in head if requests.items[i][1] is None)
        examined = tracer.count("primary", "rows_examined", ("batch_flat_from_bounds",))
        calls = tracer.count("engine", "calls")
        tracer.enabled = False
        encode_us, decode_us = asyncio.run(_codec_us(requests))
        metrics = {
            "serve.overhead_p50_ms": served_p50 - direct.percentile_ms(50),
            "serve.mean_batch": serving["coalescer_dispatched"] / max(serving["coalescer_batches"], 1),
            "serve.passthrough_frac": serving["coalescer_passthrough"] / max(serving["coalescer_offered"], 1),
            "serve.rejected": serving["coalescer_rejected"],
            "protocol.encode_us": encode_us,
            "protocol.decode_us": decode_us,
            "engine.self_ms": tracer.self_ms("engine", ["coax"]) / calls,
            "engine.shards_pruned_per_query": (stats.shards_pruned - before[1]) / len(head),
            "engine.mapping_bytes": breakdown.get("mapping", 0),
            "coax.shard_ms": tracer.total_ms("coax") / calls,
            "coax.self_ms": tracer.self_ms("coax", ["primary", "outlier", "delta"]) / calls,
            "coax.directory_bytes": metrics["index_bytes"] - breakdown.get("mapping", 0),
            "primary.ms": tracer.total_ms("primary") / calls,
            "primary.rows_examined_per_query": examined / lookups,
            "primary.cells_visited_per_query": tracer.count("primary", "cells_visited", ("batch_flat_from_bounds",)) / lookups,
            "primary.match_ratio": tracer.count("primary", "rows_matched", ("batch_flat_from_bounds",)) / max(examined, 1),
            "outlier.ms": tracer.total_ms("outlier") / calls,
            "outlier.rows_examined_per_query": tracer.count("outlier", "rows_examined", ("batch_flat_from_bounds",)) / lookups,
            "delta.scan_ms": tracer.total_ms("delta") / calls,
            "trace.overhead_frac": overhead_frac(
                tracer, [partial(requests.direct, engine, item) for item in head]
            ),
        }
    engine.shutdown()
    metrics["host.canary_ms"] = canary.median_ms
    return {"metrics": metrics, "attempted": log.attempted, "failed": log.failed + failed, "canary": canary, "tracer": tracer}
