#!/usr/bin/env python
"""Serving front end: coalescing TCP server, pipelining client, backpressure.

The engine's batch read path amortises planning, Equation-2 translation
and result merging across a whole batch — but network clients send
queries one at a time. The serving layer (``repro.serve``, DESIGN.md §11)
closes that gap with adaptive micro-batch coalescing: single queries from
many connections accumulate for at most a couple of milliseconds (less
when the stream is hot, not at all when it is idle) and run through
``batch_range_query_attributed`` as one engine call. This example:

1. builds a sharded engine over the synthetic airline table and starts a
   ``CoalescingQueryServer`` on an ephemeral loopback port;
2. runs a single ad-hoc query through a ``ServeClient`` — an idle server
   passes it straight through, no coalescing delay — and reads the
   per-query ``stats`` attribution off the wire;
3. simulates a burst of concurrent clients and shows the coalescer's
   counters: batches formed, mean batch size, pass-throughs;
4. verifies every served result against the engine queried directly;
5. demonstrates typed backpressure: a deliberately tiny admission queue
   fast-rejects overflow queries with ``overloaded`` + ``retry_after_ms``
   instead of queueing without bound, and a shut-down engine answers
   ``shutting_down``.

Run with::

    python examples/serve_client.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import EngineConfig, Interval, Rectangle, ShardedCOAX, Table
from repro.data.airline import AirlineConfig, generate_airline_dataset
from repro.data.queries import WorkloadConfig, generate_knn_queries
from repro.serve import (
    CoalescerConfig,
    CoalescingQueryServer,
    ServeClient,
    ServerConfig,
    ServerOverloadedError,
    ServerShuttingDownError,
)


def build_engine() -> ShardedCOAX:
    table, _ = generate_airline_dataset(AirlineConfig(n_rows=40_000, seed=3))
    return ShardedCOAX(table, config=EngineConfig(n_shards=4, workers=1))


async def single_query(engine: ShardedCOAX) -> None:
    print("=== 1+2. One ad-hoc query through the server ===")
    async with CoalescingQueryServer(engine) as server:
        print(f"serving on 127.0.0.1:{server.port}")
        async with await ServeClient.connect("127.0.0.1", server.port) as client:
            query = Rectangle(
                {"Distance": Interval(500, 800), "AirTime": Interval(60, 120)}
            )
            result = await client.query(query)
            direct = engine.range_query(query)
            assert np.array_equal(np.sort(result.row_ids), np.sort(direct))
            print(f"rows matched : {len(result.row_ids)} (== direct query)")
            print(f"stats        : {result.stats}")
            print(f"server meta  : {result.server}  <- lone query, batch of 1")
    print()


async def concurrent_burst(engine: ShardedCOAX) -> None:
    print("=== 3+4. Concurrent clients coalesce into micro-batches ===")
    # Query around the rows of one shard, read back with their global ids.
    table = Table(engine.shards[0].live_rows()[0])
    dims = tuple(engine.shards[0].build_report.indexed_dimensions)
    queries = list(
        generate_knn_queries(
            table,
            WorkloadConfig(n_queries=32, k_neighbours=200, dimensions=dims, seed=9),
        )
    )
    expected = engine.batch_range_query(queries)

    async with CoalescingQueryServer(engine) as server:

        async def one_client(client_no: int) -> None:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                for i in range(client_no, len(queries), 16):
                    result = await client.query(queries[i])
                    assert np.array_equal(
                        np.sort(result.row_ids), np.sort(expected[i])
                    ), f"served result diverged on query {i}"

        await asyncio.gather(*(one_client(i) for i in range(16)))
        snapshot = server.snapshot()
        print(f"queries served : {snapshot['dispatched']:.0f}")
        print(f"engine batches : {snapshot['batches']:.0f}")
        print(f"mean batch     : {snapshot['coalescer_mean_batch']:.2f}")
        print(f"pass-throughs  : {snapshot['coalescer_passthrough']:.0f}")
        print("every served result verified against the direct engine query")
    print()


async def backpressure(engine: ShardedCOAX) -> None:
    print("=== 5. Typed backpressure ===")
    config = ServerConfig(
        coalescer=CoalescerConfig(
            max_batch=4096,
            max_queue=4,  # deliberately tiny admission bound
            max_window_s=0.1,
            min_window_s=0.08,
            idle_gap_factor=1e9,  # never pass through, force queueing
        )
    )
    query = Rectangle({"Distance": Interval(500, 800)})
    async with CoalescingQueryServer(engine, config=config) as server:
        async with await ServeClient.connect("127.0.0.1", server.port) as client:
            futures = [await client.submit(query) for _ in range(10)]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            served = sum(1 for o in outcomes if not isinstance(o, Exception))
            rejections = [o for o in outcomes if isinstance(o, ServerOverloadedError)]
            print("submitted 10 with a queue bound of 4:")
            print(f"  served    : {served}")
            print(f"  rejected  : {len(rejections)} (typed 'overloaded')")
            if rejections:
                print(f"  retry hint: {rejections[0].retry_after_ms:.1f} ms")

    # A server over a shut-down engine answers 'shutting_down', not a crash.
    async with CoalescingQueryServer(engine) as server:
        async with await ServeClient.connect("127.0.0.1", server.port) as client:
            engine.shutdown()
            try:
                await client.query(query)
            except ServerShuttingDownError as exc:
                print(f"after engine.shutdown(): ServerShuttingDownError({exc})")


async def main() -> None:
    engine = build_engine()
    print(f"engine: {engine.n_rows} rows, {engine.n_shards} shards\n")
    await single_query(engine)
    await concurrent_burst(engine)
    await backpressure(engine)


if __name__ == "__main__":
    asyncio.run(main())
