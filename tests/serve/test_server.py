"""End-to-end tests of the asyncio serving front end.

Real TCP sockets on an ephemeral loopback port, a real engine underneath;
every served result is checked against the engine queried directly.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import EngineClosedError, ShardedCOAX
from repro.data.predicates import Interval, Rectangle
from repro.serve import (
    CoalescerConfig,
    CoalescingQueryServer,
    RemoteBadRequestError,
    ServeClient,
    ServerConfig,
    ServerOverloadedError,
    ServerShuttingDownError,
)
from repro.serve.protocol import encode_frame

QUERIES = [
    Rectangle({"Distance": Interval(500, 800), "AirTime": Interval(60, 120)}),
    Rectangle({"Distance": Interval(100, 300)}),
    Rectangle({"AirTime": Interval(30, 45), "Distance": Interval(0, 5000)}),
    Rectangle({"Distance": Interval(2500, 2600), "AirTime": Interval(280, 400)}),
]


@pytest.fixture(scope="module")
def engine(airline_small) -> ShardedCOAX:
    engine = ShardedCOAX(airline_small, config=EngineConfig(n_shards=2))
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def expected(engine):
    results = engine.batch_range_query(QUERIES)
    return [np.sort(r) for r in results]


def assert_matches(result, oracle) -> None:
    assert np.array_equal(np.sort(result.row_ids), oracle)


def test_round_trip_matches_direct_engine(engine, expected):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                for query, oracle in zip(QUERIES, expected):
                    assert_matches(await client.query(query), oracle)

    asyncio.run(scenario())


def test_pipelined_queries_coalesce_and_match(engine, expected):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                futures = []
                for i in range(40):
                    futures.append(await client.submit(QUERIES[i % len(QUERIES)]))
                results = await asyncio.gather(*futures)
                for i, result in enumerate(results):
                    assert_matches(result, expected[i % len(expected)])
                return server.snapshot()

    snapshot = asyncio.run(scenario())
    assert snapshot["dispatched"] == 40
    # Pipelined arrivals must actually batch, not degrade to one-by-one.
    assert snapshot["batches"] < 40


def test_concurrent_clients_verified_against_oracle(engine, expected):
    async def one_client(port: int, client_id: int) -> None:
        async with await ServeClient.connect("127.0.0.1", port) as client:
            for i in range(6):
                slot = (client_id + i) % len(QUERIES)
                assert_matches(await client.query(QUERIES[slot]), expected[slot])

    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            await asyncio.gather(*(one_client(server.port, i) for i in range(16)))
            return server.snapshot()

    snapshot = asyncio.run(scenario())
    assert snapshot["dispatched"] == 96
    assert snapshot["batches"] < 96


def test_group_commit_flushes_on_completion(engine, expected):
    """With a huge time window, batches still flow: completion is the flush edge.

    The first query passes through (engine idle); everything arriving while
    it executes queues (``busy``) and is flushed the moment that batch
    completes — the multi-second timer never gets to fire.
    """
    config = ServerConfig(
        coalescer=CoalescerConfig(max_batch=4096, max_window_s=5.0, min_window_s=4.0)
    )

    async def scenario():
        async with CoalescingQueryServer(engine, config=config) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                futures = [
                    await client.submit(QUERIES[i % len(QUERIES)]) for i in range(24)
                ]
                results = await asyncio.wait_for(asyncio.gather(*futures), timeout=3.0)
                for i, result in enumerate(results):
                    assert_matches(result, expected[i % len(expected)])
                return server.snapshot()

    snapshot = asyncio.run(scenario())
    assert snapshot["dispatched"] == 24
    assert 1 < snapshot["batches"] < 24


def test_per_query_stats_on_the_wire(engine):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                return await client.query(QUERIES[0])

    result = asyncio.run(scenario())
    assert result.stats is not None
    assert result.stats["rows_matched"] == len(result.row_ids)
    assert result.stats["rows_examined"] >= result.stats["rows_matched"]
    assert result.server["batched"] >= 1
    assert result.server["wait_us"] >= 0


def test_overload_fast_reject(engine):
    config = ServerConfig(
        coalescer=CoalescerConfig(max_batch=4096, max_queue=2, max_window_s=0.1,
                                  min_window_s=0.08, idle_gap_factor=1e9)
    )

    async def scenario():
        async with CoalescingQueryServer(engine, config=config) as server:
            # Pre-warm the EWMA so lone queries stop passing through.
            server.coalescer._gap_ewma = 1e-6
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                futures = [await client.submit(QUERIES[0]) for _ in range(6)]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                rejected = [o for o in outcomes if isinstance(o, ServerOverloadedError)]
                assert rejected, "expected overload rejections beyond max_queue=2"
                assert all(r.retry_after_ms > 0 for r in rejected)
                served = [o for o in outcomes if not isinstance(o, Exception)]
                assert len(served) + len(rejected) == 6

    asyncio.run(scenario())


def test_bad_request_answered_not_dropped(engine, expected):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(encode_frame({"id": 1, "op": "scan"}))
                await writer.drain()
                client = ServeClient(reader, writer)
                # The bad frame gets a typed error; the connection survives
                # and a valid query still round-trips afterwards.
                future = await client.submit(QUERIES[0])
                assert_matches(await future, expected[0])
            finally:
                writer.close()

    asyncio.run(scenario())


def test_bad_request_via_client(engine):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            client = ServeClient(reader, writer)
            try:
                request_id = client._next_id
                client._next_id += 1
                future = asyncio.get_running_loop().create_future()
                client._pending[request_id] = future
                writer.write(encode_frame({"id": request_id, "op": "bogus"}))
                await writer.drain()
                with pytest.raises(RemoteBadRequestError):
                    await future
            finally:
                await client.close()

    asyncio.run(scenario())


def test_shutdown_engine_yields_typed_error(airline_small):
    engine = ShardedCOAX(airline_small, config=EngineConfig(n_shards=2))

    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                await client.query(QUERIES[0])  # engine healthy
                engine.shutdown()
                with pytest.raises(ServerShuttingDownError):
                    await client.query(QUERIES[0])

    asyncio.run(scenario())


def test_disconnect_cancels_pending_queries(engine):
    """A client that vanishes while queued must not stall the batch."""
    config = ServerConfig(
        coalescer=CoalescerConfig(max_batch=4096, max_window_s=0.05,
                                  min_window_s=0.04, idle_gap_factor=1e9)
    )

    async def scenario():
        async with CoalescingQueryServer(engine, config=config) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(encode_frame({"id": 0, "op": "range",
                                       "bounds": {"Distance": [500.0, 800.0]}}))
            await writer.drain()
            # Hard-drop the connection while the query waits for its window.
            writer.close()
            # A healthy client on its own connection is still served.
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                result = await client.query(QUERIES[0])
                assert len(result.row_ids) > 0
            for _ in range(100):
                if server.coalescer.n_waiting == 0 and not server._connections:
                    break
                await asyncio.sleep(0.01)
            return server.snapshot()

    snapshot = asyncio.run(scenario())
    # The abandoned query either got dropped at flush time or its write
    # failed harmlessly; it must not be waiting forever.
    assert snapshot["coalescer_waiting"] == 0


def test_server_stop_fails_queued_queries(engine):
    config = ServerConfig(
        coalescer=CoalescerConfig(max_batch=4096, max_window_s=5.0, min_window_s=4.0,
                                  idle_gap_factor=1e9)
    )

    async def scenario():
        server = CoalescingQueryServer(engine, config=config)
        await server.start()
        server.coalescer._gap_ewma = 1e-6  # force queueing
        client = await ServeClient.connect("127.0.0.1", server.port)
        future = await client.submit(QUERIES[0])
        for _ in range(100):
            if server.coalescer.n_waiting:
                break
            await asyncio.sleep(0.01)
        assert server.coalescer.n_waiting == 1
        await server.stop()
        with pytest.raises((ServerShuttingDownError, ConnectionError, EngineClosedError)):
            await future
        await client.close()

    asyncio.run(scenario())
