"""Asyncio TCP serving front end over the sharded engine.

:class:`CoalescingQueryServer` speaks the wire protocol on every
connection and routes admitted queries to the engine.  Queries from all
connections flow into one :class:`~repro.serve.coalescer.
QueryCoalescer`; micro-batches are flushed (size trigger, adaptive time
trigger, or group commit — the instant an in-flight batch completes) to
the :class:`~repro.serve.dispatcher.EngineDispatcher`, which runs them on
``batch_range_query_attributed`` in a worker thread and resolves each
client's future with its slice of the flat results plus per-query stats.

Connections may pipeline requests; responses are written in request order
per connection (a per-connection writer task awaits each future in turn,
and ``drain()`` applies TCP backpressure to slow readers).  Admission
control rejections, engine shutdown and malformed requests are answered
with the typed error responses of :mod:`repro.serve.protocol`; a client
that disconnects simply gets its outstanding futures cancelled, which
drops its queries from any not-yet-dispatched batch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.engine import EngineClosedError
from repro.indexes.base import QueryStats
from repro.serve.coalescer import (
    FLUSH,
    SCHEDULE,
    CoalescerConfig,
    OverloadedError,
    PendingQuery,
    QueryCoalescer,
)
from repro.serve.dispatcher import EngineDispatcher
from repro.serve.protocol import (
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
    request_from_wire,
)

__all__ = [
    "ServerConfig",
    "ServerNotStartedError",
    "CoalescingQueryServer",
    "stats_to_wire",
]


class ServerNotStartedError(RuntimeError):
    """A lifecycle-dependent attribute was read before ``start()``."""


def stats_to_wire(stats: Optional[QueryStats]) -> Optional[Dict[str, int]]:
    """Per-query stats attribution as the flat dict the protocol carries."""
    if stats is None:
        return None
    return {
        "rows_examined": stats.rows_examined,
        "rows_matched": stats.rows_matched,
        "cells_visited": stats.cells_visited,
        "nodes_visited": stats.nodes_visited,
        "shards_pruned": stats.shards_pruned,
        "aggregates": stats.aggregates,
        "knn_queries": stats.knn_queries,
        "rings_expanded": stats.rings_expanded,
    }


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the serving front end."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; the bound port is ``server.port``.
    port: int = 0
    #: Micro-batching policy.
    coalescer: CoalescerConfig = field(default_factory=CoalescerConfig)
    #: Dispatcher worker threads.  One is the sweet spot: the engine
    #: serialises concurrent batch calls anyway and a single in-flight
    #: batch keeps tail latency predictable.
    dispatch_workers: int = 1
    #: Listen backlog; thousands of clients connecting in bursts overflow
    #: the asyncio default of 100 (the kernel may clamp to ``somaxconn``).
    backlog: int = 1024


class CoalescingQueryServer:
    """Adaptive micro-batching front end (see the module docstring)."""

    def __init__(self, engine, *, config: Optional[ServerConfig] = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.dispatcher = EngineDispatcher(
            engine, max_workers=self.config.dispatch_workers
        )
        self.coalescer = QueryCoalescer(self.config.coalescer)
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._stopping = False
        self.connections_accepted = 0
        self.requests = 0
        self.bad_requests = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CoalescingQueryServer":
        """Bind and start accepting connections; returns ``self``."""
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            backlog=self.config.backlog,
        )
        return self

    @property
    def port(self) -> int:
        """The actually bound TCP port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ServerNotStartedError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop connections, release the dispatcher.

        In-flight engine batches finish (the dispatcher pool shuts down
        with ``wait=True``); queries still waiting in a queue are answered
        ``shutting_down`` through their cancelled futures.  The engine
        itself is *not* shut down — it belongs to the caller.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        for entry in self.coalescer.take_batch():
            if not entry.future.done():
                entry.future.set_exception(
                    EngineClosedError("server stopped before the query was dispatched")
                )
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(None, self.dispatcher.close)

    async def __aenter__(self) -> "CoalescingQueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def snapshot(self) -> Dict[str, float]:
        """Serving and coalescer counters.

        Engine-side pruning work (``shards_pruned`` / ``rows_examined``)
        and — when the engine runs workload-adaptive layout — the layout
        epoch and sketch depth ride along, so a serving dashboard can see
        pruning efficiency and re-layout activity without reaching into
        the engine.
        """
        counters = {
            "connections": self.connections_accepted,
            "requests": self.requests,
            "bad_requests": self.bad_requests,
            "batches": self.dispatcher.batches,
            "dispatched": self.dispatcher.queries,
        }
        engine = self.dispatcher.engine
        stats = getattr(engine, "stats", None)
        if stats is not None:
            counters["shards_pruned"] = stats.shards_pruned
            counters["rows_examined"] = stats.rows_examined
        layout = getattr(engine, "layout", None)
        if layout is not None:
            counters["layout_epoch"] = layout.epoch
            counters["layout_observed"] = layout.observed
        counters.update(
            {f"coalescer_{key}": value for key, value in self.coalescer.snapshot().items()}
        )
        return counters

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read/admit loop plus an in-order response writer."""
        loop = asyncio.get_running_loop()
        responses: asyncio.Queue = asyncio.Queue()
        outstanding: Set[asyncio.Future] = set()
        writer_task = loop.create_task(self._write_responses(writer, responses))
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except (ProtocolError, asyncio.IncompleteReadError, ConnectionError):
                    break
                if message is None:
                    break
                self.requests += 1
                request_id = message.get("id")
                future: asyncio.Future = loop.create_future()
                outstanding.add(future)
                future.add_done_callback(outstanding.discard)
                try:
                    query, executor = request_from_wire(message)
                except ProtocolError as exc:
                    self.bad_requests += 1
                    future.set_exception(ProtocolError(str(exc)))
                else:
                    entry = PendingQuery(
                        query=query,
                        future=future,
                        request_id=request_id,
                        executor=executor,
                    )
                    if self._stopping:
                        future.set_exception(EngineClosedError("server is stopping"))
                    else:
                        self._admit(entry)
                await responses.put((request_id, future))
        finally:
            await responses.put(None)
            # Cancelling the futures (not the writer) lets already-computed
            # responses flush while queued-not-dispatched queries drop out
            # of their batches.
            for future in list(outstanding):
                if not future.done():
                    future.cancel()
            try:
                await writer_task
            except asyncio.CancelledError:  # pragma: no cover - stop() path
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    async def _write_responses(
        self, writer: asyncio.StreamWriter, responses: asyncio.Queue
    ) -> None:
        """Await each request's future in order and write its response."""
        while True:
            item = await responses.get()
            if item is None:
                return
            request_id, future = item
            try:
                row_ids, value, stats, server_meta = await future
                payload = ok_response(
                    request_id,
                    row_ids,
                    value=value,
                    stats=stats_to_wire(stats),
                    server=server_meta,
                )
            except asyncio.CancelledError:
                # Connection is going away; nothing to write to.
                return
            except OverloadedError as exc:
                payload = error_response(
                    request_id,
                    "overloaded",
                    str(exc),
                    retry_after_ms=exc.retry_after_s * 1e3,
                )
            except EngineClosedError as exc:
                payload = error_response(request_id, "shutting_down", str(exc))
            except ProtocolError as exc:
                payload = error_response(request_id, "bad_request", str(exc))
            # repro-lint: allow[typed-errors] protocol boundary: unexpected failures are translated to a typed 'internal' wire response, never swallowed
            except Exception as exc:  # noqa: BLE001 - typed onto the wire
                payload = error_response(request_id, "internal", str(exc))
            try:
                writer.write(encode_frame(payload))
                await writer.drain()
            except (ConnectionError, OSError):
                return

    # ------------------------------------------------------------------
    # Admission and flush machinery
    # ------------------------------------------------------------------
    def _admit(self, entry: PendingQuery) -> None:
        try:
            action = self.coalescer.offer(entry, busy=self.dispatcher.busy)
        except OverloadedError as exc:
            # Fast reject: the client hears ``overloaded`` + retry hint
            # without the query ever touching a queue or the engine.
            entry.future.set_exception(exc)
            return
        if action == FLUSH:
            self._flush_now()
        elif action == SCHEDULE:
            self._arm_timer()

    def _arm_timer(self) -> None:
        deadline = self.coalescer.deadline
        if deadline is None:
            return
        if self._flush_handle is not None:
            self._flush_handle.cancel()
        delay = max(deadline - time.monotonic(), 0.0)
        self._flush_handle = asyncio.get_running_loop().call_later(
            delay, self._on_timer
        )

    def _on_timer(self) -> None:
        self._flush_handle = None
        if self.coalescer.due():
            self._flush_now()
        elif self.coalescer.deadline is not None:  # pragma: no cover - re-arm race
            self._arm_timer()

    def _flush_now(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch = self.coalescer.take_batch()
        if batch:
            task = asyncio.ensure_future(self.dispatcher.dispatch(batch))
            task.add_done_callback(self._after_dispatch)
        if self.coalescer.n_waiting:
            # Backlog beyond one batch: keep draining on the next tick so
            # overload recovery is bounded by dispatch, not by timers.
            self._arm_timer()

    def _after_dispatch(self, task: "asyncio.Future") -> None:
        """Group commit: flush whatever queued while the batch executed.

        Completion — not a timer — is the natural flush edge under load:
        every query that arrived during the batch has already waited the
        engine's service time, so dispatching them together immediately
        adds no latency and maximises the next batch.
        """
        if not task.cancelled():
            task.exception()  # dispatch() types errors onto the futures
        if not self._stopping and self.coalescer.n_waiting:
            self._flush_now()
