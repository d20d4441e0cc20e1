"""Asyncio client for the serving front end.

One :class:`ServeClient` owns one TCP connection and may pipeline any
number of requests on it: :meth:`submit` writes a frame and returns a
future, a background reader task matches response frames to futures by
request id.  :meth:`query` is the convenience submit-and-await form.

Server-side error responses surface as typed exceptions so callers can
branch on the condition instead of parsing strings —
:class:`ServerOverloadedError` (admission control fast-reject, carries
``retry_after_ms``), :class:`ServerShuttingDownError`,
:class:`RemoteBadRequestError`, :class:`RemoteInternalError`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.data.executors import MATERIALIZE, Aggregate, Executor, TopK
from repro.data.predicates import Rectangle
from repro.serve.protocol import (
    ProtocolError,
    encode_frame,
    read_frame,
    request_to_wire,
    split_response,
)

__all__ = [
    "ServeClient",
    "ServeResult",
    "ServerError",
    "ServerOverloadedError",
    "ServerShuttingDownError",
    "RemoteBadRequestError",
    "RemoteInternalError",
]


class ServerError(RuntimeError):
    """Base of all typed errors a server response can carry."""


class ServerOverloadedError(ServerError):
    """Admission control rejected the query; retry after ``retry_after_ms``."""

    def __init__(self, message: str, retry_after_ms: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ServerShuttingDownError(ServerError):
    """The engine behind the server has been shut down."""


class RemoteBadRequestError(ServerError):
    """The server could not parse the request."""


class RemoteInternalError(ServerError):
    """The query failed inside the engine."""


_ERROR_TYPES = {
    "shutting_down": ServerShuttingDownError,
    "bad_request": RemoteBadRequestError,
    "internal": RemoteInternalError,
}


@dataclass
class ServeResult:
    """One successful served query: ids (or an aggregate's scalar ``value``
    — ``None`` for MIN/MAX/AVG over an empty match set) plus optional
    serving metadata."""

    row_ids: np.ndarray
    value: Optional[float] = None
    stats: Optional[Dict[str, int]] = None
    server: Dict[str, Any] = field(default_factory=dict)


class ServeClient:
    """One pipelining connection to a :class:`~repro.serve.server.CoalescingQueryServer`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def submit(
        self, query: Rectangle, executor: Executor = MATERIALIZE
    ) -> "asyncio.Future[ServeResult]":
        """Send one query without waiting; the returned future resolves to
        its :class:`ServeResult` (or a typed :class:`ServerError`)."""
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        frame = dict(request_to_wire(query, executor))
        frame["id"] = request_id
        self._writer.write(encode_frame(frame))
        await self._writer.drain()
        return future

    async def query(
        self, query: Rectangle, executor: Executor = MATERIALIZE
    ) -> ServeResult:
        """Submit one query (under any executor) and wait for its result."""
        return await (await self.submit(query, executor))

    async def aggregate(self, query: Rectangle, spec: Aggregate) -> Optional[float]:
        """COUNT/SUM/MIN/MAX/AVG over the rectangle; ``None`` when undefined."""
        return (await self.query(query, spec)).value

    async def knn(
        self, point: Dict[str, float], k: int, *, metric: str = "l2"
    ) -> np.ndarray:
        """Row ids of the k nearest live rows around ``point``."""
        result = await self.query(
            Rectangle.unconstrained(), TopK(k, point=dict(point), metric=metric)
        )
        return result.row_ids

    async def topk(self, query: Rectangle, spec: TopK) -> np.ndarray:
        """Row ids of the k smallest/largest rows by a column in the rectangle."""
        return (await self.query(query, spec)).row_ids

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    break
                request_id, ok, body = split_response(message)
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue
                if ok:
                    future.set_result(
                        ServeResult(
                            row_ids=np.asarray(
                                body.get("row_ids", []), dtype=np.int64
                            ),
                            value=body.get("value"),
                            stats=body.get("stats"),
                            server=body.get("server", {}),
                        )
                    )
                else:
                    future.set_exception(_error_from_body(body))
        except asyncio.CancelledError:
            error = ConnectionError("client closed while requests were pending")
        except (
            ProtocolError,
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ) as exc:
            error = exc
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def close(self) -> None:
        """Close the connection; unanswered futures get ``ConnectionError``."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _error_from_body(body: Dict[str, Any]) -> ServerError:
    error = body.get("error") or {}
    code = error.get("code")
    message = error.get("message", "server error")
    if code == "overloaded":
        return ServerOverloadedError(message, error.get("retry_after_ms"))
    return _ERROR_TYPES.get(code, RemoteInternalError)(message)
