"""Serving front end: asyncio TCP server with adaptive query coalescing.

The engine's batch read path amortises planning, translation and merge
across queries, but network clients send queries one at a time.  This
package bridges the two: a TCP server (length-prefixed JSON protocol)
funnels concurrent single queries through an adaptive micro-batching
coalescer into the engine's batch kernels, with admission control and
typed backpressure.  See DESIGN.md §11 for the architecture.

Layering (each module usable and testable without the ones above it):

* :mod:`repro.serve.protocol` — wire format, no IO beyond stream reads.
* :mod:`repro.serve.coalescer` — sans-IO adaptive batching state machine.
* :mod:`repro.serve.dispatcher` — event-loop ↔ engine-thread handoff.
* :mod:`repro.serve.server` — asyncio coalescing server.
* :mod:`repro.serve.client` — pipelining client with typed errors.
"""

from repro.serve.client import (
    RemoteBadRequestError,
    RemoteInternalError,
    ServeClient,
    ServeResult,
    ServerError,
    ServerOverloadedError,
    ServerShuttingDownError,
)
from repro.serve.coalescer import (
    CoalescerConfig,
    OverloadedError,
    PendingQuery,
    QueryCoalescer,
)
from repro.serve.dispatcher import EngineDispatcher
from repro.serve.protocol import ProtocolError
from repro.serve.server import (
    CoalescingQueryServer,
    ServerConfig,
    ServerNotStartedError,
)

__all__ = [
    "CoalescerConfig",
    "CoalescingQueryServer",
    "EngineDispatcher",
    "OverloadedError",
    "PendingQuery",
    "ProtocolError",
    "QueryCoalescer",
    "RemoteBadRequestError",
    "RemoteInternalError",
    "ServeClient",
    "ServeResult",
    "ServerConfig",
    "ServerError",
    "ServerNotStartedError",
    "ServerOverloadedError",
    "ServerShuttingDownError",
]
