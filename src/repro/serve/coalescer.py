"""Adaptive query coalescing: the micro-batching state machine.

The batch read path answers 2–58x more queries per second than
one-at-a-time execution once a batch holds 64 to 1024 queries (the last
committed read-path numbers, DESIGN.md §7), while a batch of one costs
about 1.3x a scalar call; but a service receives queries one at a time
from many concurrent clients.  The coalescer closes that gap: single
queries accumulate into a micro-batch that is flushed to
``ShardedCOAX.batch_range_query_attributed`` when **either** the batch
reaches ``max_batch`` queries **or** an adaptive time window (bounded by
``max_window_s``, 1–5 ms territory) expires — whichever happens first.

The window adapts to the offered load instead of taxing every query with a
fixed delay:

* **Idle pass-through.**  When the queue is empty and the recent
  inter-arrival gap says no companion query is likely to arrive within the
  window, a lone query is flushed immediately — an unloaded server adds
  *zero* coalescing latency.
* **Group commit.**  Pass-through is suppressed while a batch is already
  executing downstream (the ``busy`` input to :meth:`QueryCoalescer.
  offer`): the lone query cannot start any sooner than the in-flight
  batch finishes, so queueing it costs nothing and it seeds the batch the
  server flushes on completion.  This is what breaks the closed-loop
  convoy where completions pace arrivals at the engine's service time
  and every query would otherwise look idle.
* **Hot shrink.**  Under load the window is sized to the *expected time to
  fill the batch* (EWMA inter-arrival gap × remaining slots, clamped to
  ``[min_window_s, max_window_s]``): the hotter the stream, the shorter
  the wait, because a batch fills on its own.  Waiting longer than the
  fill time can never help; waiting less only shrinks batches.

Admission control is a bounded queue: once ``max_queue`` queries are
waiting, :meth:`QueryCoalescer.offer` raises :class:`OverloadedError` and
the server fast-rejects with a typed ``overloaded`` response instead of
growing an unbounded backlog (clients get ``retry_after_ms`` — roughly one
window — as the backoff hint).  Disconnected clients are handled at flush
time: entries whose future was cancelled are dropped from the batch before
it reaches the engine.

The class is deliberately sans-IO — no sockets, no event loop, an
injectable clock — so the state machine is unit-testable in isolation; the
asyncio server wires ``offer``/``take_batch`` to timers and streams.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.data.executors import MATERIALIZE, Executor, executor_key

__all__ = [
    "FLUSH",
    "SCHEDULE",
    "QUEUED",
    "CoalescerConfig",
    "OverloadedError",
    "PendingQuery",
    "QueryCoalescer",
]

#: :meth:`QueryCoalescer.offer` outcomes: the caller must drain a batch now
#: (size trigger or idle pass-through) / must arm a flush timer for
#: :attr:`QueryCoalescer.deadline` / the entry joined an already-armed batch.
FLUSH = "flush"
SCHEDULE = "schedule"
QUEUED = "queued"


class OverloadedError(RuntimeError):
    """Admission control rejected an offer: the wait queue is full.

    Carries ``retry_after_s``, the server's backoff hint (about one flush
    window: by then the queue has drained at least one batch or the
    service is genuinely saturated).
    """

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


@dataclass(frozen=True)
class CoalescerConfig:
    """Tuning knobs of the adaptive micro-batching policy."""

    #: Size trigger: flush as soon as this many queries wait.
    max_batch: int = 128
    #: Time trigger ceiling: no admitted query waits longer than this for
    #: its batch (seconds; the 1–5 ms regime trades microseconds of wait
    #: for the batch path's per-query speedup).
    max_window_s: float = 0.002
    #: Floor of the adaptive window, so a hot stream still aggregates a
    #: few arrivals instead of degenerating into per-query dispatch.
    min_window_s: float = 0.0002
    #: Pass a lone query straight through when the expected wait for a
    #: companion (the EWMA inter-arrival gap) exceeds this fraction of
    #: ``max_window_s`` — idle traffic then never waits at all.
    idle_gap_factor: float = 1.0
    #: Admission bound: offers beyond this many waiting queries raise
    #: :class:`OverloadedError` instead of queueing.
    max_queue: int = 4096
    #: Smoothing of the inter-arrival EWMA (higher reacts faster).
    ewma_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_window_s <= 0:
            raise ValueError("max_window_s must be positive")
        if not 0 < self.min_window_s <= self.max_window_s:
            raise ValueError("min_window_s must be in (0, max_window_s]")
        if self.idle_gap_factor <= 0:
            raise ValueError("idle_gap_factor must be positive")
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")


@dataclass
class PendingQuery:
    """One admitted query waiting for (or riding in) a micro-batch.

    ``future`` is resolved by the dispatcher with ``(row_ids, stats)`` —
    any object with the ``asyncio.Future`` surface works, which keeps the
    coalescer loop-agnostic.  A future already cancelled or resolved at
    flush time (client disconnected, deadline enforced upstream) drops the
    entry from the batch before the engine sees it.

    ``executor`` is the operator consumer the query runs under
    (:data:`~repro.data.executors.MATERIALIZE` by default); queries only
    share a micro-batch with compatible executors (equal
    :func:`~repro.data.executors.executor_key`), because one dispatched
    batch runs a single executor spec end to end.
    """

    query: Any
    future: Any
    request_id: Any = None
    offered_at: float = 0.0
    executor: Executor = MATERIALIZE
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def abandoned(self) -> bool:
        """True when serving this entry can no longer reach its client."""
        return self.future.cancelled() or self.future.done()


class QueryCoalescer:
    """Sans-IO adaptive micro-batching state machine (see module docs).

    Not thread-safe by design: all transitions happen on one event loop
    (or one test thread).  ``clock`` is injectable so tests drive time
    explicitly.
    """

    def __init__(
        self,
        config: Optional[CoalescerConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else CoalescerConfig()
        self._clock = clock
        self._queue: Deque[PendingQuery] = deque()
        self._deadline: Optional[float] = None
        self._gap_ewma: Optional[float] = None
        self._last_arrival: Optional[float] = None
        # Serving counters, exposed via :meth:`snapshot`.
        self.offered = 0
        self.rejected = 0
        self.passthrough = 0
        self.batches = 0
        self.dispatched = 0
        self.dropped_abandoned = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_waiting(self) -> int:
        """Queries admitted but not yet taken into a batch."""
        return len(self._queue)

    @property
    def deadline(self) -> Optional[float]:
        """Clock time of the armed time trigger (``None`` when idle)."""
        return self._deadline

    def snapshot(self) -> Dict[str, float]:
        """Serving counters for stats endpoints and benchmark reports."""
        return {
            "offered": self.offered,
            "rejected": self.rejected,
            "passthrough": self.passthrough,
            "batches": self.batches,
            "dispatched": self.dispatched,
            "dropped_abandoned": self.dropped_abandoned,
            "waiting": len(self._queue),
            "mean_batch": self.dispatched / self.batches if self.batches else 0.0,
        }

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def offer(
        self,
        entry: PendingQuery,
        now: Optional[float] = None,
        *,
        busy: bool = False,
    ) -> str:
        """Admit one query; returns :data:`FLUSH`/:data:`SCHEDULE`/:data:`QUEUED`.

        Raises :class:`OverloadedError` without queueing when admission
        control is at capacity.  On :data:`FLUSH` the caller must drain
        via :meth:`take_batch` immediately; on :data:`SCHEDULE` it must
        arm a timer for :attr:`deadline` (there was no timer before); on
        :data:`QUEUED` an earlier offer's timer already covers this entry.

        ``busy`` is the group-commit signal: pass ``True`` while a batch
        is already executing downstream.  It suppresses idle pass-through
        — a lone query cannot start any sooner than the in-flight batch
        finishes, so queueing it is free and it seeds the next batch.
        Without this, a closed-loop stream whose service time exceeds
        ``max_window_s`` locks into a convoy of batches of one: each
        completion releases exactly one client, so arrivals stay spaced
        at the service time and always look idle.
        """
        now = self._clock() if now is None else now
        if len(self._queue) >= self.config.max_queue:
            self.rejected += 1
            raise OverloadedError(
                f"coalescer queue is full ({self.config.max_queue} waiting)",
                retry_after_s=self._window(),
            )
        self._observe_arrival(now)
        entry.offered_at = now
        self._queue.append(entry)
        self.offered += 1
        if len(self._queue) >= self.config.max_batch:
            return FLUSH
        if len(self._queue) == 1:
            if not busy and self._expect_idle():
                self.passthrough += 1
                return FLUSH
            self._deadline = now + self._window()
            return SCHEDULE
        return QUEUED

    def due(self, now: Optional[float] = None) -> bool:
        """True when the time trigger has expired and a batch is waiting."""
        if self._deadline is None or not self._queue:
            return False
        now = self._clock() if now is None else now
        return now >= self._deadline

    def take_batch(self, now: Optional[float] = None) -> List[PendingQuery]:
        """Drain up to ``max_batch`` executor-compatible live entries.

        Abandoned entries (cancelled/resolved futures — disconnected
        clients) are dropped here, *before* the engine runs the batch.
        The batch is the FIFO prefix of entries sharing the head's
        :func:`~repro.data.executors.executor_key` — a dispatched batch
        runs one executor spec end to end, so a stream mixing ops splits
        at each op boundary (order is preserved; the next op group rides
        the immediately re-armed deadline below).  If a backlog remains —
        more than one batch was waiting, or a mixed stream split — the
        deadline stays armed at "now": the caller's flush loop keeps
        draining until the queue is empty, which is what bounds the queue
        during overload recovery.
        """
        now = self._clock() if now is None else now
        batch: List[PendingQuery] = []
        batch_key = None
        while self._queue and len(batch) < self.config.max_batch:
            entry = self._queue[0]
            if entry.abandoned:
                self._queue.popleft()
                self.dropped_abandoned += 1
                continue
            key = executor_key(entry.executor)
            if batch_key is None:
                batch_key = key
            elif key != batch_key:
                break
            self._queue.popleft()
            batch.append(entry)
        if self._queue:
            self._deadline = now
        else:
            self._deadline = None
        if batch:
            self.batches += 1
            self.dispatched += len(batch)
        return batch

    # ------------------------------------------------------------------
    # Adaptive window policy
    # ------------------------------------------------------------------
    def _observe_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            gap = max(now - self._last_arrival, 0.0)
            if self._gap_ewma is None:
                self._gap_ewma = gap
            else:
                alpha = self.config.ewma_alpha
                self._gap_ewma = alpha * gap + (1 - alpha) * self._gap_ewma
        self._last_arrival = now

    def _window(self) -> float:
        """Current flush window: expected batch fill time, clamped.

        With no arrival history the full ``max_window_s`` applies (first
        queries of a burst err toward batching); once the EWMA tracks the
        stream, the window shrinks to roughly how long filling the
        remaining batch slots will take — a hot queue flushes early, a
        lukewarm one waits no longer than the ceiling.
        """
        if self._gap_ewma is None:
            return self.config.max_window_s
        remaining = max(self.config.max_batch - len(self._queue), 1)
        expected_fill = self._gap_ewma * remaining
        return float(
            min(self.config.max_window_s, max(self.config.min_window_s, expected_fill))
        )

    def _expect_idle(self) -> bool:
        """Lone query and no companion expected inside the window → pass through."""
        if self._gap_ewma is None:
            # No history yet: first query ever observed should not pay a
            # speculative wait.
            return True
        return self._gap_ewma > self.config.max_window_s * self.config.idle_gap_factor
