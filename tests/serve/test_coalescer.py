"""Unit tests of the sans-IO adaptive coalescing state machine.

Everything here runs without sockets or an event loop: time is an
explicit fake clock, futures are a minimal stand-in with the
``done``/``cancelled`` surface the coalescer inspects.
"""

from __future__ import annotations

import pytest

from repro.serve.coalescer import (
    FLUSH,
    QUEUED,
    SCHEDULE,
    CoalescerConfig,
    OverloadedError,
    PendingQuery,
    QueryCoalescer,
)


class FakeFuture:
    """The fragment of the asyncio.Future surface the coalescer touches."""

    def __init__(self) -> None:
        self._cancelled = False
        self._done = False

    def cancel(self) -> None:
        self._cancelled = True
        self._done = True

    def cancelled(self) -> bool:
        return self._cancelled

    def done(self) -> bool:
        return self._done


def entry() -> PendingQuery:
    return PendingQuery(query=object(), future=FakeFuture())


def hot_coalescer(config: CoalescerConfig) -> QueryCoalescer:
    """A coalescer whose EWMA says companions arrive quickly (never idle)."""
    coalescer = QueryCoalescer(config, clock=lambda: 0.0)
    coalescer._gap_ewma = config.min_window_s / 10.0
    return coalescer


# ----------------------------------------------------------------------
# Size trigger
# ----------------------------------------------------------------------
def test_size_trigger_flushes_full_batch():
    config = CoalescerConfig(max_batch=4, max_window_s=1.0)
    coalescer = hot_coalescer(config)
    actions = [coalescer.offer(entry(), now=float(i) * 1e-5) for i in range(4)]
    assert actions == [SCHEDULE, QUEUED, QUEUED, FLUSH]
    batch = coalescer.take_batch(now=1e-4)
    assert len(batch) == 4
    assert coalescer.n_waiting == 0
    assert coalescer.deadline is None


def test_size_trigger_leaves_backlog_armed():
    config = CoalescerConfig(max_batch=2, max_window_s=1.0)
    coalescer = hot_coalescer(config)
    for i in range(5):
        coalescer.offer(entry(), now=float(i) * 1e-5)
    batch = coalescer.take_batch(now=1.0)
    assert len(batch) == 2
    assert coalescer.n_waiting == 3
    # Backlog keeps the deadline armed at "now" so the flush loop drains it.
    assert coalescer.deadline == 1.0
    assert coalescer.due(now=1.0)


# ----------------------------------------------------------------------
# Time trigger
# ----------------------------------------------------------------------
def test_time_trigger_fires_at_deadline():
    config = CoalescerConfig(max_batch=100, max_window_s=0.002, min_window_s=0.002)
    coalescer = hot_coalescer(config)
    assert coalescer.offer(entry(), now=0.0) == SCHEDULE
    deadline = coalescer.deadline
    assert deadline == pytest.approx(0.002)
    assert coalescer.offer(entry(), now=0.001) == QUEUED
    assert not coalescer.due(now=0.0015)
    assert coalescer.due(now=deadline)
    batch = coalescer.take_batch(now=deadline)
    assert len(batch) == 2


def test_window_shrinks_when_hot():
    """A hot arrival stream sizes the window to the expected fill time."""
    config = CoalescerConfig(
        max_batch=8, max_window_s=0.005, min_window_s=0.0001, ewma_alpha=1.0
    )
    coalescer = QueryCoalescer(config, clock=lambda: 0.0)
    # 50 µs inter-arrival gap -> expected fill of 7 remaining slots = 350 µs,
    # far below the 5 ms ceiling.
    coalescer.offer(entry(), now=0.0)
    coalescer.take_batch(now=0.0)  # prime EWMA without batching effects
    coalescer.offer(entry(), now=50e-6)
    assert coalescer._gap_ewma == pytest.approx(50e-6)
    assert coalescer.deadline is not None
    window = coalescer.deadline - 50e-6
    assert window == pytest.approx(50e-6 * (config.max_batch - 1))
    assert window < config.max_window_s


def test_window_clamped_to_bounds():
    config = CoalescerConfig(
        max_batch=4, max_window_s=0.002, min_window_s=0.0005, ewma_alpha=1.0
    )
    coalescer = QueryCoalescer(config, clock=lambda: 0.0)
    coalescer._gap_ewma = 1e-9  # absurdly hot -> clamp to floor
    assert coalescer._window() == config.min_window_s
    coalescer._gap_ewma = 0.0015  # lukewarm -> expected fill above ceiling
    assert coalescer._window() == config.max_window_s


# ----------------------------------------------------------------------
# Idle pass-through
# ----------------------------------------------------------------------
def test_first_ever_query_passes_through():
    coalescer = QueryCoalescer(CoalescerConfig(), clock=lambda: 0.0)
    assert coalescer.offer(entry(), now=0.0) == FLUSH
    assert coalescer.passthrough == 1
    assert len(coalescer.take_batch(now=0.0)) == 1


def test_idle_stream_never_waits():
    """Arrivals far apart keep flushing immediately — zero added latency."""
    config = CoalescerConfig(max_window_s=0.002)
    coalescer = QueryCoalescer(config, clock=lambda: 0.0)
    for i in range(5):
        now = i * 1.0  # one query per second
        assert coalescer.offer(entry(), now=now) == FLUSH
        assert len(coalescer.take_batch(now=now)) == 1
    assert coalescer.passthrough == 5


def test_hot_stream_disables_passthrough():
    config = CoalescerConfig(max_window_s=0.002, ewma_alpha=1.0)
    coalescer = QueryCoalescer(config, clock=lambda: 0.0)
    coalescer.offer(entry(), now=0.0)
    coalescer.take_batch(now=0.0)
    # 100 µs gap << 2 ms window: the next lone query waits for companions.
    assert coalescer.offer(entry(), now=100e-6) == SCHEDULE


def test_idle_transition_after_hot_burst():
    """The EWMA forgets a burst: long gaps re-enable pass-through."""
    config = CoalescerConfig(max_window_s=0.002, ewma_alpha=0.5)
    coalescer = QueryCoalescer(config, clock=lambda: 0.0)
    now = 0.0
    for _ in range(10):  # hot burst, 100 µs apart
        now += 100e-6
        coalescer.offer(entry(), now=now)
    coalescer.take_batch(now=now)
    # Two long gaps push the EWMA far above the window.
    for _ in range(2):
        now += 10.0
        coalescer.offer(entry(), now=now)
        coalescer.take_batch(now=now)
    assert coalescer.offer(entry(), now=now + 10.0) == FLUSH


# ----------------------------------------------------------------------
# Group commit (busy input)
# ----------------------------------------------------------------------
def test_busy_suppresses_first_query_passthrough():
    """With a batch in flight, even a history-less lone query queues."""
    coalescer = QueryCoalescer(CoalescerConfig(), clock=lambda: 0.0)
    assert coalescer.offer(entry(), now=0.0, busy=True) == SCHEDULE
    assert coalescer.passthrough == 0
    assert coalescer.n_waiting == 1
    assert coalescer.deadline is not None


def test_busy_suppresses_idle_passthrough():
    """An idle-looking stream still queues while the engine is busy.

    This is the convoy breaker: closed-loop completions pace arrivals at
    the service time, which looks idle to the EWMA forever.
    """
    config = CoalescerConfig(max_window_s=0.002, ewma_alpha=1.0)
    coalescer = QueryCoalescer(config, clock=lambda: 0.0)
    coalescer.offer(entry(), now=0.0)
    coalescer.take_batch(now=0.0)
    coalescer.offer(entry(), now=1.0)  # 1 s gap: solidly idle EWMA
    coalescer.take_batch(now=1.0)
    assert coalescer.offer(entry(), now=2.0, busy=True) == SCHEDULE
    assert coalescer.offer(entry(), now=2.0 + 1e-6, busy=True) == QUEUED
    assert len(coalescer.take_batch(now=2.0 + 1e-6)) == 2


def test_not_busy_keeps_idle_passthrough():
    """busy=False (the default) leaves pass-through behaviour untouched."""
    config = CoalescerConfig(max_window_s=0.002, ewma_alpha=1.0)
    coalescer = QueryCoalescer(config, clock=lambda: 0.0)
    coalescer.offer(entry(), now=0.0)
    coalescer.take_batch(now=0.0)
    coalescer.offer(entry(), now=1.0)
    coalescer.take_batch(now=1.0)
    assert coalescer.offer(entry(), now=2.0, busy=False) == FLUSH


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_overload_rejects_without_queueing():
    config = CoalescerConfig(max_batch=100, max_queue=3, max_window_s=0.002)
    coalescer = hot_coalescer(config)
    for i in range(3):
        coalescer.offer(entry(), now=float(i) * 1e-5)
    with pytest.raises(OverloadedError) as excinfo:
        coalescer.offer(entry(), now=1e-3)
    assert excinfo.value.retry_after_s > 0
    assert coalescer.n_waiting == 3  # the rejected entry never queued
    assert coalescer.rejected == 1
    # Draining reopens admission.
    coalescer.take_batch(now=1e-3)
    assert coalescer.offer(entry(), now=2e-3) in (FLUSH, SCHEDULE)


# ----------------------------------------------------------------------
# Cancellation / abandoned entries
# ----------------------------------------------------------------------
def test_cancelled_future_dropped_at_flush():
    config = CoalescerConfig(max_batch=100, max_window_s=1.0)
    coalescer = hot_coalescer(config)
    keep = entry()
    gone = entry()
    coalescer.offer(keep, now=0.0)
    coalescer.offer(gone, now=1e-5)
    gone.future.cancel()  # client disconnected before the flush
    batch = coalescer.take_batch(now=1.0)
    assert batch == [keep]
    assert coalescer.dropped_abandoned == 1


def test_all_cancelled_yields_empty_batch():
    config = CoalescerConfig(max_batch=100, max_window_s=1.0)
    coalescer = hot_coalescer(config)
    entries = [entry() for _ in range(3)]
    for i, item in enumerate(entries):
        coalescer.offer(item, now=float(i) * 1e-5)
        item.future.cancel()
    assert coalescer.take_batch(now=1.0) == []
    assert coalescer.dropped_abandoned == 3
    assert coalescer.batches == 0  # an empty drain is not a batch


# ----------------------------------------------------------------------
# Bookkeeping and config validation
# ----------------------------------------------------------------------
def test_snapshot_counts():
    config = CoalescerConfig(max_batch=2, max_queue=10, max_window_s=1.0)
    coalescer = hot_coalescer(config)
    for i in range(4):
        coalescer.offer(entry(), now=float(i) * 1e-5)
        if coalescer.n_waiting >= config.max_batch:
            coalescer.take_batch(now=float(i) * 1e-5)
    snapshot = coalescer.snapshot()
    assert snapshot["offered"] == 4
    assert snapshot["batches"] == 2
    assert snapshot["dispatched"] == 4
    assert snapshot["mean_batch"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_batch": 0},
        {"max_window_s": 0.0},
        {"min_window_s": 0.0},
        {"min_window_s": 0.01, "max_window_s": 0.002},
        {"idle_gap_factor": 0.0},
        {"max_queue": 0},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        CoalescerConfig(**kwargs)
