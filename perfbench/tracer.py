"""Per-layer spans recorded from outside the library.

The traced run wraps the *public* methods of live objects — the engine,
each shard's ``COAXIndex``, its primary and outlier index and its
``DeltaStore`` — with timing shims set as instance attributes, so every
call the engine makes into a lower layer passes through a shim while the
library code stays untouched.  A span is ``(layer, method, start, end,
thread)``;
spans of one layer nested on the same thread (``range_query`` calling
``query``) are recorded once, at the outermost call.  A layer's self time
is its span minus the part of that interval its child spans cover, so
children running in parallel on the worker pool are not double-counted
and self time can never go negative.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

_STAT_FIELDS = ("queries", "rows_examined", "rows_matched", "cells_visited", "aggregates")

#: layer -> public methods the engine calls on objects of that layer.
LAYER_METHODS: Dict[str, Tuple[str, ...]] = {
    "engine": (
        "batch_range_query",
        "batch_range_query_attributed",
        "batch_aggregate",
        "batch_aggregate_attributed",
        "knn_attributed",
    ),
    "coax": (
        "batch_scatter_flat",
        "batch_scatter_aggregate",
        "knn_partial",
        "range_query",
        "query",
        "compact",
    ),
    "primary": ("batch_flat_from_bounds", "batch_aggregate_from_bounds", "knn_partial", "range_query"),
    "outlier": ("batch_flat_from_bounds", "batch_aggregate_from_bounds", "knn_partial", "range_query"),
    "delta": ("scan_batch", "scan", "fold_aggregate_batch", "knn_candidates"),
}


class Tracer:
    """Span and counter sink shared by every shim."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Tuple[str, str, int, int, int]] = []
        self.counters: Dict[Tuple[str, str], Dict[str, int]] = defaultdict(
            lambda: dict.fromkeys(_STAT_FIELDS + ("calls", "ns", "rows_after"), 0)
        )
        self._lock = threading.Lock()
        self._depth = threading.local()
        self._wrapped: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def wrap(self, obj, layer: str, methods: Iterable[str]) -> None:
        """Install shims on ``obj`` (idempotent per object)."""
        if obj in self._wrapped:
            return
        for method in methods:
            original = getattr(obj, method, None)
            if original is not None:
                setattr(obj, method, self._shim(obj, layer, method, original))
        self._wrapped.add(obj)

    def _shim(self, obj, layer: str, method: str, original):
        tracer = self
        stats_of = weakref.ref(obj)

        def shim(*args, **kwargs):
            depth = getattr(tracer._depth, layer, 0)
            if not tracer.enabled or depth:
                return original(*args, **kwargs)
            target = stats_of()
            stats = getattr(target, "stats", None) if layer != "engine" else None
            before = [getattr(stats, f) for f in _STAT_FIELDS] if stats is not None else None
            setattr(tracer._depth, layer, 1)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                setattr(tracer._depth, layer, 0)
                with tracer._lock:
                    tracer.spans.append((layer, method, start, end, threading.get_ident()))
                    counts = tracer.counters[(layer, method)]
                    counts["calls"] += 1
                    counts["ns"] += end - start
                    if method == "compact" and target is not None:
                        counts["rows_after"] += target.n_rows
                    if before is not None:
                        for field, old in zip(_STAT_FIELDS, before):
                            counts[field] += getattr(stats, field) - old

        return shim

    def instrument(self, engine) -> None:
        """Shim the engine and every object below it not yet shimmed.

        Compaction and re-layout replace shards and their sub-indexes,
        so callers re-run this after every write.
        """
        self.wrap(engine, "engine", LAYER_METHODS["engine"])
        for shard in engine.shards:
            self.wrap(shard, "coax", LAYER_METHODS["coax"])
            self.wrap(shard.primary_index, "primary", LAYER_METHODS["primary"])
            self.wrap(shard.outlier_index, "outlier", LAYER_METHODS["outlier"])
            self.wrap(shard.delta, "delta", LAYER_METHODS["delta"])

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counters.clear()

    def intervals(self, layer: str, methods: Sequence[str] = ()) -> np.ndarray:
        rows = [
            (start, end)
            for name, method, start, end, _ in self.spans
            if name == layer and (not methods or method in methods)
        ]
        return np.asarray(rows, dtype=np.int64).reshape(-1, 2)

    def total_ms(self, layer: str, methods: Sequence[str] = ()) -> float:
        spans = self.intervals(layer, methods)
        return float((spans[:, 1] - spans[:, 0]).sum()) / 1e6

    def self_ms(self, parent: str, children: Sequence[str], methods: Sequence[str] = ()) -> float:
        """Summed self time of ``parent`` spans: duration minus child cover."""
        spans = self.intervals(parent, methods)
        child = np.concatenate([self.intervals(c) for c in children])
        return float((spans[:, 1] - spans[:, 0]).sum() - covered_ns(spans, child).sum()) / 1e6

    def count(self, layer: str, field: str, methods: Sequence[str] = ()) -> int:
        return int(
            sum(
                counts[field]
                for (name, method), counts in self.counters.items()
                if name == layer and (not methods or method in methods)
            )
        )


def overhead_frac(tracer: Tracer, calls: Sequence[Callable[[], object]]) -> float:
    """Time of ``calls`` with the shims on over the time with them off, minus 1.

    Every call runs once each way, alternating which way goes first, so
    host drift during the probe hits both sides alike.
    """
    spent = {True: 0.0, False: 0.0}
    for i, call in enumerate(calls):
        for enabled in ((True, False) if i % 2 == 0 else (False, True)):
            tracer.enabled = enabled
            start = time.perf_counter()
            call()
            spent[enabled] += time.perf_counter() - start
    tracer.enabled = True
    return spent[True] / spent[False] - 1.0


#: The layer whose spans enclose a layer's spans (the caller).
PARENT = {"coax": "engine", "primary": "coax", "outlier": "coax", "delta": "coax"}


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as a JSON line with its id and its parent's id.

    The parent of a span is the span of the calling layer (``PARENT``)
    that contains it: per-shard spans run on pool threads, so a shard's
    parent is matched by time among the engine spans, which one caller
    issues one at a time; a sub-index span runs on its shard's thread, so
    it is matched by time among that thread's shard spans.  A span with
    no enclosing caller (a compaction run by a write) gets ``null``.
    """
    spans = sorted(tracer.spans, key=lambda span: span[2])
    callers: Dict[Tuple[str, int], List[int]] = defaultdict(list)
    for i, (layer, _, _, _, thread) in enumerate(spans):
        if layer in PARENT.values():
            callers[(layer, thread if layer != "engine" else 0)].append(i)
    index = {
        key: (np.asarray([spans[i][2] for i in ids]), np.asarray([spans[i][3] for i in ids]), ids)
        for key, ids in callers.items()
    }
    with open(path, "w") as out:
        for i, (layer, method, start, end, thread) in enumerate(spans):
            parent = None
            caller = PARENT.get(layer)
            if caller is not None:
                key = (caller, thread if caller != "engine" else 0)
                if key in index:
                    starts, ends, ids = index[key]
                    j = int(np.searchsorted(starts, start, side="right")) - 1
                    if j >= 0 and ends[j] >= end:
                        parent = ids[j]
            out.write(json.dumps({"id": i, "parent": parent, "layer": layer, "method": method,
                                  "start_ns": start, "end_ns": end, "thread": thread}) + "\n")


def covered_ns(parents: np.ndarray, children: np.ndarray) -> np.ndarray:
    """Per parent interval, the length covered by the union of ``children``."""
    if len(parents) == 0 or len(children) == 0:
        return np.zeros(len(parents), dtype=np.int64)
    children = children[np.argsort(children[:, 0], kind="stable")]
    # Merge into disjoint union intervals.
    starts: List[int] = []
    ends: List[int] = []
    for start, end in children:
        if starts and start <= ends[-1]:
            ends[-1] = max(ends[-1], int(end))
        else:
            starts.append(int(start))
            ends.append(int(end))
    u0 = np.asarray(starts, dtype=np.int64)
    u1 = np.asarray(ends, dtype=np.int64)
    before = np.concatenate([[0], np.cumsum(u1 - u0)])

    def cover_until(x: np.ndarray) -> np.ndarray:
        i = np.searchsorted(u0, x, side="right") - 1
        inside = np.clip(x - u0[np.maximum(i, 0)], 0, (u1 - u0)[np.maximum(i, 0)])
        return np.where(i >= 0, before[np.maximum(i, 0)] + inside, 0)

    return cover_until(parents[:, 1]) - cover_until(parents[:, 0])
