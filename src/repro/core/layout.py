"""Workload-adaptive shard layout: sketch, skew detection, cost model.

The sharded engine's win over a flat COAX index is shard pruning, and
pruning quality is decided by where the range-partition boundaries sit
relative to the *query* distribution — not the data distribution the
build-time quantiles balance.  Tsunami and Flood (see PAPERS.md) learn
their layout from the observed workload for exactly this reason.  This
module closes that loop for :class:`~repro.core.engine.ShardedCOAX`:

* :class:`LayoutMonitor` accumulates a bounded ring-buffer sketch of
  recent query intervals on the partition dimension plus per-shard
  hit / prune / rows-examined counters, fed from the engine's scatter
  paths (a few array writes per batch, under the monitor's own lock —
  never inside the engine's stats lock).
* :meth:`LayoutMonitor.propose` is pure: it builds a query-mass
  histogram over the observed domain and generates boundary candidates
  per shard count from two families — weighted quantiles of the
  query×row mass (boundaries concentrate where queried data lives) and
  a dynamic program over the histogram edges that can additionally
  *fence* unqueried cold regions into dedicated shards.  Old and
  candidate boundaries are scored with an exact cost model — rows
  resident in the shards each sketched query would be dispatched to,
  via prefix sums over the sorted partition-key values — and a proposal
  is returned only when the predicted cost drops by the configured
  hysteresis factor.
* The engine adopts a proposal at full compaction through its
  transactional rebuild (see ``ShardedCOAX._rebuild_layout``) and then
  calls :meth:`LayoutMonitor.note_adopted`, which advances the layout
  epoch, records the boundary history and resets the sketch so the next
  decision reflects only the post-adoption workload.

Concurrency: the monitor is a leaf structure with its own write lock;
mutation entry points (``observe`` / ``note_adopted`` / ``reset`` /
``load_state``) take it first, and readers snapshot under it.  The
engine registers these entry points with repro-lint's lock-discipline
pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import LayoutConfig

__all__ = ["LayoutMonitor", "LayoutProposal"]


@dataclass(frozen=True)
class LayoutProposal:
    """One accepted re-partitioning proposal (immutable).

    ``old_cost`` / ``new_cost`` are the cost model's totals — rows
    resident in the shards each sketched query would visit — under the
    current and the proposed boundaries respectively; ``n_queries`` is
    the sketch size the decision was taken on.
    """

    boundaries: Tuple[float, ...]
    n_shards: int
    old_cost: float
    new_cost: float
    n_queries: int

    @property
    def gain(self) -> float:
        """Predicted cost ratio ``old / new`` (``inf`` when new is free)."""
        if self.new_cost <= 0.0:
            return float("inf") if self.old_cost > 0.0 else 1.0
        return self.old_cost / self.new_cost


def _workload_cost(
    values: np.ndarray, boundaries: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> float:
    """Total rows resident in the shards each query would be dispatched to.

    ``values`` must be sorted ascending (the live partition-key values);
    ``boundaries`` are the ``k - 1`` range boundaries under evaluation.
    Dispatch mirrors ``ShardedCOAX._route``: shard ``j`` covers
    ``[B[j-1], B[j])``, and a query ``[l, h]`` reaches shards
    ``searchsorted(B, l, right) .. searchsorted(B, h, right)``.  The cost
    is an upper bound of ``rows_examined`` (each dispatched shard scans at
    most its resident rows), which is exactly the quantity shard pruning
    reduces — so comparing layouts on it ranks them by pruning power.
    """
    n = len(values)
    cum = np.concatenate(
        [[0], np.searchsorted(values, boundaries, side="left"), [n]]
    )
    first = np.searchsorted(boundaries, lows, side="right")
    last = np.searchsorted(boundaries, highs, side="right")
    return float(np.sum(cum[last + 1] - cum[first]))


def _dp_candidates(
    edges: np.ndarray,
    prefix: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    lo_k: int,
    hi_k: int,
) -> List[Tuple[int, np.ndarray]]:
    """Cost-optimal histogram-edge partitions, one per candidate count.

    The workload cost decomposes per shard — a shard spanning
    ``[edges[m], edges[i])`` contributes ``rows(segment) × queries
    overlapping the segment`` (a query ``[l, h]`` reaches the shard iff
    ``l < edges[i]`` and ``h >= edges[m]``, mirroring ``_route``) — so a
    dynamic program over the ``bins + 1`` edges finds the exact optimum
    among layouts whose boundaries sit on bin edges.  Crucially this
    family can *fence*: a segment no sketched query overlaps costs zero
    regardless of how many rows it holds, so cold data is pushed into a
    dedicated shard the hot queries never visit — a layout the weighted
    quantiles of the query mass cannot express.
    """
    bins = len(prefix) - 1
    lows_sorted = np.sort(lows)
    highs_sorted = np.sort(highs)
    # Per edge e: how many queries have low < e / high < e.
    n_low_before = np.searchsorted(lows_sorted, edges, side="left").astype(np.float64)
    n_high_before = np.searchsorted(highs_sorted, edges, side="left").astype(np.float64)
    rows_at = prefix.astype(np.float64)
    max_k = min(hi_k, bins)
    dp = np.full((max_k + 1, bins + 1), np.inf)
    parent = np.zeros((max_k + 1, bins + 1), dtype=np.int64)
    dp[0, 0] = 0.0
    for j in range(1, max_k + 1):
        for i in range(j, bins + 1):
            segment = (rows_at[i] - rows_at[:i]) * (
                n_low_before[i] - n_high_before[:i]
            )
            totals = dp[j - 1, :i] + segment
            m = int(np.argmin(totals))
            dp[j, i] = totals[m]
            parent[j, i] = m
    out: List[Tuple[int, np.ndarray]] = []
    for k in range(max(lo_k, 1), max_k + 1):
        if not np.isfinite(dp[k, bins]):
            continue
        cuts: List[int] = []
        i = bins
        for j in range(k, 0, -1):
            i = int(parent[j, i])
            if j > 1:
                cuts.append(i)
        boundaries = np.unique(edges[cuts]) if cuts else np.empty(0, dtype=np.float64)
        if len(boundaries) == k - 1:
            out.append((k, boundaries.astype(np.float64)))
    return out


class LayoutMonitor:
    """Bounded workload sketch plus the re-partitioning decision logic.

    One monitor per engine, sized to the engine's shard count.  All state
    lives behind ``_write_lock``; the decision procedure
    (:meth:`propose`) snapshots under the lock and computes outside it,
    so query feeds are never blocked by a cost-model evaluation.
    """

    def __init__(self, config: LayoutConfig, n_shards: int) -> None:
        self._config = config
        self._n_shards = int(n_shards)
        self._write_lock = threading.RLock()
        size = config.sketch_size
        self._sketch_lows = np.zeros(size, dtype=np.float64)
        self._sketch_highs = np.zeros(size, dtype=np.float64)
        self._cursor = 0
        self._count = 0
        #: Queries sketched since the last adoption/reset (not capped by
        #: the ring size — the ``min_queries`` veto compares against it).
        self._observed = 0
        self._hits = np.zeros(self._n_shards, dtype=np.int64)
        self._pruned = np.zeros(self._n_shards, dtype=np.int64)
        self._examined = np.zeros(self._n_shards, dtype=np.int64)
        self._epoch = 0
        self._history: List[Tuple[float, ...]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> LayoutConfig:
        """The layout knobs this monitor decides with."""
        return self._config

    @property
    def epoch(self) -> int:
        """Number of adopted re-partitionings since the engine was built."""
        return self._epoch

    @property
    def observed(self) -> int:
        """Queries sketched since the last adoption (or reset)."""
        return self._observed

    @property
    def history(self) -> Tuple[Tuple[float, ...], ...]:
        """Boundaries of every adopted layout, oldest first."""
        return tuple(self._history)

    def counters(self) -> Dict[str, np.ndarray]:
        """Copies of the per-shard hit / prune / rows-examined counters."""
        with self._write_lock:
            return {
                "hits": self._hits + 0,
                "pruned": self._pruned + 0,
                "rows_examined": self._examined + 0,
            }

    def skew(self) -> Dict[str, float]:
        """Aggregate skew diagnostics of the sketched workload.

        ``prune_fraction`` is the share of (query, shard) pairs pruning
        eliminated; ``hot_shard_fraction`` the hottest shard's share of
        all dispatches.  Both are 0 while nothing was observed.
        """
        with self._write_lock:
            dispatched = int(self._hits.sum())
            considered = dispatched + int(self._pruned.sum())
            return {
                "prune_fraction": (
                    int(self._pruned.sum()) / considered if considered else 0.0
                ),
                "hot_shard_fraction": (
                    int(self._hits.max()) / dispatched if dispatched else 0.0
                ),
                "observed": float(self._observed),
            }

    # ------------------------------------------------------------------
    # Mutation entry points (registered with repro-lint lock-discipline)
    # ------------------------------------------------------------------
    def observe(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        hits: Optional[np.ndarray] = None,
        pruned: Optional[np.ndarray] = None,
        examined: Optional[np.ndarray] = None,
    ) -> None:
        """Sketch one batch of query intervals plus per-shard counters.

        ``lows`` / ``highs`` are the queries' bounds on the partition
        dimension (``±inf`` for unconstrained sides); fully unbounded
        queries carry no layout signal and are skipped.  The optional
        per-shard arrays accumulate into the hit / prune / rows-examined
        counters when their length matches the monitor's shard count.
        """
        with self._write_lock:
            lows = np.atleast_1d(np.asarray(lows, dtype=np.float64))
            highs = np.atleast_1d(np.asarray(highs, dtype=np.float64))
            bounded = np.isfinite(lows) | np.isfinite(highs)
            n_new = int(np.count_nonzero(bounded))
            if n_new:
                size = len(self._sketch_lows)
                slots = (self._cursor + np.arange(n_new)) % size
                self._sketch_lows[slots] = lows[bounded]
                self._sketch_highs[slots] = highs[bounded]
                self._cursor = int((self._cursor + n_new) % size)
                self._count = min(self._count + n_new, size)
                self._observed += n_new
            for counter, update in (
                (self._hits, hits),
                (self._pruned, pruned),
                (self._examined, examined),
            ):
                if update is not None and len(update) == self._n_shards:
                    counter += np.asarray(update, dtype=np.int64)

    def note_adopted(self, proposal: LayoutProposal) -> None:
        """Record an adopted proposal: bump the epoch, reset the sketch.

        The sketch and counters restart empty so the next decision is
        taken on the post-adoption workload only — carrying the old
        sketch over would keep re-proposing the very split just applied.
        """
        with self._write_lock:
            self._epoch += 1
            self._history.append(tuple(float(b) for b in proposal.boundaries))
            self._n_shards = int(proposal.n_shards)
            self._reset_window_locked()

    def reset(self) -> None:
        """Drop the sketch and counters (epoch and history are kept)."""
        with self._write_lock:
            self._reset_window_locked()

    def _reset_window_locked(self) -> None:
        self._cursor = 0
        self._count = 0
        self._observed = 0
        self._hits = np.zeros(self._n_shards, dtype=np.int64)
        self._pruned = np.zeros(self._n_shards, dtype=np.int64)
        self._examined = np.zeros(self._n_shards, dtype=np.int64)

    # ------------------------------------------------------------------
    # Decision procedure (pure: reads a snapshot, mutates nothing)
    # ------------------------------------------------------------------
    def propose(
        self, values: np.ndarray, current_boundaries: np.ndarray
    ) -> Optional[LayoutProposal]:
        """Cost-model verdict on re-partitioning; ``None`` keeps the layout.

        ``values`` are the engine's live partition-key values (any
        order), ``current_boundaries`` the boundaries in effect.  Two
        candidate families are generated per shard count — weighted
        quantiles of the query-mass histogram, and an optimal dynamic
        program over the histogram edges (which can fence an unqueried
        cold region into its own shard, a layout quantiles cannot
        express) — and every candidate is scored with the exact cost
        model.  The proposal is vetoed when: too few queries were
        sketched (``min_queries``), the data domain is degenerate, no
        candidate produces distinct boundaries, or the best candidate's
        predicted cost reduction falls short of ``min_gain``.
        """
        with self._write_lock:
            if self._observed < self._config.min_queries or self._count == 0:
                return None
            lows = self._sketch_lows[: self._count] + 0
            highs = self._sketch_highs[: self._count] + 0
            observed = self._observed
        values = np.sort(np.asarray(values, dtype=np.float64))
        n = len(values)
        if n == 0:
            return None
        vmin, vmax = float(values[0]), float(values[-1])
        if not vmax > vmin:
            return None

        # Query-mass histogram over the data domain: each sketched query
        # adds 1 to every bin it overlaps (difference array + cumsum).
        bins = self._config.histogram_bins
        edges = np.linspace(vmin, vmax, bins + 1)
        lo_clip = np.clip(lows, vmin, vmax)
        hi_clip = np.clip(highs, vmin, vmax)
        start = np.clip(np.searchsorted(edges, lo_clip, side="right") - 1, 0, bins - 1)
        end = np.clip(np.searchsorted(edges, hi_clip, side="right") - 1, 0, bins - 1)
        diff = np.zeros(bins + 1, dtype=np.float64)
        np.add.at(diff, start, 1.0)
        np.add.at(diff, end + 1, -1.0)
        query_mass = np.cumsum(diff[:bins])

        # Weight = query mass × resident rows: a bin is worth splitting
        # in proportion to how much data queries keep pulling from it.
        prefix = np.searchsorted(values, edges, side="left")
        prefix[-1] = n
        rows_per_bin = np.diff(prefix).astype(np.float64)
        weight = query_mass * rows_per_bin
        if weight.sum() <= 0.0:
            weight = query_mass
        if weight.sum() <= 0.0:
            return None
        cum_weight = np.cumsum(weight)

        current_boundaries = np.asarray(current_boundaries, dtype=np.float64)
        current_k = len(current_boundaries) + 1
        old_cost = _workload_cost(values, current_boundaries, lows, highs)
        if old_cost <= 0.0:
            return None

        lo_k = self._config.min_shards
        hi_k = self._config.max_shards if self._config.max_shards else current_k
        hi_k = max(hi_k, lo_k)
        candidates: List[Tuple[int, np.ndarray]] = []
        for k in range(lo_k, hi_k + 1):
            if k == 1:
                candidates.append((1, np.empty(0, dtype=np.float64)))
                continue
            targets = cum_weight[-1] * np.arange(1, k) / k
            slots = np.clip(
                np.searchsorted(cum_weight, targets, side="left"), 0, bins - 1
            )
            quantile = np.unique(edges[slots + 1])
            if len(quantile) == k - 1:
                candidates.append((k, quantile))
            # else: mass too concentrated for k distinct quantile cuts —
            # the DP family below can still produce a k-way candidate.
        candidates.extend(
            _dp_candidates(edges, prefix, lows, highs, lo_k, hi_k)
        )

        best: Optional[Tuple[float, int, np.ndarray]] = None
        for k, candidate in candidates:
            cost = _workload_cost(values, candidate, lows, highs)
            if best is None or cost < best[0]:
                best = (cost, k, candidate)
        if best is None:
            return None
        new_cost, new_k, new_boundaries = best
        if new_k == current_k and np.array_equal(new_boundaries, current_boundaries):
            return None
        if old_cost / max(new_cost, 1.0) < self._config.min_gain:
            return None
        return LayoutProposal(
            boundaries=tuple(float(b) for b in new_boundaries),
            n_shards=int(new_k),
            old_cost=old_cost,
            new_cost=new_cost,
            n_queries=int(observed),
        )

    # ------------------------------------------------------------------
    # Persistence (format v7; see repro.io.persistence)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, np.ndarray]:
        """Flat float64 arrays capturing the monitor for an archive.

        Keys are prefixed with ``layout::`` by the persistence layer;
        :meth:`load_state` restores gracefully from any subset, so a
        pre-v7 archive (no layout arrays at all) loads an empty monitor.
        """
        with self._write_lock:
            lows = self._sketch_lows[: self._count]
            highs = self._sketch_highs[: self._count]
            return {
                "sketch": np.concatenate([lows, highs]).astype(np.float64),
                "counters": np.concatenate(
                    [self._hits, self._pruned, self._examined]
                ).astype(np.float64),
                "scalars": np.array(
                    [self._epoch, self._observed], dtype=np.float64
                ),
                "history_lengths": np.array(
                    [len(b) for b in self._history], dtype=np.float64
                ),
                "history_values": np.array(
                    [v for b in self._history for v in b], dtype=np.float64
                ),
            }

    def load_state(self, payload: Mapping[str, np.ndarray]) -> None:
        """Restore from :meth:`state` output (missing keys stay empty).

        Counters are restored only when their length matches the current
        shard count — an archive written under a different layout has
        nothing meaningful to say about today's shards.
        """
        with self._write_lock:
            scalars = payload.get("scalars")
            if scalars is not None and len(scalars) >= 2:
                self._epoch = int(scalars[0])
                self._observed = int(scalars[1])
            sketch = payload.get("sketch")
            if sketch is not None and len(sketch) % 2 == 0:
                half = len(sketch) // 2
                size = len(self._sketch_lows)
                keep = min(half, size)
                self._sketch_lows[:keep] = np.asarray(
                    sketch[half - keep : half], dtype=np.float64
                )
                self._sketch_highs[:keep] = np.asarray(
                    sketch[len(sketch) - keep :], dtype=np.float64
                )
                self._count = keep
                self._cursor = keep % size
            counters = payload.get("counters")
            if counters is not None and len(counters) == 3 * self._n_shards:
                k = self._n_shards
                self._hits = np.asarray(counters[:k], dtype=np.int64) + 0
                self._pruned = np.asarray(counters[k : 2 * k], dtype=np.int64) + 0
                self._examined = np.asarray(counters[2 * k :], dtype=np.int64) + 0
            lengths = payload.get("history_lengths")
            flat = payload.get("history_values")
            if lengths is not None and flat is not None:
                history: List[Tuple[float, ...]] = []
                offset = 0
                for length in np.asarray(lengths, dtype=np.int64):
                    history.append(
                        tuple(float(v) for v in flat[offset : offset + int(length)])
                    )
                    offset += int(length)
                self._history = history

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LayoutMonitor(epoch={self._epoch}, observed={self._observed}, "
            f"n_shards={self._n_shards})"
        )
