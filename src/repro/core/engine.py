"""Sharded scatter-gather execution engine over per-shard COAX indexes.

The paper's correlation-aware design keeps each query cheap; this module
makes the *system* scale the way partitioned learned indexes (Flood,
Tsunami) do in production: the table is split into ``n_shards`` horizontal
partitions, each backed by its own :class:`~repro.core.coax.COAXIndex`
holding that partition's rows, behind the same
:class:`~repro.indexes.base.MultidimensionalIndex` API — every bench,
example and test that speaks that API runs unchanged against the engine.

Design pillars
--------------

* **Global ids, held by the shards.**  The engine issues every row id
  and each shard's rows carry their global id in its primary and
  outlier index (or, until compaction, its delta store), so a shard
  answers in global ids and the engine keeps no id mapping at all.  A
  lookup by id asks each shard through its own sub-indexes
  (``rows_live``): every live id is held by exactly one shard, and an id
  no shard holds — never issued, deleted, or dropped by a re-layout —
  is found nowhere.
* **Partitioning.**  ``range`` partitioning splits on quantile boundaries
  of one attribute — by default the predictor of the largest FD group,
  the attribute query translation concentrates constraints on, so
  translated queries align with the partition boundaries and prune
  shards.  ``hash`` partitioning spreads rows round-robin by global id
  for write balance.  Rows are never migrated between shards: an update
  that moves a row's partition key out of its shard's nominal range just
  grows that shard's bounding boxes, which keeps pruning conservative
  instead of requiring cross-shard moves.
* **Shard pruning.**  A shard is dispatched only when the FD-translated
  rectangle intersects its primary (inlier) bounding box, or the original
  rectangle intersects its outlier box or its pending-delta box.  One
  place decides it for every read: ``_plan_batch`` evaluates the rule for
  a whole batch and every shard at once with
  :func:`repro.core.planner.batch_overlaps_boxes`, and the single-query
  entry points (``range_query``, ``topk``) plan as a batch of one;
  skipped shards are counted in ``QueryStats.shards_pruned``.  The three
  boxes are conservative hulls (they grow with inserts and shrink only
  when a shard compaction rebuilds them from survivors), so pruning can
  hide no live row.
* **Scatter/gather.**  Every batch op — ``batch_range_query`` and
  ``batch_aggregate`` — runs through one core: the whole batch is planned
  and translated once (columnar bound matrices), each shard's surviving
  sub-batch is scattered across a thread pool (the NumPy kernels release
  the GIL; ``workers=1`` falls back to a strictly serial loop), and one
  gather merges the shard outputs — flat row ids with the fused-key merge
  (:func:`repro.core.results.merge_flat_row_ids`) or aggregate partials —
  records the counters, feeds the layout monitor and attributes per-query
  stats.  kNN and top-k fan out over the same pool.  Results are
  bit-identical to an unsharded COAX index over the same data.
* **Independent per-shard compaction.**  Every shard carries its own
  delta store, tombstones and auto-compaction triggers, so reclaim work
  is amortised shard by shard as writes land instead of a stop-the-world
  pass; :meth:`ShardedCOAX.compact` forces all shards (in parallel when
  ``workers > 1``) and ``compact(shard=s)`` exactly one.
* **Concurrency.**  The engine is a single-writer structure: mutation
  entry points hold the engine lock, per-shard work additionally holds
  the shard's lock, and scatter workers take the shard lock around each
  query — concurrent readers can never observe a half-applied batch (see
  the contract in :mod:`repro.indexes.base`).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.coax import COAXIndex, learn_groups
from repro.core.config import COAXConfig, EngineConfig
from repro.core.delta import BatchLike, coerce_batch
from repro.core.layout import LayoutMonitor, LayoutProposal
from repro.fd.maintenance import REUSE, MaintenanceManager
from repro.core.planner import batch_overlaps_boxes
from repro.core.query_translation import translate_bounds_batch
from repro.core.results import merge_flat_row_ids, split_counter_evenly
from repro.data.executors import Aggregate, AggregatePartial, TopK, merge_topk
from repro.data.predicates import Rectangle, batch_bounds, batch_live
from repro.data.table import Table
from repro.fd.groups import FDGroup, per_model_inlier_masks
from repro.indexes.base import IndexBuildError, MultidimensionalIndex, QueryStats

__all__ = ["EngineClosedError", "ShardedCOAX"]

_T = TypeVar("_T")
_R = TypeVar("_R")


class EngineClosedError(RuntimeError):
    """Raised when a query reaches an engine after :meth:`ShardedCOAX.shutdown`.

    The serving layer calls engine entry points from worker threads while
    the process may concurrently be tearing the engine down; this typed
    error lets a server distinguish "the engine is going away" (drain the
    connection gracefully) from a genuine execution failure.  It is also
    raised — instead of the executor's bare ``RuntimeError`` — when a
    scatter races a concurrent :meth:`ShardedCOAX.close` onto an already
    shut-down worker pool.
    """


#: One dispatched shard sub-batch: shard number, the batch slots that
#: survived its pruning, and the planner's per-slot primary/outlier flags.
_Task = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


class _BatchPlan(NamedTuple):
    """A batch planned and translated once, ready to scatter."""

    bounds: Dict[str, Tuple[np.ndarray, np.ndarray]]
    translated: Dict[str, Tuple[np.ndarray, np.ndarray]]
    live: np.ndarray
    tasks: List[_Task]
    pruned_per_query: np.ndarray
    hits_by: np.ndarray
    pruned_by: np.ndarray


class ShardedCOAX(MultidimensionalIndex):
    """Scatter-gather facade over ``n_shards`` independent COAX indexes.

    Implements the :class:`MultidimensionalIndex` API (queries return
    *global* row ids, bit-identical to an unsharded ``COAXIndex`` over the
    same data) plus the full COAX CRUD surface — ``insert_batch`` /
    ``delete_batch`` / ``update_batch`` / ``compact`` — routed to the
    shard that holds each id.
    """

    def __init__(
        self,
        table: Table,
        *,
        config: Optional[EngineConfig] = None,
        groups: Optional[Sequence[FDGroup]] = None,
        dimensions: Optional[Sequence[str]] = None,
    ) -> None:
        config = config if config is not None else EngineConfig()
        self._config = config
        self._init_state(table.schema, self._checked_dimensions(table, dimensions))
        self._stats_lock = threading.Lock()
        self._closed = False
        self._executor: Optional[ThreadPoolExecutor] = None

        # The FD groups are learned ONCE over the full table and shared by
        # every shard: per-shard detection could fit different models and
        # make the shards' query-translation semantics diverge.
        if groups is None:
            learned = learn_groups(table, config.coax.detection, self._dimensions)
        else:
            learned = list(groups)
        if config.coax.max_groups is not None:
            learned = learned[: config.coax.max_groups]
        self._groups: List[FDGroup] = [
            group
            for group in learned
            if all(attr in self._dimensions for attr in group.attributes)
        ]

        # Drift-aware maintenance is engine-owned: ONE shared manager
        # streams every insert and coordinates refreshes at engine-level
        # compaction, while the per-shard indexes are built with
        # maintenance disabled — a shard refreshing its own models
        # independently would make the shards' translation semantics
        # diverge.  All shards therefore keep identical groups forever.
        self._maintenance: Optional[MaintenanceManager] = None
        self._shard_config: COAXConfig = config.coax
        if config.coax.maintenance.enabled:
            self._shard_config = replace(
                config.coax,
                maintenance=replace(config.coax.maintenance, enabled=False),
            )

        # Partitioning scheme: quantile boundaries for range, id modulo for
        # hash.  Boundaries are fixed at build time; later inserts are
        # routed against them, so shards stay balanced for stationary
        # streams and pruning stays correct (boxes, not nominal ranges,
        # decide visibility) for drifting ones.
        self._partition_dim: Optional[str] = None
        self._boundaries = np.empty(0, dtype=np.float64)
        if config.partitioning == "range":
            self._partition_dim = (
                config.partition_dimension or self._default_partition_dimension()
            )
            if self._partition_dim not in self._dimensions:
                raise IndexBuildError(
                    f"partition dimension {self._partition_dim!r} must be one of the "
                    f"indexed dimensions {self._dimensions}"
                )
            if config.n_shards > 1 and table.n_rows:
                fractions = np.arange(1, config.n_shards) / config.n_shards
                self._boundaries = np.quantile(
                    table.column(self._partition_dim), fractions
                )
            else:
                self._boundaries = np.zeros(config.n_shards - 1, dtype=np.float64)

        # Workload-adaptive layout: the monitor sketches query intervals
        # on the partition dimension and full compactions consult it (see
        # compact()).  Range partitioning only — config validation rejects
        # the hash combination — and engine-owned like maintenance, so one
        # decision re-partitions every shard consistently.
        self._layout: Optional[LayoutMonitor] = None
        if config.layout.enabled and config.partitioning == "range":
            self._layout = LayoutMonitor(config.layout, config.n_shards)

        # Route the build rows and construct one COAX index per shard — in
        # parallel when workers > 1.  A row's global id is its table
        # position, so each shard gathers its own rows straight from the
        # table under their global ids.
        n_rows = table.n_rows
        assignment = self._route(table.columns(), np.arange(n_rows, dtype=np.int64))

        def build_shard(shard_no: int) -> COAXIndex:
            return COAXIndex(
                table,
                config=self._shard_config,
                groups=self._groups,
                row_ids=np.flatnonzero(assignment == shard_no),
                dimensions=self._dimensions,
            )

        self._shards: List[COAXIndex] = self._map_shards(
            build_shard, range(config.n_shards)
        )
        if config.coax.maintenance.enabled and self._groups:
            self._maintenance = MaintenanceManager(
                self._groups,
                config.coax.maintenance,
                self._aggregate_inlier_fractions(),
            )
        self._next_global_id = int(n_rows)

    # ------------------------------------------------------------------
    # Build helpers
    # ------------------------------------------------------------------
    def _default_partition_dimension(self) -> str:
        """Predictor of the largest FD group, else the first dimension.

        Mirrors ``COAXIndex._default_sort_dimension``: translated queries
        concentrate their constraints on that predictor, so range
        boundaries on it give the planner-style pruning real bite.
        """
        for group in sorted(self._groups, key=lambda g: -g.n_attributes):
            if group.predictor in self._dimensions:
                return group.predictor
        return self._dimensions[0]

    def _route(
        self, columns: Mapping[str, np.ndarray], global_ids: np.ndarray
    ) -> np.ndarray:
        """Shard number for every row of a (build or insert) batch."""
        if self._config.partitioning == "range" and self._config.n_shards > 1:
            values = np.asarray(columns[self._partition_dim], dtype=np.float64)
            return np.searchsorted(self._boundaries, values, side="right").astype(
                np.int64, copy=False
            )
        if self._config.n_shards == 1:
            return np.zeros(len(global_ids), dtype=np.int64)
        return np.asarray(global_ids, dtype=np.int64) % self._config.n_shards

    def _aggregate_inlier_fractions(self) -> Dict[str, float]:
        """Engine-wide per-model inlier fractions (row-weighted over shards).

        The build baseline the shared drift monitors compare the streamed
        outside-margin fraction against.
        """
        totals: Dict[str, float] = {}
        weights: Dict[str, float] = {}
        for shard in self._shards:
            n_rows = shard.n_rows
            if not n_rows:
                continue
            for name, fraction in shard.partition.per_model_inlier_fraction.items():
                totals[name] = totals.get(name, 0.0) + fraction * n_rows
                weights[name] = weights.get(name, 0.0) + n_rows
        return {
            name: totals[name] / weights[name]
            for name in totals
            if weights[name] > 0
        }

    def _map_shards(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Run ``fn`` over ``items`` — on the worker pool when configured.

        Order-preserving either way, so scatter results line up with their
        shard numbers regardless of completion order.
        """
        items = list(items)
        if self._config.workers > 1 and len(items) > 1:
            executor = self._ensure_executor()
            try:
                # Explicit submits instead of ``executor.map``: submission
                # failures (a pool a concurrent ``close``/``shutdown`` just
                # shut down) surface here synchronously and become the
                # typed error, while exceptions raised *inside* ``fn``
                # propagate from ``result()`` untouched.
                futures = [executor.submit(fn, item) for item in items]
            except RuntimeError as exc:
                raise EngineClosedError(
                    "engine worker pool was shut down while dispatching"
                ) from exc
            return [future.result() for future in futures]
        return [fn(item) for item in items]

    def _run_on_shard(
        self, shard_no: int, fn: Callable[[COAXIndex], _R]
    ) -> Tuple[_R, QueryStats]:
        """``fn(shard)`` under the shard lock, plus the shard's counter
        advance.

        Snapshot and delta are both taken inside the lock: a concurrent
        reader advancing the same shard's counters must not be
        double-counted into this call's delta.
        """
        shard = self._shards[shard_no]
        with shard.write_lock:
            before = shard.stats.snapshot()
            result = fn(shard)
            return result, shard.stats.delta(before)

    def _check_open(self) -> None:
        """Raise :class:`EngineClosedError` after :meth:`shutdown`."""
        if self._closed:
            raise EngineClosedError("engine has been shut down")

    def _ensure_executor(self) -> ThreadPoolExecutor:
        """The lazily created scatter pool (``workers`` threads)."""
        self._check_open()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._config.workers,
                thread_name_prefix="sharded-coax",
            )
        return self._executor

    def close(self) -> None:
        """Release the worker thread pool, waiting for in-flight work
        (idempotent; queries stay usable afterwards and the pool is
        recreated on demand)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def shutdown(self) -> None:
        """Terminally close the engine (idempotent).

        Unlike :meth:`close` — which only releases the pool and lets later
        queries recreate it — ``shutdown`` marks the engine closed
        first, so every subsequent query or mutation entry point raises
        :class:`EngineClosedError` instead of resurrecting resources.  The
        closed flag is set under the engine lock, which serialises the
        shutdown against in-flight mutations; readers racing the pool
        teardown get the same typed error from the dispatch guards.  This
        is the teardown path the serving layer uses: worker threads still
        holding a reference fail fast and typed rather than crashing on a
        shut-down pool.
        """
        with self._write_lock:
            self._closed = True
        self.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; queries then raise typed errors."""
        return self._closed

    def __enter__(self) -> "ShardedCOAX":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> EngineConfig:
        """The engine configuration (shards, partitioning, workers)."""
        return self._config

    @property
    def n_shards(self) -> int:
        """Number of horizontal partitions."""
        return self._config.n_shards

    @property
    def workers(self) -> int:
        """Scatter/build/compact thread-pool size (1 = serial)."""
        return self._config.workers

    @property
    def shards(self) -> Tuple[COAXIndex, ...]:
        """The per-shard COAX indexes, in shard order."""
        return tuple(self._shards)

    @property
    def groups(self) -> Tuple[FDGroup, ...]:
        """The FD groups shared by every shard."""
        return tuple(self._groups)

    @property
    def maintenance(self) -> Optional[MaintenanceManager]:
        """The engine-wide shared drift monitors (``None`` when disabled).

        Shards never carry their own manager: refresh is coordinated here
        so all shards keep identical groups.
        """
        return self._maintenance

    @property
    def layout(self) -> Optional[LayoutMonitor]:
        """The workload-layout monitor (``None`` when adaptation is off).

        Like maintenance it is strictly engine-owned: one sketch, one
        decision, every shard re-partitioned consistently.
        """
        return self._layout

    @property
    def partition_dimension(self) -> Optional[str]:
        """Attribute the range partitioner splits on (``None`` for hash)."""
        return self._partition_dim

    @property
    def shard_boundaries(self) -> np.ndarray:
        """Range-partition boundaries (``n_shards - 1`` ascending values)."""
        return self._boundaries

    @property
    def n_rows(self) -> int:
        """Records covered by the main structures (live and tombstoned)."""
        return int(sum(shard.n_rows for shard in self._shards))

    @property
    def n_tombstoned(self) -> int:
        """Covered records marked deleted but not yet reclaimed."""
        return int(sum(shard.n_tombstoned for shard in self._shards))

    @property
    def tombstone_mask(self) -> Optional[np.ndarray]:
        """Tombstones live per shard; the facade keeps no global bitmap."""
        return None

    @property
    def n_pending(self) -> int:
        """Inserted records still sitting in some shard's delta store."""
        return int(sum(shard.n_pending for shard in self._shards))

    @property
    def n_pending_primary(self) -> int:
        """Pending records the learned models route to a primary index."""
        return int(sum(shard.n_pending_primary for shard in self._shards))

    @property
    def n_pending_outlier(self) -> int:
        """Pending records violating some margin (outlier-bound)."""
        return int(sum(shard.n_pending_outlier for shard in self._shards))

    @property
    def next_row_id(self) -> int:
        """Global row id the next inserted record will be assigned."""
        return self._next_global_id

    @property
    def row_ids(self) -> np.ndarray:
        """Global row ids covered by the main structures (sorted)."""
        return np.sort(np.concatenate([shard.row_ids for shard in self._shards]))

    def live_row_ids(self) -> np.ndarray:
        """Global row ids of covered records that are still live (sorted)."""
        return np.sort(np.concatenate([shard.live_row_ids() for shard in self._shards]))

    def rows_live(self, row_ids: np.ndarray) -> np.ndarray:
        """Which of ``row_ids`` are covered and not tombstoned (each shard
        answers for the ids it holds)."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        mask = np.zeros(len(row_ids), dtype=bool)
        for shard in self._shards:
            mask |= shard.rows_live(row_ids)
        return mask

    def positions_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Covered ids pass through: global row id == global table position."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return row_ids[np.isin(row_ids, self.row_ids)]

    def column(self, name: str) -> np.ndarray:
        """Not provided: record data lives in the shards' sub-indexes."""
        raise NotImplementedError(
            "ShardedCOAX keeps no column copies; each shard's live_rows() "
            "returns its records with their global ids"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _maintenance_guard(self):
        """Lock excluding queries from a coordinated model refresh.

        With adaptive maintenance enabled, a full compaction can swap the
        models *and* re-partition every shard; a query translating with
        one generation of groups while shards execute another would lose
        rows.  The same hazard exists with adaptive *layout*: a re-layout
        replaces the shard list and the boundaries in one step.  Readers
        therefore serialise against the engine lock in
        either adaptive configuration; the default (frozen) engine keeps
        its lock-free read path, because neither groups nor layout ever
        change.
        """
        if self._maintenance is not None or self._layout is not None:
            return self._write_lock
        return nullcontext()

    def range_query(self, query: Rectangle) -> np.ndarray:
        """Global row ids of records matching ``query`` exactly.

        A batch of one through :meth:`batch_range_query`: the same shard
        pruning, counters and layout sketch; bit-identical (ids and order)
        to an unsharded COAX index over the same data.
        """
        self._check_open()
        if query.is_empty:
            return np.empty(0, dtype=np.int64)
        return self.batch_range_query([query])[0]

    def batch_range_query(self, queries: Sequence[Rectangle]) -> List[np.ndarray]:
        """Global row ids for every query of a batch (scatter-gather).

        The whole batch is translated and planned once over its columnar
        bound matrices; each shard receives a single batched call covering
        exactly the queries that survive its bounding-box pruning, those
        calls run on the worker pool (serially when ``workers=1``), and
        the per-shard flat results are gathered with the fused-key merge.
        Results are positionally aligned and identical to the same batch
        on an unsharded COAX index.
        """
        queries = list(queries)
        if not queries:
            return []
        self._check_open()
        with self._maintenance_guard():
            results, _ = self._batch_locked(queries, None, attribute=False)
            return results

    def batch_range_query_attributed(
        self, queries: Sequence[Rectangle]
    ) -> Tuple[List[np.ndarray], List[QueryStats]]:
        """Batch results plus one :class:`QueryStats` per query.

        Same execution (and identical results/engine counters) as
        :meth:`batch_range_query`, but the per-shard counter deltas are
        split back onto the individual queries so a serving layer can
        report honest per-query numbers instead of batch-global ones:

        * ``rows_matched``, ``shards_pruned`` and ``queries`` (1 for a
          live query, 0 for a statically empty one) are **exact** — the
          flat result stream and the per-query visibility masks identify
          them precisely.
        * ``rows_examined`` / ``cells_visited`` / ``nodes_visited`` are
          **attributed**: the batch kernels account those once per shard
          sub-batch, so each shard's delta is divided evenly (largest-
          remainder, see :func:`repro.core.results.split_counter_evenly`)
          across exactly the queries dispatched to that shard.  Summing
          the per-query stats always reproduces the batch-global counters
          bit-for-bit.
        """
        queries = list(queries)
        if not queries:
            return [], []
        self._check_open()
        with self._maintenance_guard():
            return self._batch_locked(queries, None, attribute=True)

    def _batch_locked(
        self, queries: List[Rectangle], spec: Optional[Aggregate], attribute: bool
    ) -> Tuple[object, List[QueryStats]]:
        """The one batch core: plan, scatter, gather, account.

        ``spec=None`` materialises ids — a list of global-id arrays comes
        back — and an :class:`Aggregate` spec folds partials instead — an
        :class:`AggregatePartial` comes back.  Both ops share the shard
        visibility, the counters, the layout sketch and the attribution;
        they differ only in the shard kernel and in what crosses the
        gather boundary (ids vs O(batch) accumulator floats).
        """
        n_queries = len(queries)
        per_query_aggregates = int(spec is not None)
        plan = self._plan_batch(queries)
        if plan is None:
            with self._stats_lock:
                self.stats.record_batch(0, aggregates=per_query_aggregates * n_queries)
            per_query = (
                [QueryStats(aggregates=per_query_aggregates) for _ in range(n_queries)]
                if attribute
                else []
            )
            if spec is not None:
                return AggregatePartial.identity(n_queries), per_query
            return [np.empty(0, dtype=np.int64) for _ in range(n_queries)], per_query
        scattered = self._scatter_batch(queries, plan, spec)
        deltas = [delta for _, delta in scattered]
        output: object
        if spec is None:
            id_parts = [ids for (ids, _), _ in scattered if len(ids)]
            if id_parts:
                qid_parts = [qids for (ids, qids), _ in scattered if len(ids)]
                output = merge_flat_row_ids(
                    np.concatenate(id_parts), np.concatenate(qid_parts), n_queries
                )
            else:
                output = [np.empty(0, dtype=np.int64) for _ in range(n_queries)]
            matched = np.array([len(ids) for ids in output], dtype=np.int64)
        else:
            output = AggregatePartial.identity(n_queries)
            for task, (sub_partial, _) in zip(plan.tasks, scattered):
                output.merge_at(task[1], sub_partial)
            matched = output.count
        per_query = self._account_batch(
            plan, deltas, matched, per_query_aggregates, attribute
        )
        return output, per_query

    def _plan_batch(self, queries: List[Rectangle]) -> Optional[_BatchPlan]:
        """Translate a batch once and prune it per shard (``None`` when no
        query is live).

        The engine's one shard-pruning rule (see the module docstring),
        evaluated as whole-batch array ops.  Each task carries the shard's
        surviving slots and planner flags, so the shard executes without
        re-deriving any of them.
        """
        n_queries = len(queries)
        bounds = batch_bounds(queries)
        live = batch_live(bounds, n_queries)
        if not np.count_nonzero(live):
            return None
        translated, no_inlier = translate_bounds_batch(bounds, n_queries, self._groups)
        # The planner rules of plan_query_flags for every shard at once:
        # one (shards x queries) broadcast per bounds map over the stacked
        # shard boxes, and the shard-independent masks computed once.
        # Rectangle bounds are never NaN, so ``live`` is exactly "the
        # original rectangle is not empty", and the translated rectangle
        # of a live query is empty exactly when some group's effective
        # predictor constraint is (``no_inlier``).
        shards = self._shards
        use_primary = batch_overlaps_boxes(
            translated, n_queries, [shard.primary_box for shard in shards]
        )
        use_primary &= live & ~no_inlier
        use_outlier = batch_overlaps_boxes(
            bounds, n_queries, [shard.outlier_box for shard in shards]
        )
        use_outlier &= live
        visible = use_primary | use_outlier
        pending = [shard_no for shard_no, shard in enumerate(shards) if shard.n_pending]
        if pending:
            visible[pending] |= live & batch_overlaps_boxes(
                bounds, n_queries, [shards[shard_no].delta.box for shard_no in pending]
            )
        pruned = live & ~visible
        hits_by = np.add.reduce(visible, axis=1)
        tasks: List[_Task] = []
        for shard_no in hits_by.nonzero()[0]:
            slots = visible[shard_no].nonzero()[0]
            tasks.append(
                (int(shard_no), slots, use_primary[shard_no, slots], use_outlier[shard_no, slots])
            )
        return _BatchPlan(
            bounds,
            translated,
            live,
            tasks,
            np.add.reduce(pruned, axis=0),
            hits_by,
            np.add.reduce(pruned, axis=1),
        )

    def _scatter_batch(
        self, queries: List[Rectangle], plan: _BatchPlan, spec: Optional[Aggregate]
    ) -> List[Tuple[object, QueryStats]]:
        """Run every planned shard task on the worker pool.

        Per task (positionally aligned with ``plan.tasks``) it returns the
        shard's output — ``(global ids, batch slots)`` of its matches, or
        its :class:`AggregatePartial` — and the shard's counter advance.
        Shards answer in global ids, so nothing is translated here.
        """

        n_queries = len(queries)

        def run_shard(task: _Task) -> Tuple[object, QueryStats]:
            shard_no, slots, use_primary, use_outlier = task
            bounds, translated = plan.bounds, plan.translated
            if len(slots) < n_queries:
                bounds = {dim: (lows[slots], highs[slots]) for dim, (lows, highs) in bounds.items()}
                translated = {
                    dim: (lows[slots], highs[slots]) for dim, (lows, highs) in translated.items()
                }
            args = (queries, slots, bounds, translated, use_primary, use_outlier, len(slots))

            def scan(shard: COAXIndex):
                if spec is not None:
                    return shard.batch_scatter_aggregate(*args, spec)
                ids, sub_qids = shard.batch_scatter_flat(*args)
                return ids, slots[sub_qids]

            return self._run_on_shard(shard_no, scan)

        return self._map_shards(run_shard, plan.tasks)

    def _account_batch(
        self,
        plan: _BatchPlan,
        deltas: List[QueryStats],
        matched: np.ndarray,
        per_query_aggregates: int,
        attribute: bool,
    ) -> List[QueryStats]:
        """Record a gathered batch: engine counters, layout sketch and —
        when ``attribute`` — one :class:`QueryStats` per query.

        ``deltas`` are the shard counter advances aligned with
        ``plan.tasks``; ``matched`` is each query's exact match count.
        """
        n_queries = len(plan.live)
        gathered = QueryStats()
        for delta in deltas:
            gathered.merge(delta)
        with self._stats_lock:
            self.stats.record_batch(
                int(np.count_nonzero(plan.live)),
                rows_examined=gathered.rows_examined,
                rows_matched=int(matched.sum()),
                cells_visited=gathered.cells_visited,
                nodes_visited=gathered.nodes_visited,
                shards_pruned=int(plan.pruned_per_query.sum()),
                aggregates=per_query_aggregates * n_queries,
            )
        if self._layout is not None:
            # Outside the stats lock: the monitor has its own leaf lock.
            # Sketch the *translated* partition-dim intervals when the
            # translator produced any (those drive primary-box pruning),
            # the original bounds otherwise.
            examined_by = np.zeros(len(self._shards), dtype=np.int64)
            for task, delta in zip(plan.tasks, deltas):
                examined_by[task[0]] = delta.rows_examined
            if self._partition_dim in plan.translated:
                part_lows, part_highs = plan.translated[self._partition_dim]
            elif self._partition_dim in plan.bounds:
                part_lows, part_highs = plan.bounds[self._partition_dim]
            else:
                part_lows = np.full(n_queries, -np.inf)
                part_highs = np.full(n_queries, np.inf)
            self._layout.observe(
                part_lows[plan.live],
                part_highs[plan.live],
                hits=plan.hits_by,
                pruned=plan.pruned_by,
                examined=examined_by,
            )
        if not attribute:
            return []
        # Scan/directory counters accumulate per shard sub-batch; each
        # shard's delta is attributed evenly over exactly the queries it
        # was dispatched, so the per-query stats sum back to the
        # batch-global counters exactly.
        work = np.zeros((3, n_queries), dtype=np.int64)
        for task, delta in zip(plan.tasks, deltas):
            slots = task[1]
            work[:, slots] += split_counter_evenly(
                (delta.rows_examined, delta.cells_visited, delta.nodes_visited), len(slots)
            )
        per_query = zip(
            plan.live.tolist(),  # repro-lint: allow[materialize] per-query counters, O(queries) not O(rows)
            *work.tolist(),  # repro-lint: allow[materialize] per-query counters, O(queries) not O(rows)
            matched.tolist(),  # repro-lint: allow[materialize] per-query counters, O(queries) not O(rows)
            plan.pruned_per_query.tolist(),  # repro-lint: allow[materialize] per-query counters, O(queries) not O(rows)
        )
        return [
            QueryStats(
                queries=int(live),
                rows_examined=examined,
                rows_matched=n_matched,
                cells_visited=cells,
                nodes_visited=nodes,
                shards_pruned=pruned,
                aggregates=per_query_aggregates,
            )
            for live, examined, cells, nodes, n_matched, pruned in per_query
        ]

    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        """Positions equal global row ids (the engine-wide invariant)."""
        return self.range_query(query)

    # ------------------------------------------------------------------
    # Executors: aggregates, top-k and kNN over the shard fleet
    # ------------------------------------------------------------------
    def aggregate(self, query: Rectangle, spec: Aggregate) -> float:
        """One finalised aggregate value (the singular convenience form)."""
        values, _ = self.batch_aggregate_attributed([query], spec)
        return float(values[0])

    def batch_aggregate(self, queries: Sequence[Rectangle], spec: Aggregate) -> np.ndarray:
        """Finalised aggregate values, one per query."""
        return self.batch_aggregate_partial(queries, spec).finalize(spec)

    def knn(self, point: Mapping[str, float], k: int, *, metric: str = "l2") -> np.ndarray:
        """The k nearest global row ids (see :meth:`knn_partial`)."""
        _, ids = self.knn_partial(point, k, metric=metric)
        return ids

    def topk(self, query: Rectangle, spec: TopK) -> np.ndarray:
        """The top-k global row ids by column (see :meth:`topk_partial`)."""
        _, ids = self.topk_partial(query, spec)
        return ids

    def batch_aggregate_partial(
        self, queries: Sequence[Rectangle], spec: Aggregate
    ) -> AggregatePartial:
        """Per-query accumulators, scatter-gathered as partials not ids.

        The aggregate twin of :meth:`batch_range_query` through the same
        batch core: every visible shard folds its sub-batch with
        :meth:`COAXIndex.batch_scatter_aggregate`, and the gather merges
        one :class:`AggregatePartial` slot per query — so only O(shards ×
        batch) accumulator floats cross the executor boundary, never
        candidate row ids.  Results are exact (bit-for-bit for
        COUNT/MIN/MAX) against an unsharded index because the shards' row
        subsets are disjoint.
        """
        queries = list(queries)
        if not queries:
            return AggregatePartial.identity(0)
        self._check_open()
        with self._maintenance_guard():
            partial, _ = self._batch_locked(queries, spec, attribute=False)
        return partial

    def batch_aggregate_attributed(
        self, queries: Sequence[Rectangle], spec: Aggregate
    ) -> Tuple[np.ndarray, List[QueryStats]]:
        """Finalised aggregate values plus one :class:`QueryStats` per query.

        The attribution contract of :meth:`batch_range_query_attributed`,
        extended to the aggregate counters: ``aggregates`` (1 per query)
        and ``rows_matched`` (the query's own accumulator count) are
        exact, the scan counters are split evenly over each shard's
        dispatched queries.
        """
        queries = list(queries)
        if not queries:
            return np.empty(0, dtype=np.float64), []
        self._check_open()
        with self._maintenance_guard():
            partial, per_query = self._batch_locked(queries, spec, attribute=True)
        return partial.finalize(spec), per_query

    def _keyed_fan_out(
        self,
        shard_nos: Sequence[int],
        partial: Callable[[COAXIndex], Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], QueryStats]:
        """``(keys, global ids)`` of ``partial`` on every listed shard,
        fanned out over the worker pool, plus the summed counter advance."""

        scattered = self._map_shards(
            lambda shard_no: self._run_on_shard(shard_no, partial), shard_nos
        )
        gathered = QueryStats()
        for _, delta in scattered:
            gathered.merge(delta)
        return [part for part, _ in scattered], gathered

    def knn_partial(
        self, point: Mapping[str, float], k: int, *, metric: str = "l2"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """k nearest global ids: every shard's candidates, one exact merge."""
        self._check_open()
        with self._maintenance_guard():
            keys, ids, _ = self._knn_locked(dict(point), k, metric)
        return keys, ids

    def knn_attributed(
        self, point: Mapping[str, float], k: int, *, metric: str = "l2"
    ) -> Tuple[np.ndarray, QueryStats]:
        """kNN result ids plus the query's own :class:`QueryStats`."""
        self._check_open()
        with self._maintenance_guard():
            _, ids, record = self._knn_locked(dict(point), k, metric)
        return ids, record

    def _knn_locked(
        self, point: Dict[str, float], k: int, metric: str
    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        # kNN has no rectangle to prune shards with — a distance bound
        # tight enough to skip a shard would need the very candidates the
        # shard is asked for — so every shard runs its ring search and the
        # gather keeps the k best (every shard breaks ties by global id
        # too, so per-shard truncation never drops a tie winner).
        parts, gathered = self._keyed_fan_out(
            range(len(self._shards)),
            lambda shard: shard.knn_partial(point, k, metric=metric),
        )
        keys, ids = merge_topk(parts, k)
        record = QueryStats(
            queries=1,
            rows_examined=gathered.rows_examined,
            rows_matched=len(ids),
            cells_visited=gathered.cells_visited,
            nodes_visited=gathered.nodes_visited,
            knn_queries=1,
            rings_expanded=gathered.rings_expanded,
        )
        with self._stats_lock:
            self.stats.merge(record)
        return keys, ids, record

    def topk_partial(
        self, query: Rectangle, spec: TopK
    ) -> Tuple[np.ndarray, np.ndarray]:
        """By-column top-k within a rectangle, with shard pruning."""
        self._check_open()
        with self._maintenance_guard():
            keys, ids, _ = self._topk_locked(query, spec)
        return keys, ids

    def topk_attributed(
        self, query: Rectangle, spec: TopK
    ) -> Tuple[np.ndarray, QueryStats]:
        """Top-k result ids plus the query's own :class:`QueryStats`."""
        self._check_open()
        with self._maintenance_guard():
            _, ids, record = self._topk_locked(query, spec)
        return ids, record

    def _topk_locked(
        self, query: Rectangle, spec: TopK
    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        empty = (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64))
        if query.is_empty:
            record = QueryStats(queries=1, knn_queries=1)
            with self._stats_lock:
                self.stats.merge(record)
            return empty[0], empty[1], record
        plan = self._plan_batch([query])
        parts, gathered = self._keyed_fan_out(
            [task[0] for task in plan.tasks],
            lambda shard: shard.topk_partial(query, spec),
        )
        keys, ids = merge_topk(parts, spec.k, largest=spec.largest)
        record = QueryStats(
            queries=1,
            rows_examined=gathered.rows_examined,
            rows_matched=len(ids),
            cells_visited=gathered.cells_visited,
            nodes_visited=gathered.nodes_visited,
            shards_pruned=int(plan.pruned_per_query[0]),
            knn_queries=1,
        )
        with self._stats_lock:
            self.stats.merge(record)
        return keys, ids, record

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, record: Mapping[str, float]) -> int:
        """Insert one record, returning its assigned global row id."""
        return int(self.insert_batch([record])[0])

    def insert_batch(self, batch: BatchLike) -> np.ndarray:
        """Insert a batch, routing every row to its shard; returns global ids.

        Same accepted forms as :meth:`COAXIndex.insert_batch`.  The engine
        issues the global ids, the partitioner splits the batch, and each
        touched shard buffers its rows under their global ids with one
        call; a shard whose auto-compaction trigger fires compacts
        independently.  Mutation entry point: holds the engine lock, and
        each shard's lock around the shard append plus its mask gather.
        """
        with self._write_lock:
            self._check_open()
            columns = coerce_batch(batch, self._schema)
            n_new = len(next(iter(columns.values()))) if columns else 0
            global_ids = self._next_global_id + np.arange(n_new, dtype=np.int64)
            if n_new == 0:
                return global_ids
            assignment = self._route(columns, global_ids)
            masks = self._new_mask_gather(n_new)
            for shard_no in np.unique(assignment):
                routed = assignment == shard_no
                shard = self._shards[shard_no]
                sub_columns = {name: array[routed] for name, array in columns.items()}
                with shard.write_lock:
                    shard._append_pending(sub_columns, global_ids[routed])
                    self._gather_shard_masks(shard, routed, masks, sub_columns)
            self._next_global_id += n_new
            self._observe_columns(columns, masks)
            return global_ids

    def _new_mask_gather(self, n_new: int) -> Optional[Dict[str, np.ndarray]]:
        """Batch-order per-model mask buffers for the shared monitors.

        ``None`` when maintenance is disabled — nothing is gathered then.
        """
        if self._maintenance is None:
            return None
        return {
            name: np.empty(n_new, dtype=bool)
            for name in self._maintenance.model_names
        }

    def _gather_shard_masks(
        self,
        shard: COAXIndex,
        routed: np.ndarray,
        masks: Optional[Dict[str, np.ndarray]],
        sub_columns: Mapping[str, np.ndarray],
    ) -> None:
        """Scatter a shard's freshly recorded routing masks into batch order.

        The shard's delta store just appended this sub-batch at its tail
        and recorded one margin mask per model for routing; slicing those
        buffers back means the shared monitors never re-evaluate a model
        on the write path — same as the flat index's
        ``_observe_pending_tail``.  The one exception: when the shard's
        auto-compaction fired inside the write and drained its buffer,
        the masks are re-derived for this sub-batch only.
        """
        if masks is None:
            return
        n_routed = int(np.count_nonzero(routed))
        if n_routed == 0:
            return
        if shard.delta.n_pending >= n_routed:
            for name, buffer in masks.items():
                buffer[routed] = shard.delta.model_mask(name)[-n_routed:]
        else:
            computed = per_model_inlier_masks(self._groups, sub_columns)
            for name, buffer in masks.items():
                buffer[routed] = computed[name]

    def _observe_columns(
        self,
        columns: Mapping[str, np.ndarray],
        masks: Optional[Dict[str, np.ndarray]],
    ) -> None:
        """Stream a whole written batch into the shared drift monitors."""
        if self._maintenance is None or masks is None:
            return
        self._maintenance.observe_batch(columns, masks)

    # ------------------------------------------------------------------
    # Deletes and in-place updates
    # ------------------------------------------------------------------
    def delete(self, row_id: int) -> bool:
        """Delete one record by global row id; ``True`` if it was live."""
        return self.delete_batch(np.array([row_id], dtype=np.int64)) == 1

    def delete_batch(self, row_ids: np.ndarray) -> int:
        """Delete records by global row id; returns how many were live.

        Every shard receives the batch and deletes the ids it holds
        (idempotent, ids it does not hold skipped, per-shard
        auto-compaction may fire).  Mutation entry point: holds the engine
        lock for the whole batch.
        """
        with self._write_lock:
            self._check_open()
            row_ids = np.unique(np.asarray(row_ids, dtype=np.int64))
            return int(sum(shard._delete_unique(row_ids) for shard in self._shards))

    def delete_rows(self, row_ids: np.ndarray, *, assume_unique: bool = False) -> int:
        """Generic tombstone entry point; routes through the full engine
        delete so the facade and the shards can never diverge."""
        del assume_unique
        return self.delete_batch(row_ids)

    def delete_where(self, query: Rectangle) -> np.ndarray:
        """Delete every record matching ``query``; returns their global ids.

        Mutation entry point: the engine lock spans the query *and* the
        delete, so no concurrent mutation can slip between finding the
        matches and tombstoning them.
        """
        with self._write_lock:
            matches = self.range_query(query)
            self.delete_batch(matches)
            return matches

    def update_batch(self, row_ids: np.ndarray, batch: BatchLike) -> np.ndarray:
        """Replace live records in place, preserving their global row ids.

        Semantics of :meth:`COAXIndex.update_batch`: unknown or deleted
        ids raise ``KeyError`` *before anything is applied* (liveness is
        checked across every touched shard first), duplicates raise
        ``ValueError``.  Rows stay in their original shard even when a
        range-partitioned update moves the partition key — the shard's
        bounding boxes grow to cover the new values, so pruning stays
        correct without cross-shard migration.
        """
        with self._write_lock:
            self._check_open()
            columns = coerce_batch(batch, self._schema)
            row_ids = np.asarray(row_ids, dtype=np.int64)
            n_new = len(next(iter(columns.values()))) if columns else 0
            if n_new != len(row_ids):
                raise ValueError(
                    f"update batch has {n_new} rows for {len(row_ids)} row ids"
                )
            if n_new == 0:
                return row_ids
            if len(np.unique(row_ids)) != len(row_ids):
                raise ValueError("update batch contains duplicate row ids")
            # A live id is held by exactly one shard, main or pending.
            owner = np.full(n_new, -1, dtype=np.int64)
            for shard_no, shard in enumerate(self._shards):
                owner[shard._live_ids_mask(row_ids)] = shard_no
            if (owner < 0).any():
                missing = row_ids[owner < 0]
                raise KeyError(
                    f"cannot update unknown or deleted row ids: {missing.tolist()[:10]}"
                )
            masks = self._new_mask_gather(n_new)
            for shard_no in np.unique(owner):
                routed = owner == shard_no
                sub_columns = {name: array[routed] for name, array in columns.items()}
                shard = self._shards[shard_no]
                shard.update_batch(row_ids[routed], sub_columns)
                self._gather_shard_masks(shard, routed, masks, sub_columns)
            self._observe_columns(columns, masks)
            return row_ids

    def _evaluate_layout(self) -> Optional[LayoutProposal]:
        """Cost-model verdict on re-partitioning (caller holds the engine
        lock).  ``None`` keeps the current layout — monitor disabled, too
        few sketched queries, or the predicted win below the threshold."""
        if self._layout is None or self._partition_dim is None:
            return None
        values = np.concatenate(
            [
                shard.live_rows((self._partition_dim,))[0][self._partition_dim]
                for shard in self._shards
            ]
        )
        if not len(values):
            return None
        return self._layout.propose(values, self._boundaries)

    def _rebuild_layout(self, proposal: LayoutProposal, groups: List[FDGroup]) -> None:
        """Adopt a layout proposal: gather, re-route, rebuild, swap.

        Caller holds the engine lock (readers are excluded through
        :meth:`_maintenance_guard`, which always guards when a layout
        monitor exists).  Phase 1 is pure — every shard's live rows are
        gathered with their global ids (:meth:`COAXIndex.live_rows`) and
        fresh shards built from them without mutating anything, so a
        build failure leaves the engine on the old layout, fully
        consistent.  Phase 2 swaps the shard list and the boundaries; live
        rows keep their global ids and dead ids are in no shard, so
        results are bit-identical across the re-layout.
        """
        parts = [shard.live_rows() for shard in self._shards]
        table = Table(
            {
                name: np.concatenate([columns[name] for columns, _ in parts])
                for name in self._schema
            }
        )
        global_ids = np.concatenate([ids for _, ids in parts])
        boundaries = np.asarray(proposal.boundaries, dtype=np.float64)
        n_new = proposal.n_shards
        assignment = np.searchsorted(
            boundaries, table.column(self._partition_dim), side="right"
        )

        def build(shard_no: int) -> COAXIndex:
            members = np.flatnonzero(assignment == shard_no)
            # Ascending global ids inside each shard: the same row order
            # whatever order the gather produced.
            members = members[np.argsort(global_ids[members], kind="stable")]
            return COAXIndex(
                table,
                config=self._shard_config,
                groups=groups,
                row_ids=members,
                dimensions=self._dimensions,
                ids=global_ids[members],
            )

        fresh = self._map_shards(build, range(n_new))

        # Phase 2: swaps and bookkeeping only, nothing below can fail.
        self._shards = fresh
        self._boundaries = boundaries
        if n_new != self._config.n_shards:
            self._config = replace(self._config, n_shards=n_new)

    def compact(self, shard: Optional[int] = None) -> "ShardedCOAX":
        """Fold delta stores and reclaim tombstones — per shard.

        With ``shard`` given, exactly that shard compacts (the scheduling
        primitive for amortised maintenance); otherwise every shard
        compacts, in parallel on the worker pool when ``workers > 1``.
        Stop-the-world only ever happens per shard: queries against other
        shards proceed concurrently (each compaction holds only its own
        shard's lock).  Returns ``self``.

        Drift-aware model refresh happens only on a *full* compaction: the
        shared monitors decide once, and the refreshed groups are pushed
        to every shard before the per-shard folds, so shards can never
        disagree about the models.  A single-shard compact deliberately
        never refreshes — it would have to touch every other shard too.

        A refit is applied transactionally: every shard's re-partitioned
        replacement is *built* first without mutating anything (in
        parallel on the pool), and only when all builds succeeded are the
        shards swapped and the engine's groups committed — a failure
        during the build phase leaves the whole engine on the old models,
        mutually consistent.  Queries exclude the refresh window through
        :meth:`_maintenance_guard`.

        Workload-adaptive layout composes here too: the full compaction
        first asks the shared drift monitors for a model verdict, then
        the layout monitor for a boundary verdict.  When a re-layout is
        accepted, ONE gather-and-rebuild serves both tiers — the fresh
        shards are built directly with the refreshed groups (whether the
        model tier asked for a refit or only wider margins; see
        ``MaintenanceOutcome.requires_rebuild``), pending rows are folded
        in and tombstones reclaimed by construction, so the per-shard
        folds below are skipped.  When the layout verdict is a veto, the
        model tiers apply exactly as before.
        """
        with self._write_lock:
            self._check_open()
            if shard is not None:
                self._shards[shard].compact()
                return self
            outcome = None
            refreshed = False
            if self._maintenance is not None:
                outcome = self._maintenance.refresh(self._groups)
                refreshed = outcome.action != REUSE
            proposal = self._evaluate_layout()
            if proposal is not None:
                # One rebuild serves the model and the layout tier: route
                # every live row by the proposed boundaries and build the
                # new shards with the (possibly refreshed) groups.
                new_groups = list(outcome.groups) if refreshed else list(self._groups)
                self._rebuild_layout(proposal, new_groups)
                self._groups = new_groups
                if refreshed:
                    self._maintenance.commit(outcome)
                self._layout.note_adopted(proposal)
            elif outcome is not None and outcome.requires_rebuild:
                new_groups = list(outcome.groups)
                # Phase 1: pure builds, nothing mutated anywhere — a
                # failure leaves engine, shards and monitors on the
                # old generation, mutually consistent.
                prepared = self._map_shards(
                    lambda s: s._build_reclaimed(new_groups), self._shards
                )
                # Phase 2: commit — swaps and bookkeeping only.
                for shard_index, fresh in zip(self._shards, prepared):
                    with shard_index.write_lock:
                        shard_index._swap_reclaimed(fresh)
                        shard_index.delta.clear()
                self._groups = new_groups
                self._maintenance.commit(outcome)
            elif refreshed:
                # Margins only widened: adoption is structure-free and
                # safe per shard (see COAXIndex.apply_refresh).
                self._groups = list(outcome.groups)
                self._map_shards(
                    lambda s: s.apply_refresh(self._groups),
                    self._shards,
                )
                self._maintenance.commit(outcome)
            if proposal is None:
                self._map_shards(lambda s: s.compact(), self._shards)
            if refreshed or proposal is not None:
                # The refreshed band's baseline follows the inlier
                # fractions the rebuild/folds just recomputed — the
                # engine-level analogue of the flat index's post-fold
                # rebind, so both configurations damp the reactive
                # triggers identically.
                if self._maintenance is not None:
                    self._maintenance.rebind(
                        self._groups, self._aggregate_inlier_fractions()
                    )
            return self

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def directory_bytes(self) -> int:
        """Shard directories (see :meth:`memory_breakdown`)."""
        return int(sum(self.memory_breakdown().values()))

    def data_bytes(self) -> int:
        """Bytes of record data across the shards' sub-indexes."""
        return int(sum(shard.data_bytes() for shard in self._shards))

    def memory_breakdown(self) -> Dict[str, int]:
        """Directory bytes per component: one entry per shard, plus
        ``mapping`` — every id array the engine itself holds.  That is
        none: the rows carry their global ids in the shards, where the id
        arrays count as record data."""
        breakdown = {
            f"shard{shard_no}": shard.directory_bytes()
            for shard_no, shard in enumerate(self._shards)
        }
        breakdown["mapping"] = 0
        return breakdown

    # ------------------------------------------------------------------
    # Persistence support (format v4+; see repro.io.persistence)
    # ------------------------------------------------------------------
    @classmethod
    def _from_shards(
        cls,
        shards: Sequence[COAXIndex],
        *,
        config: EngineConfig,
        groups: Sequence[FDGroup],
        dimensions: Sequence[str],
        next_global_id: int,
        boundaries: np.ndarray,
        partition_dimension: Optional[str],
    ) -> "ShardedCOAX":
        """Assemble an engine from restored shards whose rows already
        carry their global ids (the archive loader and :meth:`from_index`)."""
        shards = list(shards)
        if len(shards) != config.n_shards:
            raise ValueError(
                f"engine config expects {config.n_shards} shards, got {len(shards)}"
            )
        self = cls.__new__(cls)
        self._config = config
        self._init_state(shards[0].schema, dimensions)
        self._stats_lock = threading.Lock()
        self._closed = False
        self._executor = None
        self._groups = list(groups)
        self._partition_dim = partition_dimension
        self._boundaries = np.asarray(boundaries, dtype=np.float64)
        self._layout = None
        if config.layout.enabled and config.partitioning == "range":
            self._layout = LayoutMonitor(config.layout, config.n_shards)
        self._shards = shards
        self._shard_config = shards[0].config
        # Drift maintenance is strictly engine-owned: a shard refreshing
        # its own models would diverge from the groups the engine
        # translates batch queries with, silently losing rows.  A wrapped
        # flat index's manager is therefore *promoted* to the engine (its
        # monitor state survives) and stripped from the shard.
        self._maintenance = None
        if config.coax.maintenance.enabled and self._groups:
            promoted = next(
                (s.maintenance for s in shards if s.maintenance is not None),
                None,
            )
            if promoted is not None:
                for s in shards:
                    s._maintenance = None
                self._maintenance = promoted
            else:
                self._maintenance = MaintenanceManager(
                    self._groups,
                    config.coax.maintenance,
                    self._aggregate_inlier_fractions(),
                )
        self._next_global_id = int(next_global_id)
        return self

    @classmethod
    def from_index(cls, index: COAXIndex, *, workers: int = 1) -> "ShardedCOAX":
        """Wrap an existing (e.g. legacy-archive) COAX index as one shard.

        The index's row ids become the global ids; this is how flat
        archives load into the engine.
        """
        config = EngineConfig(
            n_shards=1,
            partitioning="hash",
            workers=workers,
            coax=index.config,
        )
        return cls._from_shards(
            [index],
            config=config,
            groups=list(index.groups),
            dimensions=index.dimensions,
            next_global_id=index.next_row_id,
            boundaries=np.empty(0, dtype=np.float64),
            partition_dimension=None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedCOAX(n_shards={self.n_shards}, workers={self.workers}, "
            f"partitioning={self._config.partitioning!r}, n_rows={self.n_rows})"
        )
