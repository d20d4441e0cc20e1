"""Common interface of every multidimensional index in the library.

Indexes are constructed over a table (optionally restricted to a subset of
rows) and keep their own copy of the rows they cover, each row carrying
its id: its table position by default, or an id the builder passes in.
Query results are always arrays of those ids, so COAX can merge primary-
and outlier-index results with a plain union (Figure 1).
Every index also accounts for its *directory* memory (the structure on top
of the data: boundaries, cell offsets, tree nodes, model parameters)
separately from the data itself, which is what Figure 8 plots on its x axis.

Concurrency contract
--------------------

Indexes are not free-threaded data structures; they follow a
*single-writer* discipline instead:

* Every index owns a reentrant ``write_lock``.  Mutation entry points of
  the compound structures (``COAXIndex.insert_batch`` / ``delete_batch`` /
  ``update_batch`` / ``compact`` and the ``ShardedCOAX`` facade) acquire
  it for the whole batch, so two concurrent mutators serialise and no
  mutation can interleave with another half-way.
* Readers in the mutating thread need no locking (a mutation entry point
  never yields mid-batch).  Readers in *other* threads — the sharded
  engine's scatter workers overlapping queries with background shard
  maintenance — take the target's ``write_lock`` around the query, which
  guarantees they observe either the pre-batch or the post-batch state of
  a shard, never a half-applied insert/delete/compaction.
* The primitive per-structure operations (``delete_rows``,
  ``_append_rows``, absorb paths) do **not** lock themselves: they are
  always reached from an entry point that already holds the lock, and
  locking them individually would only hide torn multi-structure updates
  instead of preventing them.
"""

from __future__ import annotations

import threading

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.executors import (
    MATERIALIZE,
    Aggregate,
    AggregatePartial,
    Executor,
    TopK,
    point_distances,
    select_topk,
)
from repro.data.predicates import Rectangle
from repro.data.table import Table
from repro.indexes.kernels import live_candidate_mask

__all__ = [
    "IndexBuildError",
    "QueryStats",
    "MultidimensionalIndex",
]


class IndexBuildError(RuntimeError):
    """Raised when an index cannot be built with the given parameters."""


@dataclass
class QueryStats:
    """Work counters accumulated across queries (reset with :meth:`reset`).

    Counter semantics (identical on the sequential and the batch path):

    * ``queries`` counts *logical* queries: one increment per query answered,
      never one per sub-index call or per batch.  A batch of ``n`` queries
      increments it by ``n`` (:meth:`record_batch`); a COAX query that fans
      out to the primary index, the outlier index and the delta store still
      counts once on the COAX facade (the sub-indexes keep their own stats).
    * ``rows_examined`` counts candidate rows actually scanned or gathered.
      Visiting an empty cell — or a cell whose sorted-key run turns out
      empty — contributes nothing here; it only shows up in
      ``cells_visited``.
    * ``rows_matched`` counts rows in the final, exactly filtered result.
    * ``cells_visited`` / ``nodes_visited`` count directory work: every
      enumerated grid cell (empty or not) respectively every tree node
      touched.
    * ``shards_pruned`` counts whole sub-indexes skipped by engine-level
      bounding-box pruning: the sharded engine increments it once per
      (query, shard) pair it never dispatched.  Unsharded indexes leave it
      at zero.

    Per-op counters (the executor surface):

    * ``aggregates`` counts logical :class:`~repro.data.executors.Aggregate`
      queries answered — like ``queries``, once per logical query at every
      facade that answered it, never once per sub-index or shard.
    * ``knn_queries`` counts logical :class:`~repro.data.executors.TopK`
      queries (both kNN point searches and by-column top-k).
    * ``rings_expanded`` counts grid-directory ring expansions performed by
      kNN searches (one per widening of the visited cell box beyond the
      seed cells); non-ring fallbacks contribute zero.

    Merge/split semantics of the per-op counters: :meth:`merge` sums all
    three exactly like every other counter (disjoint sub-index stats stay
    additive).  Per-query *attribution* of a batch (the serve
    dispatcher) assigns ``aggregates``/``knn_queries`` exactly — 1 to
    every query of that op, since they count logical queries — and
    splits the fan-out-shaped ``rings_expanded`` with
    :func:`~repro.core.results.split_counter_evenly`, the same
    sum-preserving largest-remainder split used for ``rows_examined``.
    """

    queries: int = 0
    rows_examined: int = 0
    rows_matched: int = 0
    cells_visited: int = 0
    nodes_visited: int = 0
    shards_pruned: int = 0
    aggregates: int = 0
    knn_queries: int = 0
    rings_expanded: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.queries = 0
        self.rows_examined = 0
        self.rows_matched = 0
        self.cells_visited = 0
        self.nodes_visited = 0
        self.shards_pruned = 0
        self.aggregates = 0
        self.knn_queries = 0
        self.rings_expanded = 0

    def record(
        self,
        *,
        rows_examined: int = 0,
        rows_matched: int = 0,
        cells_visited: int = 0,
        nodes_visited: int = 0,
        shards_pruned: int = 0,
        aggregates: int = 0,
        knn_queries: int = 0,
        rings_expanded: int = 0,
    ) -> None:
        """Accumulate the work of one query."""
        self.record_batch(
            1,
            rows_examined=rows_examined,
            rows_matched=rows_matched,
            cells_visited=cells_visited,
            nodes_visited=nodes_visited,
            shards_pruned=shards_pruned,
            aggregates=aggregates,
            knn_queries=knn_queries,
            rings_expanded=rings_expanded,
        )

    def record_batch(
        self,
        n_queries: int,
        *,
        rows_examined: int = 0,
        rows_matched: int = 0,
        cells_visited: int = 0,
        nodes_visited: int = 0,
        shards_pruned: int = 0,
        aggregates: int = 0,
        knn_queries: int = 0,
        rings_expanded: int = 0,
    ) -> None:
        """Accumulate the aggregate work of ``n_queries`` logical queries.

        The batch execution paths record once per batch with the summed
        counters, so batch and sequential execution of the same workload
        leave identical statistics.
        """
        self.queries += n_queries
        self.rows_examined += rows_examined
        self.rows_matched += rows_matched
        self.cells_visited += cells_visited
        self.nodes_visited += nodes_visited
        self.shards_pruned += shards_pruned
        self.aggregates += aggregates
        self.knn_queries += knn_queries
        self.rings_expanded += rings_expanded

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate another stats object into this one; returns ``self``.

        Every counter is summed — including ``queries``, so merging the
        stats of disjoint sub-indexes that each answered their own logical
        queries keeps the per-query averages meaningful.  Callers
        aggregating *fan-out* work (one logical query scattered over many
        shards) should merge the per-shard deltas into a scratch
        ``QueryStats`` and then :meth:`record_batch` the merged counters
        with the *logical* query count, exactly what the sharded engine's
        gather step does — ``queries`` must count logical queries once,
        never once per shard visited.
        """
        self.queries += other.queries
        self.rows_examined += other.rows_examined
        self.rows_matched += other.rows_matched
        self.cells_visited += other.cells_visited
        self.nodes_visited += other.nodes_visited
        self.shards_pruned += other.shards_pruned
        self.aggregates += other.aggregates
        self.knn_queries += other.knn_queries
        self.rings_expanded += other.rings_expanded
        return self

    def snapshot(self) -> "QueryStats":
        """An independent copy of the current counter values.

        The live object keeps accumulating; the snapshot never changes.
        Monitors that need windowed rates pair this with :meth:`delta` —
        neither touches the live counters, so the documented cumulative
        semantics above are preserved for every other reader (no hidden
        resets).
        """
        return QueryStats(
            queries=self.queries,
            rows_examined=self.rows_examined,
            rows_matched=self.rows_matched,
            cells_visited=self.cells_visited,
            nodes_visited=self.nodes_visited,
            shards_pruned=self.shards_pruned,
            aggregates=self.aggregates,
            knn_queries=self.knn_queries,
            rings_expanded=self.rings_expanded,
        )

    def delta(self, since: "QueryStats") -> "QueryStats":
        """Counter increments since an earlier :meth:`snapshot`.

        Returns a new object holding ``self - since`` per counter; both
        inputs are left untouched.  Taking a snapshot before a window and
        calling ``stats.delta(before)`` after it yields exactly the work
        of that window even while other readers rely on the cumulative
        totals.  Negative values only arise when ``since`` postdates a
        :meth:`reset`, in which case the window spans the reset and has
        no meaningful delta.
        """
        return QueryStats(
            queries=self.queries - since.queries,
            rows_examined=self.rows_examined - since.rows_examined,
            rows_matched=self.rows_matched - since.rows_matched,
            cells_visited=self.cells_visited - since.cells_visited,
            nodes_visited=self.nodes_visited - since.nodes_visited,
            shards_pruned=self.shards_pruned - since.shards_pruned,
            aggregates=self.aggregates - since.aggregates,
            knn_queries=self.knn_queries - since.knn_queries,
            rings_expanded=self.rings_expanded - since.rings_expanded,
        )

    @property
    def mean_rows_examined(self) -> float:
        """Average rows examined per query."""
        return self.rows_examined / self.queries if self.queries else 0.0


class MultidimensionalIndex(ABC):
    """Abstract base class of all index structures.

    Subclasses index the rows given by ``row_ids`` (default: all rows of the
    table) over the attributes given by ``dimensions`` (default: the full
    schema).  Attributes outside ``dimensions`` are still checked when
    filtering candidates, so results are always exact with respect to the
    full query rectangle.
    """

    def __init__(
        self,
        table: Table,
        *,
        row_ids: Optional[np.ndarray] = None,
        dimensions: Optional[Sequence[str]] = None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        self._init_state(table.schema, self._checked_dimensions(table, dimensions))
        # ``row_ids`` selects the rows of ``table`` to index (default: all
        # of them); ``ids`` are the ids those rows carry (default: their
        # table positions).  Queries work on positional ids 0..n-1 and map
        # back to the carried ids at the end.  An index over the whole
        # table references the table arrays directly (zero-copy — in
        # particular mmap-backed columns stay mapped); subset-scoped
        # indexes gather their covered rows once.
        if row_ids is None:
            self._columns: Dict[str, np.ndarray] = {
                name: table.column(name) for name in table.schema
            }
            row_ids = np.arange(table.n_rows, dtype=np.int64)
        else:
            row_ids = np.asarray(row_ids, dtype=np.int64)
            self._columns = {
                name: table.column(name)[row_ids] for name in table.schema
            }
        if ids is not None:
            ids = np.asarray(ids, dtype=np.int64)
            if len(ids) != len(row_ids):
                raise IndexBuildError(
                    f"{len(ids)} ids given for {len(row_ids)} indexed rows"
                )
            row_ids = ids
        self._row_ids = row_ids
        # Lazily built row-id -> position lookup (see :meth:`positions_of`).
        self._row_id_order: Optional[np.ndarray] = None
        self._sorted_row_ids: Optional[np.ndarray] = None
        # Tombstone bitmap over positional ids (``None`` until the first
        # delete, so delete-free indexes pay nothing on the read path).
        self._tombstone: Optional[np.ndarray] = None
        self._n_tombstoned = 0

    def _init_state(self, schema: Sequence[str], dimensions: Sequence[str]) -> None:
        """The state every index has, whether or not it stores rows: the
        schema (an index keeps no reference to the table it was built
        from), the indexed attributes, the write lock and the counters."""
        self._schema: Tuple[str, ...] = tuple(schema)
        self._dimensions = tuple(dimensions)
        # Single-writer lock (see the module docstring's concurrency
        # contract).  Reentrant: mutation entry points nest (insert ->
        # auto-compact -> compact) without re-acquisition deadlocks.
        self._write_lock = threading.RLock()
        self.stats = QueryStats()

    @staticmethod
    def _checked_dimensions(
        table: Table, dimensions: Optional[Sequence[str]]
    ) -> Tuple[str, ...]:
        """The indexed attributes (default: the whole schema), validated."""
        dims = tuple(dimensions) if dimensions else tuple(table.schema)
        for dim in dims:
            if dim not in table.schema:
                raise IndexBuildError(f"dimension {dim!r} is not in the table schema")
        return dims

    @staticmethod
    def _key_columns(
        table: Table, row_ids: Optional[np.ndarray], names: Sequence[str]
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Covered table positions and the named columns over them.

        What a clustered index lays its rows out from *before* calling the
        base constructor with its rows in layout order, so the base class
        gathers every column once, straight into that layout.  Over the
        whole table (``row_ids`` is ``None``) the columns are the table's
        own arrays.
        """
        if row_ids is None:
            positions = np.arange(table.n_rows, dtype=np.int64)
            return positions, {name: table.column(name) for name in names}
        positions = np.asarray(row_ids, dtype=np.int64)
        return positions, {name: table.column(name)[positions] for name in names}

    def _init_restored(
        self,
        *,
        row_ids: np.ndarray,
        columns: Dict[str, np.ndarray],
        dimensions: Sequence[str],
    ) -> None:
        """Adopt base-class state directly from persisted arrays.

        Structured (format v6+) restore path: the caller supplies the
        covered row ids and the per-structure column arrays (typically
        memmap-backed) verbatim, so attaching is O(metadata).  Tombstones
        are re-applied by the caller afterwards via :meth:`delete_rows`.
        """
        self._init_state(tuple(columns), dimensions)
        self._row_ids = np.asarray(row_ids, dtype=np.int64)
        # Plain-ndarray views of the (typically memmap) columns: same
        # mapped buffer, no copy, but gathers and comparisons on them skip
        # np.memmap's per-result Python hooks, which dominate on the few
        # rows a point lookup touches.
        self._columns = {name: column.view(np.ndarray) for name, column in columns.items()}
        self._row_id_order = None
        self._sorted_row_ids = None
        self._tombstone = None
        self._n_tombstoned = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Tuple[str, ...]:
        """Attribute names of the indexed records, in table order."""
        return self._schema

    @property
    def row_ids(self) -> np.ndarray:
        """Ids of the records covered by this index."""
        return self._row_ids

    @property
    def n_rows(self) -> int:
        """Number of indexed records (live and tombstoned)."""
        return len(self._row_ids)

    @property
    def n_tombstoned(self) -> int:
        """Number of covered records marked deleted but not yet reclaimed."""
        return self._n_tombstoned

    @property
    def n_live(self) -> int:
        """Number of covered records that are not tombstoned."""
        return self.n_rows - self.n_tombstoned

    @property
    def tombstone_fraction(self) -> float:
        """Tombstoned share of the covered rows (compaction trigger metric)."""
        n_rows = self.n_rows
        return self.n_tombstoned / n_rows if n_rows else 0.0

    @property
    def tombstone_mask(self) -> Optional[np.ndarray]:
        """Per-position deleted bitmap (``None`` while no row was deleted)."""
        return self._tombstone

    def live_row_ids(self) -> np.ndarray:
        """Original row ids of the covered records that are still live."""
        if self._tombstone is None:
            return self._row_ids
        return self._row_ids[~self._tombstone]

    @property
    def write_lock(self) -> threading.RLock:
        """Reentrant single-writer lock of this index.

        Mutation entry points hold it for the whole batch; cross-thread
        readers that must not observe a half-applied mutation (the sharded
        engine's scatter workers) take it around their query.  See the
        module docstring for the full contract.
        """
        return self._write_lock

    @property
    def dimensions(self) -> tuple:
        """Attributes the directory structure is built on."""
        return self._dimensions

    def column(self, name: str) -> np.ndarray:
        """Local (subset) copy of a column, aligned with positional ids."""
        return self._columns[name]

    def positions_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Positional ids of ``row_ids`` within this index's subset.

        The stable argsort of the covered row ids is computed once and
        cached, so repeated id-to-position mapping (every COAX query needs
        it) costs one binary search instead of an ``O(n log n)`` sort per
        call.  Ids not covered by this index are silently dropped.  The
        cache is invalidated whenever the covered row set changes
        (:meth:`_append_rows`).
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0 or self.n_rows == 0:
            return np.empty(0, dtype=np.int64)
        if self._row_id_order is None or self._sorted_row_ids is None:
            self._row_id_order = np.argsort(self._row_ids, kind="stable")
            self._sorted_row_ids = self._row_ids[self._row_id_order]
        located = np.searchsorted(self._sorted_row_ids, row_ids)
        np.minimum(located, len(self._sorted_row_ids) - 1, out=located)
        valid = self._sorted_row_ids[located] == row_ids
        return self._row_id_order[located[valid]]

    # ------------------------------------------------------------------
    # Deletes (tombstones)
    # ------------------------------------------------------------------
    def delete_rows(self, row_ids: np.ndarray, *, assume_unique: bool = False) -> int:
        """Tombstone the given original row ids; return how many were live.

        Deletion is ``O(k log n)`` for ``k`` ids (one batched binary search
        through the cached row-id lookup plus one bitmap scatter) and takes
        effect immediately: every read path filters tombstoned positions
        alongside its exact post-filter, so no directory structure is
        touched.  Ids not covered by this index — and ids already
        tombstoned — are silently skipped, which makes the call idempotent.
        ``assume_unique`` skips the defensive de-duplication (duplicates
        would double-count the tombstones) when the caller already holds a
        unique id set — compound indexes fan one delete out to several
        sub-structures and should not pay the sort more than once.  The
        physical reclaim (dropping the rows from the directory and the
        column copies) is the job of compaction, not of the delete itself.
        """
        # repro-lint: allow[lock-discipline] single-structure primitive: the owning COAXIndex/engine entry point holds the write lock around every call (see the class concurrency contract)
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0 or self.n_rows == 0:
            return 0
        positions = self.positions_of(row_ids if assume_unique else np.unique(row_ids))
        if len(positions) == 0:
            return 0
        if self._tombstone is None:
            self._tombstone = np.zeros(self.n_rows, dtype=bool)
        newly = positions[~self._tombstone[positions]]
        self._tombstone[newly] = True
        self._n_tombstoned += len(newly)
        return int(len(newly))

    def rows_live(self, row_ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``row_ids`` are covered and not tombstoned.

        One batched binary search through the cached row-id lookup —
        ``O(k log n)`` for ``k`` ids, like :meth:`delete_rows` — instead of
        materialising the live-id set.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0 or self.n_rows == 0:
            return np.zeros(len(row_ids), dtype=bool)
        if self._row_id_order is None or self._sorted_row_ids is None:
            self._row_id_order = np.argsort(self._row_ids, kind="stable")
            self._sorted_row_ids = self._row_ids[self._row_id_order]
        located = np.searchsorted(self._sorted_row_ids, row_ids)
        np.minimum(located, len(self._sorted_row_ids) - 1, out=located)
        found = self._sorted_row_ids[located] == row_ids
        if self._tombstone is None:
            return found
        # Not-found slots carry a clipped (but valid) position; `found`
        # masks them out of the result either way.
        return found & ~self._tombstone[self._row_id_order[located]]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, query: Rectangle) -> np.ndarray:
        """Original row ids of records matching ``query`` exactly."""
        if query.is_empty or self.n_rows == 0:
            self.stats.record()
            return np.empty(0, dtype=np.int64)
        positions = self._range_query_positions(query)
        return self._row_ids[positions]

    def point_query(self, point: Mapping[str, float]) -> np.ndarray:
        """Original row ids of records equal to ``point`` on every given attribute."""
        return self.range_query(Rectangle.from_point(point))

    def count(self, query: Rectangle) -> int:
        """Number of matching records (convenience wrapper)."""
        return int(len(self.range_query(query)))

    def batch_range_query(self, queries: Sequence[Rectangle]) -> List[np.ndarray]:
        """Original row ids for every query of a batch.

        The base implementation executes the queries one by one; subclasses
        with batch-friendly layouts (or remote/async backends) can override
        it to share directory lookups across the batch.  Results are
        positionally aligned with ``queries``.
        """
        return [self.range_query(query) for query in queries]

    def batch_range_query_flat(
        self, queries: Sequence[Rectangle]
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Batch results as one flat array plus per-query counts.

        Returns ``(row_ids, counts)`` where ``row_ids`` concatenates every
        query's result in order and ``counts[i]`` is query ``i``'s result
        size — the zero-copy form compound indexes (COAX) consume when they
        merge sub-index results batch-wide, avoiding a split into per-query
        arrays that the caller would immediately re-concatenate.  Contents
        are identical to ``np.concatenate(batch_range_query(queries))``.
        """
        results = self.batch_range_query(queries)
        counts = np.array([len(result) for result in results], dtype=np.int64)
        if not results or int(counts.sum()) == 0:
            return np.empty(0, dtype=np.int64), counts
        return np.concatenate(results), counts

    # ------------------------------------------------------------------
    # Executors (aggregate / top-k consumers of the match set)
    # ------------------------------------------------------------------
    def execute(self, query: Rectangle, executor: Executor = MATERIALIZE):
        """Answer ``query`` through ``executor``.

        The one dispatch point every caller-facing layer shares:
        :class:`~repro.data.executors.MaterializeIds` returns the row-id
        array (exactly :meth:`range_query`), ``Aggregate`` returns the
        scalar, ``TopK`` returns the result row ids ordered by
        ``(key, row_id)`` — kNN mode ignores the rectangle.
        """
        kind = getattr(executor, "kind", "materialize")
        if kind == "aggregate":
            return self.aggregate(query, executor)
        if kind == "topk":
            if executor.is_knn:
                return self.knn(executor.point, executor.k, metric=executor.metric)
            return self.topk(query, executor)
        return self.range_query(query)

    def aggregate(self, query: Rectangle, spec: Aggregate):
        """Scalar aggregate of ``spec`` over the rows matching ``query``.

        COUNT returns an ``int``; SUM/MIN/MAX/AVG return a ``float``
        (NaN over an empty match set except SUM, which is 0.0).
        """
        result = self.batch_aggregate([query], spec)[0]
        return int(result) if spec.op == "count" else float(result)

    def batch_aggregate(self, queries: Sequence[Rectangle], spec: Aggregate) -> np.ndarray:
        """Per-query aggregate results, positionally aligned with ``queries``."""
        return self.batch_aggregate_partial(queries, spec).finalize(spec)

    def batch_aggregate_partial(
        self, queries: Sequence[Rectangle], spec: Aggregate
    ) -> AggregatePartial:
        """Fold every query's matching rows into per-query accumulators.

        The mergeable form compound indexes and the sharded engine
        consume: partials over disjoint row subsets merge component-wise
        (see :class:`~repro.data.executors.AggregatePartial`).  The base
        implementation folds column values at the matching *positions* —
        the original row ids are never gathered, which is the executor
        contract subclasses must preserve when they override this with a
        pushdown (the grid folds candidate runs before the post-filter).
        """
        partial = AggregatePartial.identity(len(queries))
        values = self._columns[spec.column] if spec.column is not None else None
        for slot, query in enumerate(queries):
            if query.is_empty or self.n_rows == 0:
                self.stats.record()
                continue
            positions = self._range_query_positions(query)
            if len(positions) == 0:
                continue
            qids = np.full(len(positions), slot, dtype=np.int64)
            partial.fold_values(qids, None if values is None else values[positions])
        self.stats.record_batch(0, aggregates=len(queries))
        return partial

    def knn(self, point: Mapping[str, float], k: int, *, metric: str = "l2") -> np.ndarray:
        """Row ids of the ``k`` live rows nearest to ``point``.

        Ordered by ``(distance, row_id)`` — ties always break toward the
        smaller row id, so results are reproducible across shardings and
        against the full-scan oracle.
        """
        _, ids = self.knn_partial(point, k, metric=metric)
        return ids

    def knn_partial(
        self, point: Mapping[str, float], k: int, *, metric: str = "l2"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Local kNN candidates as a mergeable ``(keys, ids)`` pair.

        Keys are monotone distance keys (squared L2 / L∞), so per-subset
        candidate sets merge exactly with
        :func:`~repro.data.executors.merge_topk`.  The base implementation
        scans every live row; grid subclasses override it with the
        expanding-ring directory search.
        """
        if self.n_rows == 0:
            self.stats.record(knn_queries=1)
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        keys = point_distances(self._columns, None, point, metric)
        ids = self._row_ids
        if self._tombstone is not None:
            live = ~self._tombstone
            keys = keys[live]
            ids = ids[live]
        self.stats.record(rows_examined=len(ids), knn_queries=1)
        return select_topk(keys, ids, k)

    def topk(self, query: Rectangle, spec: TopK) -> np.ndarray:
        """Row ids of the k smallest/largest matching rows by ``spec.column``."""
        _, ids = self.topk_partial(query, spec)
        return ids

    def topk_partial(
        self, query: Rectangle, spec: TopK
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Local by-column top-k candidates as a mergeable ``(keys, ids)`` pair."""
        if query.is_empty or self.n_rows == 0:
            self.stats.record(knn_queries=1)
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        positions = self._range_query_positions(query)
        self.stats.record_batch(0, knn_queries=1)
        if len(positions) == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        keys = self._columns[spec.column][positions].astype(np.float64, copy=False)
        return select_topk(keys, self._row_ids[positions], spec.k, largest=spec.largest)

    @abstractmethod
    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        """Positional ids (into the local subset) of exactly matching records."""

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @abstractmethod
    def directory_bytes(self) -> int:
        """Bytes of index structure on top of the data (Figure 8 x-axis)."""

    def data_bytes(self) -> int:
        """Bytes of the record data covered by this index."""
        return int(sum(array.nbytes for array in self._columns.values()))

    def total_bytes(self) -> int:
        """Directory plus data bytes."""
        return self.directory_bytes() + self.data_bytes()

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _append_rows(
        self, new_columns: Mapping[str, np.ndarray], new_row_ids: np.ndarray
    ) -> None:
        """Extend the covered row set with rows given as columns plus ids.

        Only the flat row bookkeeping is updated here — directory
        structures are the subclass's responsibility.
        """
        self._insert_rows(new_row_ids, new_columns, self.n_rows)

    def _insert_rows(
        self,
        new_row_ids: np.ndarray,
        new_columns: Mapping[str, np.ndarray],
        at,
    ) -> None:
        """Insert rows into the flat per-position arrays before ``at``.

        ``at`` follows ``np.insert``: one position for the whole batch (an
        append when it is ``n_rows``) or one position per new row, rows
        sharing a position keeping their batch order.  The row ids, every
        column and the tombstone bitmap (new rows live) move together, so
        positions stay aligned across all of them.
        """
        # Invalidate the row-id lookup *before* touching the row set: if
        # an insert below raises, a stale cache must never survive to
        # serve positions over partially updated arrays.
        self._invalidate_row_lookup()
        new_row_ids = np.asarray(new_row_ids, dtype=np.int64)
        self._row_ids = np.insert(self._row_ids, at, new_row_ids)
        if self._tombstone is not None:
            self._tombstone = np.insert(
                self._tombstone, at, np.zeros(len(new_row_ids), dtype=bool)
            )
        for name in self._schema:
            self._columns[name] = np.insert(self._columns[name], at, new_columns[name])

    def _invalidate_row_lookup(self) -> None:
        """Drop the cached row-id ordering; any path that changes the
        covered row set (absorbs, rebuilds, future merge paths) must call
        this so :meth:`positions_of` rebuilds against the new rows."""
        self._row_id_order = None
        self._sorted_row_ids = None

    def _filter_candidates(
        self,
        candidates: np.ndarray,
        query: Rectangle,
        skip_dims: Sequence[str] = (),
    ) -> np.ndarray:
        """Exact post-filter of candidate positional ids against the query.

        ``skip_dims`` names constraints the caller has already proven for
        every candidate (an exact bisection, or the grid filter-pruning
        invariant), so their column gathers are skipped.  Tombstoned
        candidates are dropped here as well — even when every dimension is
        skipped — so deletes are visible on every read path that funnels
        through the exact filter.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        if len(candidates) == 0:
            return candidates
        live = live_candidate_mask(candidates, self._tombstone)
        mask = live if live is not None else np.ones(len(candidates), dtype=bool)
        for name, interval in query.items():
            if name in skip_dims:
                continue
            values = self._columns[name][candidates]
            mask &= (values >= interval.low) & (values <= interval.high)
        return candidates[mask]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_rows={self.n_rows}, dims={list(self._dimensions)})"
