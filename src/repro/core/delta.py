"""Columnar delta store for inserted records (the COAX update subsystem).

The paper leaves updates as future work; this module realises them with a
write-optimised columnar buffer in front of the read-optimised main
structures, the classic delta-store / main-store split of column stores:

* inserted batches land in per-attribute NumPy append buffers with
  amortised geometric growth — an insert of ``k`` rows is ``k`` array
  writes, not ``k`` Python dict allocations;
* routing against the learned soft-FD models is vectorised: one
  ``within_margin`` evaluation per model over the whole batch decides which
  rows logically belong to the primary index and which to the outlier
  index (the same batch-margin primitive the build-time partitioner uses);
* query-time merging is a vectorised scan over the active buffer prefix —
  no per-row Python loop, however many rows are pending.  A batch is
  matched on the columnar ``(lows, highs)`` bound matrices the grids
  read (:func:`repro.data.predicates.batch_bounds`) and answered as the
  grids' flat ``(row ids, query ids)`` stream;
* compaction (:meth:`COAXIndex.compact`) drains the buffer into the main
  structures and :meth:`clear`\\ s it; the recorded routing masks are
  reused so nothing is re-partitioned.

The store also exposes its raw state (:meth:`state` / :meth:`load_state`)
so persistence can round-trip an index without forcing a compaction first.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.executors import (
    Aggregate,
    AggregatePartial,
    TopK,
    point_distances,
    select_topk,
)
from repro.data.predicates import Rectangle, batch_live
from repro.data.table import Table
from repro.fd.groups import FDGroup, per_model_inlier_masks

__all__ = ["DeltaStore", "NonFiniteBatchError", "coerce_batch"]

#: Initial capacity (rows) of a freshly created delta store.
INITIAL_CAPACITY = 256
#: Geometric growth factor of the append buffers.
GROWTH_FACTOR = 2.0

def _column_hull(values: np.ndarray) -> Tuple[float, float]:
    """NaN-safe ``(min, max)`` of one column for the incremental hull.

    ``fmin``/``fmax`` ignore NaN unless every value is NaN, in which case
    the hull falls back to the unbounded interval: the box may then
    over-cover but can never under-cover live pending rows, which is the
    one property shard pruning relies on.  (The insert path already
    rejects non-finite values in :func:`coerce_batch`; this is the
    backstop for direct ``append_batch`` callers.)
    """
    low = np.fmin.reduce(values)
    high = np.fmax.reduce(values)
    if np.isnan(low) or np.isnan(high):
        return -np.inf, np.inf
    return float(low), float(high)


#: Anything accepted as an insert batch: a table, a column mapping, or a
#: sequence of record dicts (the slow but convenient path).
BatchLike = Union[Table, Mapping[str, np.ndarray], Sequence[Mapping[str, float]]]


class NonFiniteBatchError(ValueError):
    """An insert/update batch contains NaN or infinite values.

    Record values must be finite: NaN is the library's dead-slot marker in
    backing tables, and a NaN reaching the delta store's incremental hull
    would poison every box comparison (NaN compares ``False``), letting
    engine-level shard pruning skip shards that hold live pending rows.
    Subclasses ``ValueError`` so pre-existing handlers keep working; the
    offending attribute name is carried for programmatic handling.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        super().__init__(
            f"batch column {attribute!r} contains non-finite values "
            "(NaN/inf record values are not supported)"
        )


def coerce_batch(batch: BatchLike, schema: Sequence[str]) -> Dict[str, np.ndarray]:
    """Normalise an insert batch to float64 column arrays in schema order.

    Raises ``ValueError`` when attributes are missing or column lengths
    disagree, and the typed :class:`NonFiniteBatchError` when any value is
    NaN or infinite; extra attributes are ignored so callers can pass
    richer records.
    """
    if isinstance(batch, Table):
        columns: Mapping[str, np.ndarray] = batch.columns()
    elif isinstance(batch, Mapping):
        columns = batch
    else:
        records = list(batch)
        if not records:
            return {name: np.empty(0, dtype=np.float64) for name in schema}
        missing = [name for name in schema if name not in records[0]]
        if missing:
            raise ValueError(f"record is missing attributes: {missing}")
        try:
            columns = {
                name: np.array(
                    [float(record[name]) for record in records], dtype=np.float64
                )
                for name in schema
            }
        except KeyError as exc:
            raise ValueError(f"record is missing attributes: [{exc.args[0]!r}]") from exc
    missing = [name for name in schema if name not in columns]
    if missing:
        raise ValueError(f"batch is missing attributes: {missing}")
    arrays: Dict[str, np.ndarray] = {}
    n_rows: Optional[int] = None
    for name in schema:
        array = np.asarray(columns[name], dtype=np.float64).ravel()
        if n_rows is None:
            n_rows = len(array)
        elif len(array) != n_rows:
            raise ValueError(
                f"batch column {name!r} has {len(array)} rows, expected {n_rows}"
            )
        if not np.isfinite(array).all():
            raise NonFiniteBatchError(name)
        arrays[name] = array
    return arrays


class DeltaStore:
    """Columnar append buffer holding records inserted since the last compaction."""

    def __init__(
        self,
        schema: Sequence[str],
        groups: Sequence[FDGroup] = (),
        *,
        initial_capacity: int = INITIAL_CAPACITY,
    ) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be at least 1")
        self._schema: Tuple[str, ...] = tuple(schema)
        self._groups: Tuple[FDGroup, ...] = tuple(groups)
        self._capacity = int(initial_capacity)
        self._size = 0
        self._buffers: Dict[str, np.ndarray] = {
            name: np.empty(self._capacity, dtype=np.float64) for name in self._schema
        }
        self._row_ids = np.empty(self._capacity, dtype=np.int64)
        self._inlier = np.empty(self._capacity, dtype=bool)
        # Per "predictor->dependent" model: one boolean buffer recording,
        # row by row, whether the record sits inside that model's margins.
        # Keeping the per-row masks (not just counts) means deletes can
        # decrement the routing bookkeeping exactly and persistence can
        # restore it without ever re-evaluating a model.
        self._model_names: Tuple[str, ...] = tuple(
            f"{group.predictor}->{dependent}"
            for group in self._groups
            for dependent in group.dependents
        )
        self._model_masks: Dict[str, np.ndarray] = {
            name: np.empty(self._capacity, dtype=bool) for name in self._model_names
        }
        # Incremental bounding box of everything ever appended since the
        # last clear() (``None`` while empty).  Deletes do not shrink it —
        # it is a *conservative* hull, exactly what engine-level shard
        # pruning needs: a query missing the box can match no pending row.
        self._box: Optional[Tuple[Dict[str, float], Dict[str, float]]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Tuple[str, ...]:
        """Attribute names of the buffered columns."""
        return self._schema

    @property
    def n_pending(self) -> int:
        """Number of buffered records."""
        return self._size

    @property
    def n_pending_primary(self) -> int:
        """Buffered records routed to the (logical) primary index."""
        return int(np.count_nonzero(self._inlier[: self._size]))

    @property
    def n_pending_outlier(self) -> int:
        """Buffered records routed to the (logical) outlier index."""
        return self._size - self.n_pending_primary

    @property
    def capacity(self) -> int:
        """Allocated buffer capacity in rows."""
        return self._capacity

    @property
    def row_ids(self) -> np.ndarray:
        """Assigned row ids of the buffered records (a view, do not mutate)."""
        return self._row_ids[: self._size]

    @property
    def inlier_mask(self) -> np.ndarray:
        """Routing decision per buffered record (a view, do not mutate)."""
        return self._inlier[: self._size]

    @property
    def per_model_inlier_counts(self) -> Dict[str, int]:
        """Per FD model: buffered rows inside its margins (from append time)."""
        return {
            name: int(np.count_nonzero(mask[: self._size]))
            for name, mask in self._model_masks.items()
        }

    @property
    def box(self) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
        """Conservative ``(lows, highs)`` hull of the buffered records.

        Maintained incrementally by :meth:`append_batch` and reset by
        :meth:`clear`; in-place deletes leave it untouched, so it may
        over-cover but never under-cover the live pending rows.  ``None``
        while nothing is buffered.
        """
        return None if self._size == 0 else self._box

    @property
    def model_names(self) -> Tuple[str, ...]:
        """``predictor->dependent`` names of the routed FD models."""
        return self._model_names

    def model_mask(self, name: str) -> np.ndarray:
        """Active prefix of one model's margin mask (a view, do not mutate)."""
        return self._model_masks[name][: self._size]

    def set_groups(self, groups: Sequence[FDGroup]) -> None:
        """Swap in refreshed FD models for future routing decisions.

        The model set must be unchanged (same ``predictor->dependent``
        names) so the recorded per-model masks keep their meaning; only
        the model parameters (slope, intercept, margins) may differ.
        Masks already recorded stay as appended — routing a record by
        stale (narrower) margins is conservative: it lands in the outlier
        index, where every query finds it without any model.
        """
        names = tuple(
            f"{group.predictor}->{dependent}"
            for group in groups
            for dependent in group.dependents
        )
        if names != self._model_names:
            raise ValueError(
                f"refreshed groups define models {list(names)}, "
                f"expected {list(self._model_names)}"
            )
        self._groups = tuple(groups)

    def column(self, name: str) -> np.ndarray:
        """Active prefix of one buffered column (a view, do not mutate)."""
        return self._buffers[name][: self._size]

    def columns(self) -> Dict[str, np.ndarray]:
        """Active prefixes of all buffered columns."""
        return {name: self.column(name) for name in self._schema}

    def nbytes(self) -> int:
        """Bytes allocated by the buffers (including growth headroom)."""
        per_row = len(self._schema) * 8 + 8 + 1 + len(self._model_names)
        return int(self._capacity * per_row)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaStore(n_pending={self._size}, capacity={self._capacity}, "
            f"columns={list(self._schema)})"
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _reserve(self, extra: int) -> None:
        """Grow the buffers geometrically until ``extra`` more rows fit."""
        needed = self._size + extra
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity = int(capacity * GROWTH_FACTOR) + 1
        for name in self._schema:
            grown = np.empty(capacity, dtype=np.float64)
            grown[: self._size] = self._buffers[name][: self._size]
            self._buffers[name] = grown
        grown_ids = np.empty(capacity, dtype=np.int64)
        grown_ids[: self._size] = self._row_ids[: self._size]
        self._row_ids = grown_ids
        grown_inlier = np.empty(capacity, dtype=bool)
        grown_inlier[: self._size] = self._inlier[: self._size]
        self._inlier = grown_inlier
        for name in self._model_names:
            grown_mask = np.empty(capacity, dtype=bool)
            grown_mask[: self._size] = self._model_masks[name][: self._size]
            self._model_masks[name] = grown_mask
        self._capacity = capacity

    def append_batch(
        self,
        columns: Mapping[str, np.ndarray],
        row_ids: np.ndarray,
        *,
        inlier_mask: Optional[np.ndarray] = None,
        model_masks: Optional[Mapping[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Append a coerced batch, routing it against the learned models.

        ``columns`` must already be schema-complete float64 arrays (see
        :func:`coerce_batch`).  Returns the inlier mask of the batch.  When
        both ``inlier_mask`` and ``model_masks`` are given (a persistence
        restore) the stored routing is trusted verbatim and **no model is
        evaluated at all** — restore cost is a buffer copy, not
        O(pending x models) — and the restored per-model masks keep
        post-load compaction's weighted means identical to insert-time
        truth.  An ``inlier_mask`` without ``model_masks`` (a legacy
        format-v2 archive) still re-derives the per-model masks.
        """
        n_new = len(row_ids)
        if n_new == 0:
            return np.empty(0, dtype=bool)
        if model_masks is None:
            model_masks = per_model_inlier_masks(self._groups, columns)
        if inlier_mask is None:
            inlier_mask = np.ones(n_new, dtype=bool)
            for mask in model_masks.values():
                inlier_mask &= mask
        else:
            inlier_mask = np.asarray(inlier_mask, dtype=bool)
        self._reserve(n_new)
        start, stop = self._size, self._size + n_new
        for name in self._schema:
            self._buffers[name][start:stop] = columns[name]
        self._row_ids[start:stop] = np.asarray(row_ids, dtype=np.int64)
        self._inlier[start:stop] = inlier_mask
        for name in self._model_names:
            self._model_masks[name][start:stop] = np.asarray(
                model_masks[name], dtype=bool
            )
        self._size = stop
        if self._box is None:
            batch_hull = {name: _column_hull(columns[name]) for name in self._schema}
            self._box = (
                {name: hull[0] for name, hull in batch_hull.items()},
                {name: hull[1] for name, hull in batch_hull.items()},
            )
        else:
            lows, highs = self._box
            for name in self._schema:
                low, high = _column_hull(columns[name])
                lows[name] = min(lows[name], low)
                highs[name] = max(highs[name], high)
        return inlier_mask

    def delete_rows(self, row_ids: np.ndarray) -> int:
        """Remove buffered records by assigned row id, compacting in place.

        The surviving rows are copied down over the deleted slots in one
        vectorised pass per buffer (row ids, inlier routing, per-model
        masks and every column move together), so the routing bookkeeping
        is decremented exactly — no model is re-evaluated.  Ids not in the
        buffer are ignored.  Returns the number of records removed.
        """
        if self._size == 0:
            return 0
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0:
            return 0
        doomed = np.isin(self._row_ids[: self._size], row_ids)
        n_deleted = int(np.count_nonzero(doomed))
        if n_deleted == 0:
            return 0
        keep = ~doomed
        new_size = self._size - n_deleted
        for name in self._schema:
            buffer = self._buffers[name]
            buffer[:new_size] = buffer[: self._size][keep]
        self._row_ids[:new_size] = self._row_ids[: self._size][keep]
        self._inlier[:new_size] = self._inlier[: self._size][keep]
        for name in self._model_names:
            mask = self._model_masks[name]
            mask[:new_size] = mask[: self._size][keep]
        self._size = new_size
        if new_size == 0:
            # A drained buffer must drop its hull: the next append would
            # otherwise union into the stale box and keep it permanently
            # inflated, silently degrading engine-level shard pruning.
            self._box = None
        return n_deleted

    def clear(self) -> None:
        """Drop every buffered record (capacity is kept for reuse)."""
        self._size = 0
        self._box = None

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def scan(self, query: Rectangle) -> np.ndarray:
        """Row ids of buffered records matching ``query`` (sorted).

        One vectorised interval check per constrained attribute over the
        active buffer prefix — the delta-side analogue of the full-scan
        baseline, but only over the (small) pending set.
        """
        if self._size == 0 or query.is_empty:
            return np.empty(0, dtype=np.int64)
        mask = query.matches(self.columns())
        return np.sort(self._row_ids[: self._size][mask])

    #: Queries checked per broadcast block in :meth:`_match_blocks`, bounding
    #: the (block x pending) mask matrix to a few MB however large the batch.
    SCAN_BATCH_BLOCK = 256

    def _match_blocks(
        self, bounds: Dict[str, Tuple[np.ndarray, np.ndarray]], n_queries: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(query ids, buffer positions)`` of a columnar batch's matches.

        ``bounds`` holds the batch's per-attribute ``(lows, highs)`` bound
        matrices (:func:`repro.data.predicates.batch_bounds`).  The live
        queries are matched in blocks of at most :attr:`SCAN_BATCH_BLOCK`:
        per attribute the column prefix is compared against the block's
        bound vectors by broadcasting.  (Writing the comparisons into a
        reused ``out=`` buffer measured no faster: the broadcast compares
        dominate, not their temporaries.)  The stream is query-major, in
        buffer order within a query.
        """
        size = self._size
        live = np.flatnonzero(batch_live(bounds, n_queries)) if size else ()
        qids = [np.empty(0, dtype=np.int64)]
        positions = [np.empty(0, dtype=np.int64)]
        for start in range(0, len(live), self.SCAN_BATCH_BLOCK):
            block = live[start : start + self.SCAN_BATCH_BLOCK]
            mask = np.ones((len(block), size), dtype=bool)
            for dim, (lows, highs) in bounds.items():
                values = self._buffers[dim][:size]
                mask &= (values >= lows[block, None]) & (values <= highs[block, None])
            rows, columns = np.nonzero(mask)
            qids.append(block[rows])
            positions.append(columns)
        return np.concatenate(qids), np.concatenate(positions)

    def scan_batch(
        self, bounds: Dict[str, Tuple[np.ndarray, np.ndarray]], n_queries: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(row ids, query ids)`` of buffered records matching a batch.

        Takes the bound matrices the grids read and returns the stream they
        return (query-major, buffer order within a query);
        :func:`repro.core.results.merge_flat_row_ids` turns it into the
        sorted per-query results of :meth:`scan`.
        """
        qids, positions = self._match_blocks(bounds, n_queries)
        return self._row_ids[positions], qids

    def fold_aggregate_batch(
        self,
        bounds: Dict[str, Tuple[np.ndarray, np.ndarray]],
        n_queries: int,
        spec: Aggregate,
        partial: AggregatePartial,
    ) -> None:
        """Fold buffered rows matching each query into ``partial`` in place.

        The executor-aware sibling of :meth:`scan_batch`: the same blocked
        broadcast match, but the matching rows are folded straight into the
        caller's per-query accumulators — their row ids are never gathered,
        keeping the aggregate path materialization-free end to end.
        ``partial`` must have one slot per query.
        """
        qids, positions = self._match_blocks(bounds, n_queries)
        partial.fold_values(qids, self._buffers[spec.column][positions] if spec.column else None)

    def knn_candidates(
        self, point: Mapping[str, float], k: int, metric: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k ``(distance key, row id)`` candidates among the pending rows.

        Mergeable with the main-structure candidates via
        :func:`repro.data.executors.merge_topk` (pending row ids are
        disjoint from compacted ones by construction).
        """
        if self._size == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        keys = point_distances(self.columns(), None, point, metric)
        return select_topk(keys, self._row_ids[: self._size], k)

    def topk_candidates(
        self, query: Rectangle, spec: TopK
    ) -> Tuple[np.ndarray, np.ndarray]:
        """By-column top-k candidates among pending rows matching ``query``."""
        if self._size == 0 or query.is_empty:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        mask = query.matches(self.columns())
        if not mask.any():
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        keys = self._buffers[spec.column][: self._size][mask].astype(np.float64)
        ids = self._row_ids[: self._size][mask]
        return select_topk(keys, ids, spec.k, largest=spec.largest)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, np.ndarray]:
        """Copies of the active buffer state, keyed for an ``.npz`` archive."""
        payload = {f"column::{name}": self.column(name).copy() for name in self._schema}
        payload["__row_ids__"] = self.row_ids.copy()
        payload["__inlier__"] = self.inlier_mask.copy()
        for name in self._model_names:
            payload[f"model::{name}"] = self.model_mask(name).copy()
        return payload

    def load_state(self, payload: Mapping[str, np.ndarray]) -> None:
        """Inverse of :meth:`state`; replaces the current buffer contents.

        The stored routing mask is trusted as-is.  When the payload also
        carries the per-model masks (format v3 state) they are restored
        verbatim and no FD model is evaluated; older payloads without them
        fall back to one re-derivation pass.
        """
        row_ids = np.asarray(payload["__row_ids__"], dtype=np.int64)
        inlier = np.asarray(payload["__inlier__"], dtype=bool)
        columns = {
            # repro-lint: allow[materialize] the delta store is the heap-owned mutable side by design, bounded by the compaction trigger; restore normalizes dtype once
            name: np.asarray(payload[f"column::{name}"], dtype=np.float64)
            for name in self._schema
        }
        model_masks: Optional[Dict[str, np.ndarray]] = {
            name: np.asarray(payload[f"model::{name}"], dtype=bool)
            for name in self._model_names
            if f"model::{name}" in payload
        }
        if len(model_masks) != len(self._model_names):
            model_masks = None
        self.clear()
        self.append_batch(columns, row_ids, inlier_mask=inlier, model_masks=model_masks)
