"""Pluggable query executors: what a query *does* with its matching rows.

Every read path of the library used to hard-code one result shape — a
rectangle in, a materialized row-id array out.  The executor abstraction
splits "which rows match" from "what the query consumes":

* :class:`MaterializeIds` — the classic behaviour and the default: the
  result is the array of matching original row ids.
* :class:`Aggregate` — COUNT/SUM/MIN/MAX/AVG over a value column.  The
  index layers fold candidate runs into an :class:`AggregatePartial`
  (per-query count/sum/min/max accumulators) *without* materializing the
  matching row ids; compound indexes and the sharded engine merge
  partials component-wise, so an aggregate moves O(queries) accumulator
  data through the scatter-gather machinery instead of O(rows) ids.
* :class:`TopK` — either k-nearest-neighbour by L2/L∞ distance around a
  point (answered by expanding-ring search over the grid directory), or
  the k smallest/largest rows by a column within a rectangle.  Partial
  results are small ``(key, row_id)`` candidate sets merged with
  :func:`merge_topk`; ties always break toward the smaller row id.

The specs are declarative and layer-agnostic (NumPy only), which is why
they live next to :mod:`repro.data.predicates` rather than in
:mod:`repro.core`: both the index substrate and the engine/serve layers
import them without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "AGGREGATE_OPS",
    "METRIC_CHOICES",
    "MaterializeIds",
    "MATERIALIZE",
    "Aggregate",
    "TopK",
    "Executor",
    "executor_key",
    "AggregatePartial",
    "select_topk",
    "merge_topk",
    "point_distances",
]

#: Aggregate operations the :class:`Aggregate` executor supports.
AGGREGATE_OPS: Tuple[str, ...] = ("count", "sum", "min", "max", "avg")

#: Distance metrics the kNN mode of :class:`TopK` supports.
METRIC_CHOICES: Tuple[str, ...] = ("l2", "linf")


@dataclass(frozen=True)
class MaterializeIds:
    """Classic executor: the result is the matching row-id array itself."""

    kind = "materialize"


#: Shared default instance (the spec carries no state).
MATERIALIZE = MaterializeIds()


@dataclass(frozen=True)
class Aggregate:
    """Fold the matching rows of a rectangle into one scalar per query.

    ``op`` is one of :data:`AGGREGATE_OPS`.  ``column`` names the value
    column folded by SUM/MIN/MAX/AVG; COUNT needs no column.  Semantics
    over an empty match set: COUNT is 0, SUM is 0.0, MIN/MAX/AVG are NaN.
    """

    op: str
    column: Optional[str] = None

    kind = "aggregate"

    def __post_init__(self) -> None:
        if self.op not in AGGREGATE_OPS:
            raise ValueError(f"op must be one of {AGGREGATE_OPS}, got {self.op!r}")
        if self.op != "count" and self.column is None:
            raise ValueError(f"aggregate op {self.op!r} needs a value column")


@dataclass(frozen=True)
class TopK:
    """Top-k executor: kNN around a point, or k extremes by a column.

    Exactly one of ``point`` (kNN mode: the k nearest live rows by
    ``metric`` distance over the point's attributes) and ``column``
    (rectangle mode: the k smallest — or, with ``largest``, k biggest —
    matching rows by the column) must be given.  Result row ids are
    ordered by ``(key, row_id)``, so ties always break toward the
    smaller row id, which is what makes results reproducible across
    shardings and against the full-scan oracle.
    """

    k: int
    point: Optional[Mapping[str, float]] = field(default=None, hash=False)
    metric: str = "l2"
    column: Optional[str] = None
    largest: bool = False

    kind = "topk"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if (self.point is None) == (self.column is None):
            raise ValueError("exactly one of point (kNN) and column must be given")
        if self.metric not in METRIC_CHOICES:
            raise ValueError(
                f"metric must be one of {METRIC_CHOICES}, got {self.metric!r}"
            )

    @property
    def is_knn(self) -> bool:
        """True in kNN (point) mode, False in by-column rectangle mode."""
        return self.point is not None


#: Anything a query can carry as its consumer.
Executor = Union[MaterializeIds, Aggregate, TopK]


def executor_key(executor: Executor) -> Tuple:
    """Batch-compatibility key: queries with equal keys may share a batch.

    The coalescer groups queued queries by this key so one dispatched
    micro-batch runs a single executor kind end to end (the engine batch
    kernels take one spec per batch).  kNN points intentionally do not
    participate: a batch of kNN queries with different centers is still
    dispatched together and looped inside the engine.
    """
    kind = getattr(executor, "kind", "materialize")
    if kind == "aggregate":
        return ("aggregate", executor.op, executor.column)
    if kind == "topk":
        return ("topk", executor.k, executor.metric, executor.column, executor.largest)
    return ("materialize",)


class AggregatePartial:
    """Per-query aggregate accumulators — the unit the layers merge.

    Holds four parallel arrays over ``n`` queries: ``count`` (int64),
    ``total`` (float64 running sum), ``minimum``/``maximum`` (float64,
    identity ``+inf``/``-inf``).  Every partial covers a *disjoint* row
    subset (primary vs outlier vs delta, or per shard), so the merge is
    component-wise: counts and totals add, minima/maxima fold.

    COUNT/MIN/MAX merge exactly (integer addition respectively exact
    float min/max), which is why those ops are bit-identical across
    shardings and against the full-scan oracle.  SUM/AVG merge by float
    addition, so re-association across partials can differ from a single
    left-to-right sum in the last ulps — callers compare them with a
    float tolerance, never bit-for-bit.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(
        self,
        count: np.ndarray,
        total: np.ndarray,
        minimum: np.ndarray,
        maximum: np.ndarray,
    ) -> None:
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    @classmethod
    def identity(cls, n_queries: int) -> "AggregatePartial":
        """The empty accumulator over ``n_queries`` slots."""
        return cls(
            count=np.zeros(n_queries, dtype=np.int64),
            total=np.zeros(n_queries, dtype=np.float64),
            minimum=np.full(n_queries, np.inf, dtype=np.float64),
            maximum=np.full(n_queries, -np.inf, dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.count)

    def fold_values(self, qids: np.ndarray, values: Optional[np.ndarray]) -> None:
        """Fold one batch of matching rows, attributed to queries by ``qids``.

        ``values`` is the gathered value column of those rows (``None``
        for a column-less COUNT).  Count always accumulates; the value
        accumulators only when values are given.
        """
        if len(qids) == 0:
            return
        n = len(self.count)
        self.count += np.bincount(qids, minlength=n).astype(np.int64)
        if values is None:
            return
        self.total += np.bincount(qids, weights=values, minlength=n)
        np.minimum.at(self.minimum, qids, values)
        np.maximum.at(self.maximum, qids, values)

    def add_run_counts(self, qids: np.ndarray, lengths: np.ndarray) -> None:
        """Fold covered candidate runs by length alone — the COUNT pushdown."""
        if len(qids) == 0:
            return
        self.count += np.bincount(
            qids, weights=lengths, minlength=len(self.count)
        ).astype(np.int64)

    def add_run_totals(self, qids: np.ndarray, totals: np.ndarray) -> None:
        """Fold per-run sums (from a prefix-sum cache) — the SUM pushdown."""
        if len(qids) == 0:
            return
        self.total += np.bincount(qids, weights=totals, minlength=len(self.count))

    def merge(self, other: "AggregatePartial") -> "AggregatePartial":
        """Component-wise merge of an equal-length partial; returns ``self``."""
        self.count += other.count
        self.total += other.total
        np.minimum(self.minimum, other.minimum, out=self.minimum)
        np.maximum(self.maximum, other.maximum, out=self.maximum)
        return self

    def merge_at(self, slots: np.ndarray, other: "AggregatePartial") -> None:
        """Merge a partial covering the query subset ``slots`` into ``self``.

        The scatter-gather form: a shard that executed queries
        ``slots[i]`` hands back a dense partial of ``len(slots)`` rows;
        slots are unique per shard, so plain fancy-indexed accumulation
        is exact.
        """
        if len(slots) == 0:
            return
        self.count[slots] += other.count
        self.total[slots] += other.total
        np.minimum.at(self.minimum, slots, other.minimum)
        np.maximum.at(self.maximum, slots, other.maximum)

    def finalize(self, spec: Aggregate) -> np.ndarray:
        """Per-query results of ``spec`` (int64 for COUNT, float64 otherwise).

        Empty-match semantics: COUNT 0, SUM 0.0, MIN/MAX/AVG NaN.
        """
        if spec.op == "count":
            return self.count.astype(np.int64)
        empty = self.count == 0
        if spec.op == "sum":
            return np.where(empty, 0.0, self.total)
        if spec.op == "min":
            return np.where(empty, np.nan, self.minimum)
        if spec.op == "max":
            return np.where(empty, np.nan, self.maximum)
        return np.where(empty, np.nan, self.total / np.maximum(self.count, 1))


def select_topk(
    keys: np.ndarray, ids: np.ndarray, k: int, *, largest: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """The k best ``(key, id)`` pairs, ordered by ``(key, id)``.

    "Best" means smallest keys (or biggest with ``largest``); equal keys
    order by ascending row id, the library-wide tie-break.  Large
    candidate sets are pre-narrowed with ``argpartition`` so the exact
    ``lexsort`` only touches ~k survivors.
    """
    keys = np.asarray(keys, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    sort_keys = -keys if largest else keys
    if len(keys) > 4 * k:
        # argpartition gives an unordered k-prefix by key alone; widening
        # the cut to every candidate tied with the kth key keeps the
        # id tie-break exact before the final sort truncates to k.
        cut = np.argpartition(sort_keys, k - 1)
        threshold = sort_keys[cut[k - 1]]
        keep = np.flatnonzero(sort_keys <= threshold)
        sort_keys = sort_keys[keep]
        ids = ids[keep]
        keys = keys[keep]
    order = np.lexsort((ids, sort_keys))[:k]
    return keys[order], ids[order]


def merge_topk(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]], k: int, *, largest: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-sub-index/per-shard top-k candidate sets into one top-k.

    Each part is a ``(keys, ids)`` pair over a disjoint row subset;
    concatenating and re-selecting is exact because every global top-k
    row is necessarily in its own part's top-k.
    """
    parts = [part for part in parts if part is not None and len(part[1])]
    if not parts:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    keys = np.concatenate([part[0] for part in parts])
    ids = np.concatenate([part[1] for part in parts])
    return select_topk(keys, ids, k, largest=largest)


def point_distances(
    columns: Mapping[str, np.ndarray],
    positions: Optional[np.ndarray],
    point: Mapping[str, float],
    metric: str,
) -> np.ndarray:
    """Distance keys from ``point`` to the rows at ``positions``.

    ``None`` positions means every row.  Keys are *monotone* in the true
    distance — squared distance for L2, max absolute difference for L∞ —
    which is all ordering and tie-breaking need; callers comparing a key
    against a geometric gap must square the gap first for L2
    (:class:`TopK` never exposes the keys themselves).
    """
    keys: Optional[np.ndarray] = None
    for dim, target in point.items():
        column = columns[dim]
        values = column if positions is None else column[positions]
        diff = values - float(target)
        if metric == "l2":
            contribution = diff * diff
        else:
            contribution = np.abs(diff)
        if keys is None:
            keys = contribution
        elif metric == "l2":
            keys = keys + contribution
        else:
            np.maximum(keys, contribution, out=keys)
    if keys is None:
        n = len(next(iter(columns.values()))) if positions is None else len(positions)
        return np.zeros(n, dtype=np.float64)
    return keys.astype(np.float64, copy=False)
