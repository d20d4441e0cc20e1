"""Query results and result merging.

COAX answers a query by running it (translated) against the primary index
and (untranslated) against the outlier index, then merging the two result
sets (Figure 1, "Merged output").  Because both sub-indexes report original
row ids and cover disjoint row sets, the merge is a simple concatenation;
:func:`merge_row_ids` still de-duplicates defensively so the invariant is
enforced rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

import numpy as np

__all__ = [
    "QueryResult",
    "merge_row_ids",
    "merge_flat_row_ids",
    "merge_row_ids_batch",
    "split_counter_evenly",
]


def split_counter_evenly(total: Union[int, Sequence[int]], n_parts: int) -> np.ndarray:
    """Split an integer work counter into ``n_parts`` shares, sum-preserving.

    The attribution primitive of the flat batch path: the batch kernels
    account their work (rows examined, cells visited) once per sub-batch,
    so a per-query breakdown has to *divide* those deltas.  The split is
    even with largest-remainder rounding — ``out.sum() == total`` exactly,
    so per-query stats aggregated back always reproduce the batch-global
    counters instead of drifting by rounding.  ``total`` may also be an
    array of counters; each is split the same way (shape ``total.shape +
    (n_parts,)``).
    """
    base, remainder = np.divmod(np.asarray(total, dtype=np.int64), max(n_parts, 1))
    shares = base[..., None] + (np.arange(max(n_parts, 0)) < remainder[..., None])
    return shares.astype(np.int64, copy=False)


def merge_row_ids(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted union of several row-id arrays."""
    non_empty = [np.asarray(part, dtype=np.int64) for part in parts if len(part)]
    if not non_empty:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(non_empty))


def merge_flat_row_ids(
    ids: np.ndarray, qids: np.ndarray, n_queries: int
) -> List[np.ndarray]:
    """Per-query sorted unions of a flat ``(row id, query id)`` stream.

    ``ids[j]`` is a result row id belonging to query ``qids[j]`` (in any
    order, with duplicates).  Output ``i`` is the sorted de-duplicated row
    ids of query ``i`` — identical to :func:`merge_row_ids` over that
    query's fragments — computed for the whole batch with *one* sort: row
    and query id are fused into a single integer key where the value ranges
    allow it (one ``np.sort``, no indirection), falling back to a stable
    ``lexsort`` otherwise.
    """
    empty = np.empty(0, dtype=np.int64)
    total = len(ids)
    if total == 0:
        return [empty for _ in range(n_queries)]
    ids = np.asarray(ids, dtype=np.int64)
    qids = np.asarray(qids, dtype=np.int64)
    if total == 1:
        # One row id (the common point lookup) is its query's whole result.
        merged = [empty for _ in range(n_queries)]
        merged[int(qids[0])] = ids
        return merged
    id_span = int(ids.max()) + 1
    if id_span * n_queries < (1 << 62) - 1 and int(ids.min()) >= 0:
        keys = qids * id_span
        keys += ids
        keys.sort()
        keep = np.empty(total, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        out_qids, out_ids = np.divmod(keys[keep], id_span)
    else:  # pragma: no cover - needs >2^62 fused key space
        order = np.lexsort((ids, qids))
        ids = ids[order]
        qids = qids[order]
        keep = np.ones(total, dtype=bool)
        keep[1:] = (ids[1:] != ids[:-1]) | (qids[1:] != qids[:-1])
        out_ids = ids[keep]
        out_qids = qids[keep]
    counts = np.bincount(out_qids, minlength=n_queries)
    ends = counts.cumsum()
    return [out_ids[end - count : end] for count, end in zip(counts, ends)]


def merge_row_ids_batch(parts_per_query: Sequence[Sequence[np.ndarray]]) -> List[np.ndarray]:
    """Per-query sorted unions for a whole batch in one vectorized pass.

    ``parts_per_query[i]`` holds the result fragments (primary, outlier,
    pending, ...) of query ``i``.  Instead of one ``np.unique`` dispatch per
    query, all fragments are flattened into one ``(row id, query id)``
    stream and merged by :func:`merge_flat_row_ids` with a single sort;
    each output is identical to ``merge_row_ids`` of that query's
    fragments.
    """
    n_queries = len(parts_per_query)
    lengths = np.array(
        [sum(len(part) for part in parts) for parts in parts_per_query], dtype=np.int64
    )
    if int(lengths.sum()) == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n_queries)]
    ids = np.concatenate(
        [np.asarray(part, dtype=np.int64) for parts in parts_per_query for part in parts]
    )
    qids = np.repeat(np.arange(n_queries, dtype=np.int64), lengths)
    return merge_flat_row_ids(ids, qids, n_queries)


@dataclass
class QueryResult:
    """Merged result of one COAX query with per-sub-index attribution."""

    row_ids: np.ndarray
    primary_row_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    outlier_row_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    pending_row_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Which sub-indexes the planner decided to touch.
    indexes_used: Dict[str, bool] = field(default_factory=dict)

    @property
    def n_results(self) -> int:
        """Number of matching records."""
        return int(len(self.row_ids))

    @property
    def primary_share(self) -> float:
        """Fraction of results that came from the primary index."""
        return len(self.primary_row_ids) / self.n_results if self.n_results else 0.0
