"""Query planning: which sub-indexes does a query need to touch?

Section 8.2.3: "We can check whether the query intersects with the primary,
the outlier, or both indexes; and run it against the appropriate indexes."
The planner performs exactly that pruning:

* the primary index can be skipped when the translated predictor constraint
  of some FD group is empty (no inlier can match) or when the query
  rectangle misses the bounding box of the inlier set;
* the outlier index can be skipped when it is empty or the query misses the
  bounding box of the outlier set.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.data.predicates import Rectangle
from repro.data.table import Table
from repro.core.query_translation import (
    BoundsMap,
    translate_query,
    translated_predictor_interval,
)
from repro.fd.groups import FDGroup

__all__ = [
    "QueryPlan",
    "plan_query",
    "plan_query_flags",
    "batch_overlaps_box",
    "batch_overlaps_boxes",
    "bounding_box_of_rows",
    "merge_boxes",
]


@dataclass(frozen=True)
class QueryPlan:
    """Planning decision for one query."""

    #: Query to run against the primary index (already translated).
    primary_query: Rectangle
    #: Query to run against the outlier index (the original query).
    outlier_query: Rectangle
    use_primary: bool
    use_outlier: bool
    #: Why each sub-index was skipped (empty when it is used).
    skip_reasons: Dict[str, str]


def bounding_box_of_rows(
    table: Table, row_ids: np.ndarray
) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
    """(mins, maxs) per attribute over the given rows, or ``None`` if empty."""
    if len(row_ids) == 0:
        return None
    lows: Dict[str, float] = {}
    highs: Dict[str, float] = {}
    for name in table.schema:
        values = table.column(name)[row_ids]
        lows[name] = float(values.min())
        highs[name] = float(values.max())
    return lows, highs


def merge_boxes(
    left: Optional[Tuple[Dict[str, float], Dict[str, float]]],
    right: Optional[Tuple[Dict[str, float], Dict[str, float]]],
) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
    """Smallest box containing both operands (``None`` means an empty set).

    Used by incremental compaction: the box of the combined row set is the
    hull of the old box and the box of the absorbed batch, so no O(n)
    rescan of the main data is needed.
    """
    if left is None:
        return right
    if right is None:
        return left
    lows = {name: min(left[0][name], right[0][name]) for name in left[0]}
    highs = {name: max(left[1][name], right[1][name]) for name in left[1]}
    return lows, highs


def plan_query(
    query: Rectangle,
    groups: Sequence[FDGroup],
    *,
    primary_box: Optional[Tuple[Dict[str, float], Dict[str, float]]] = None,
    outlier_box: Optional[Tuple[Dict[str, float], Dict[str, float]]] = None,
) -> QueryPlan:
    """Build the query plan for one rectangle.

    ``primary_box`` and ``outlier_box`` are the bounding boxes of the two row
    sets (``None`` means the corresponding set is empty).
    """
    skip_reasons: Dict[str, str] = {}

    translated = translate_query(query, groups)
    use_primary = True
    if primary_box is None:
        use_primary = False
        skip_reasons["primary"] = "primary index is empty"
    elif translated.is_empty or any(
        translated_predictor_interval(query, group).is_empty for group in groups
    ):
        use_primary = False
        skip_reasons["primary"] = "translated constraint is empty (no inlier can match)"
    elif not translated.overlaps_box(primary_box[0], primary_box[1]):
        use_primary = False
        skip_reasons["primary"] = "query misses the primary bounding box"

    use_outlier = True
    if outlier_box is None:
        use_outlier = False
        skip_reasons["outlier"] = "outlier index is empty"
    elif query.is_empty:
        use_outlier = False
        skip_reasons["outlier"] = "query is empty"
    elif not query.overlaps_box(outlier_box[0], outlier_box[1]):
        use_outlier = False
        skip_reasons["outlier"] = "query misses the outlier bounding box"

    return QueryPlan(
        primary_query=translated,
        outlier_query=query,
        use_primary=use_primary,
        use_outlier=use_outlier,
        skip_reasons=skip_reasons,
    )


def _batch_empty(bounds: BoundsMap, n_queries: int) -> np.ndarray:
    """Mask of queries with some empty constraint in a columnar batch."""
    empty = np.zeros(n_queries, dtype=bool)
    for lows, highs in bounds.values():
        empty |= lows > highs
    return empty


def batch_overlaps_boxes(
    bounds: BoundsMap,
    n_queries: int,
    boxes: Sequence[Optional[Tuple[Dict[str, float], Dict[str, float]]]],
) -> np.ndarray:
    """``(len(boxes), n_queries)`` mask: does query ``j`` intersect box ``i``?

    The vectorized counterpart of :meth:`Rectangle.overlaps_box` for many
    boxes at once — the sharded engine prunes every shard of a batch with
    one broadcast over the stacked box bounds.  A ``None`` box (an empty
    row set) overlaps nothing; a dimension a box does not carry does not
    constrain, and NaN box bounds (dead slots in a partially reclaimed
    shard) compare as overlapping, so pruning stays conservative.
    """
    present = [i for i, box in enumerate(boxes) if box is not None]
    if len(present) < len(boxes):
        overlaps = np.zeros((len(boxes), n_queries), dtype=bool)
        if present:
            overlaps[present] = batch_overlaps_boxes(
                bounds, n_queries, [boxes[i] for i in present]
            )
        return overlaps
    dims = list(bounds)
    if not boxes or not dims:
        return np.ones((len(boxes), n_queries), dtype=bool)
    # (boxes, low/high, dims) against (dims, low/high, queries).  One
    # itemgetter per box side is the fast form; a box lacking a queried
    # dimension raises KeyError and takes the per-dimension form, in which
    # that dimension spans (-inf, inf) and so never misses.
    pick = itemgetter(*dims) if len(dims) > 1 else (lambda box: (box[dims[0]],))
    try:
        stacked = np.array(
            [value for lows, highs in boxes for value in pick(lows) + pick(highs)],
            dtype=np.float64,
        )
    except KeyError:
        stacked = np.array(
            [
                (
                    [box_lows.get(dim, -np.inf) for dim in dims],
                    [box_highs[dim] if dim in box_lows else np.inf for dim in dims],
                )
                for box_lows, box_highs in boxes
            ],
            dtype=np.float64,
        )
    stacked = stacked.reshape(len(boxes), 2, len(dims), 1)
    queries = np.array([side for dim in dims for side in bounds[dim]]).reshape(
        len(dims), 2, n_queries
    )
    misses = (queries[:, 1] < stacked[:, 0]) | (queries[:, 0] > stacked[:, 1])
    return ~np.logical_or.reduce(misses, axis=1)


def batch_overlaps_box(
    bounds: BoundsMap,
    n_queries: int,
    box: Optional[Tuple[Dict[str, float], Dict[str, float]]],
) -> np.ndarray:
    """Mask of queries whose rectangle intersects one axis-aligned box
    (the single-box form of :func:`batch_overlaps_boxes`)."""
    return batch_overlaps_boxes(bounds, n_queries, [box])[0]


def plan_query_flags(
    bounds: BoundsMap,
    translated_bounds: BoundsMap,
    no_inlier: np.ndarray,
    n_queries: int,
    *,
    primary_box: Optional[Tuple[Dict[str, float], Dict[str, float]]] = None,
    outlier_box: Optional[Tuple[Dict[str, float], Dict[str, float]]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized sub-index routing for a columnar query batch.

    ``bounds`` / ``translated_bounds`` are the original and translated
    per-attribute bound matrices (see
    :func:`repro.core.query_translation.translate_bounds_batch`, which also
    produces ``no_inlier``).  Returns ``(use_primary, use_outlier)`` masks,
    decision-identical to :func:`plan_query` per query — the same empty /
    no-inlier / bounding-box pruning evaluated as whole-batch array ops.
    """
    use_primary = batch_overlaps_box(translated_bounds, n_queries, primary_box)
    use_primary &= ~(
        _batch_empty(translated_bounds, n_queries) | np.asarray(no_inlier, dtype=bool)
    )
    use_outlier = batch_overlaps_box(bounds, n_queries, outlier_box)
    use_outlier &= ~_batch_empty(bounds, n_queries)
    return use_primary, use_outlier
