"""Query planning: which sub-indexes does a query need to touch?

Section 8.2.3: "We can check whether the query intersects with the primary,
the outlier, or both indexes; and run it against the appropriate indexes."
The planner performs exactly that pruning, as masks over a columnar query
batch (:meth:`repro.core.coax.COAXIndex._plan_batch` for one index, the
sharded engine's ``_plan_batch`` for every shard at once):

* the primary index can be skipped when the translated predictor constraint
  of some FD group is empty (no inlier can match) or when the translated
  rectangle misses the bounding box of the inlier set;
* the outlier index can be skipped when it is empty or the query misses the
  bounding box of the outlier set.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.query_translation import BoundsMap

__all__ = [
    "batch_overlaps_boxes",
    "bounding_box_of_columns",
    "box_overlaps",
    "merge_boxes",
]


def bounding_box_of_columns(
    columns: Mapping[str, np.ndarray]
) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
    """(mins, maxs) per attribute over the rows of ``columns`` (one array
    per attribute, all of one length), or ``None`` if there are no rows."""
    if not columns or len(next(iter(columns.values()))) == 0:
        return None
    lows: Dict[str, float] = {}
    highs: Dict[str, float] = {}
    for name, values in columns.items():
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


def box_overlaps(queries: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """``(..., n_queries)`` mask: does each query's rectangle meet each box?

    ``queries`` holds a batch's lows and highs stacked per dimension
    (``(..., dims, 2, n_queries)``) and ``boxes`` box lows and highs over
    the same dimensions (``(..., 2, dims)``); leading axes broadcast.  A box
    side of ``-inf``/``inf`` never misses, and NaN compares as
    overlapping, so pruning stays conservative.
    """
    misses = (queries[..., 1, :] < boxes[..., 0, :, None]) | (
        queries[..., 0, :] > boxes[..., 1, :, None]
    )
    return ~np.logical_or.reduce(misses, axis=-2)


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
    queries = np.array([side for dim in dims for side in bounds[dim]])
    return box_overlaps(
        queries.reshape(len(dims), 2, n_queries), stacked.reshape(len(boxes), 2, len(dims))
    )
