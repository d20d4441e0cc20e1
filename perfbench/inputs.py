"""Seeded workload inputs, made outside every timed phase.

``repro.generate_knn_queries`` scans the whole table per query (about
55 ms at a million rows), so a fresh query set per run would take
minutes.  The rectangles here are built the same way — the bounding box
of an anchor row's nearest neighbours in column-standardised space — but
the neighbours are searched in a seeded sample of the table, with ``k``
scaled to the sample so that the boxes keep the selectivity of a
full-table search.  Everything is a pure function of the seed.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import Interval, Rectangle


def matrix_of(columns: Mapping[str, np.ndarray], dims: Sequence[str]) -> np.ndarray:
    return np.column_stack([np.asarray(columns[d], dtype=np.float64) for d in dims])


def knn_boxes(
    matrix: np.ndarray,
    rng: np.random.Generator,
    n_queries: int,
    k_full: int,
    *,
    sample: int = 32768,
    anchor_pool: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lows, highs)`` of ``n_queries`` nearest-neighbour boxes.

    ``k_full`` is the neighbour count the box would have over the whole
    table; the sample search uses ``k_full * sample / rows`` (at least 2).
    Anchors are sample rows, drawn from ``anchor_pool`` (row positions)
    when one is given, which is how a workload skews its traffic.
    """
    n_rows = len(matrix)
    picked = np.sort(rng.choice(n_rows, size=min(sample, n_rows), replace=False))
    points = matrix[picked]
    scales = points.std(axis=0)
    scales[scales == 0.0] = 1.0
    z = points / scales
    norms = np.einsum("ij,ij->i", z, z)
    if anchor_pool is None:
        anchors = rng.integers(0, len(points), size=n_queries)
    else:
        eligible = np.flatnonzero(np.isin(picked, anchor_pool))
        anchors = eligible[rng.integers(0, len(eligible), size=n_queries)]
    k = max(2, int(round(k_full * len(points) / n_rows)))
    lows = np.empty((n_queries, matrix.shape[1]))
    highs = np.empty_like(lows)
    for start in range(0, n_queries, 64):
        chunk = anchors[start : start + 64]
        dist = norms[None, :] + norms[chunk, None] - 2.0 * (z[chunk] @ z.T)
        nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
        block = points[nearest]
        lows[start : start + len(chunk)] = block.min(axis=1)
        highs[start : start + len(chunk)] = block.max(axis=1)
    return lows, highs


def rectangles(lows: np.ndarray, highs: np.ndarray, dims: Sequence[str]) -> List[Rectangle]:
    return [
        Rectangle({d: Interval(float(lo[j]), float(hi[j])) for j, d in enumerate(dims)})
        for lo, hi in zip(lows, highs)
    ]
