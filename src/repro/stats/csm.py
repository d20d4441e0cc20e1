"""Centre-Sequence Model (CSM) of Appendix B.

The CSM represents a two-dimensional dataset (predictor attribute X,
dependent attribute Y) as an equally-spaced sequence of interval centres:
the X axis is split into ``n`` intervals of equal width and each interval is
replaced by the mean Y value of the records falling into it.  The resulting
``(i, y_i)`` sequence is treated as a random walk with i.i.d. gaps, which is
what the stochastic analysis of Section 7 (Theorems 7.1-7.4) operates on.

This module provides:

* :func:`build_centre_sequence` — construct the CSM representation of data;
* :func:`segment_stream` — greedy segmentation of a gap stream with a fixed
  margin, used to validate Theorems 7.1, 7.3 and 7.4 empirically;
* :func:`simulate_gap_stream` — generate synthetic gap streams with chosen
  mean and variance for the theory-validation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = [
    "CentreSequence",
    "build_centre_sequence",
    "segment_stream",
    "simulate_gap_stream",
]


@dataclass(frozen=True)
class CentreSequence:
    """CSM representation of a two-dimensional dataset.

    ``positions`` are the X-axis interval midpoints; ``centres`` are the mean
    Y values per interval; ``counts`` the number of original records per
    interval.  Empty intervals are dropped (the skewed-data caveat of
    Figure 10), so the three arrays always have equal length.
    """

    positions: np.ndarray
    centres: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.positions) == len(self.centres) == len(self.counts)):
            raise ValueError("positions, centres and counts must have equal length")

    @property
    def n_intervals(self) -> int:
        """Number of non-empty intervals."""
        return len(self.positions)

    @property
    def gaps(self) -> np.ndarray:
        """First differences of the centre values (the random-walk increments)."""
        if len(self.centres) < 2:
            return np.empty(0, dtype=np.float64)
        return np.diff(self.centres)


def build_centre_sequence(
    x: np.ndarray,
    y: np.ndarray,
    n_intervals: int,
) -> CentreSequence:
    """Construct the CSM representation of ``(x, y)`` with ``n_intervals`` splits."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional arrays of equal length")
    if n_intervals < 1:
        raise ValueError("n_intervals must be at least 1")
    if len(x) == 0:
        empty = np.empty(0, dtype=np.float64)
        return CentreSequence(empty, empty, empty.astype(np.int64))
    low = float(x.min())
    high = float(x.max())
    if high <= low:
        return CentreSequence(
            np.array([low]), np.array([float(y.mean())]), np.array([len(x)], dtype=np.int64)
        )
    boundaries = np.linspace(low, high, n_intervals + 1)
    # Assign each record to an interval; the topmost boundary is inclusive.
    cell = np.clip(np.searchsorted(boundaries, x, side="right") - 1, 0, n_intervals - 1)
    sums = np.bincount(cell, weights=y, minlength=n_intervals)
    counts = np.bincount(cell, minlength=n_intervals)
    non_empty = counts > 0
    midpoints = (boundaries[:-1] + boundaries[1:]) / 2.0
    centres = np.zeros(n_intervals, dtype=np.float64)
    centres[non_empty] = sums[non_empty] / counts[non_empty]
    return CentreSequence(
        positions=midpoints[non_empty],
        centres=centres[non_empty],
        counts=counts[non_empty].astype(np.int64),
    )


def simulate_gap_stream(
    n: int,
    mean: float,
    std: float,
    rng: np.random.Generator,
    *,
    distribution: str = "normal",
) -> np.ndarray:
    """Synthetic i.i.d. gap stream with the requested mean and deviation.

    Used by the theory benchmarks to validate Theorems 7.1-7.4 under the
    exact assumptions of the stochastic analysis (i.i.d. gaps, sigma << eps).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if distribution == "normal":
        return rng.normal(mean, std, size=n)
    if distribution == "uniform":
        half_width = std * np.sqrt(3.0)
        return rng.uniform(mean - half_width, mean + half_width, size=n)
    if distribution == "exponential":
        # Shift an exponential so that both the mean and the std match.
        return mean - std + rng.exponential(std, size=n)
    raise ValueError(f"unknown distribution {distribution!r}")


def segment_stream(
    gaps: np.ndarray,
    epsilon: float,
    *,
    slope: Optional[float] = None,
) -> List[int]:
    """Greedy segmentation of a gap stream with margin ``epsilon``.

    Starting at position 0, a linear segment with the given ``slope``
    (defaulting to the gap mean, the optimum of Theorem 7.2) covers keys
    until the cumulative deviation ``|sum(gaps) - slope * i|`` first exceeds
    ``epsilon`` — the First Exit Time of the transformed random walk Z_i.
    A new segment then starts at that key.  Returns the list of segment
    lengths (number of keys covered by each segment).
    """
    gaps = np.asarray(gaps, dtype=np.float64)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(gaps) == 0:
        return []
    a = float(gaps.mean()) if slope is None else float(slope)
    lengths: List[int] = []
    deviation = 0.0
    current_length = 0
    for gap in gaps:
        deviation += gap - a
        current_length += 1
        if abs(deviation) > epsilon:
            lengths.append(current_length)
            deviation = 0.0
            current_length = 0
    if current_length:
        lengths.append(current_length)
    return lengths
