"""Grid bucketing of a data sample (the training-set construction of Algorithm 1).

To keep soft-FD detection cheap, COAX does not regress over the full key
set.  It draws a sample, overlays a two-dimensional grid on each candidate
attribute pair, discards sparse cells, and uses the centres of the dense
cells — weighted by their counts — as the regression training set
(Section 5, Figure 3).  Keeping the populated grid around also lets new
records be absorbed later without rebuilding it from scratch, which is how
the paper argues updates can be supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["BucketingConfig", "BucketGrid", "build_training_set"]


@dataclass(frozen=True)
class BucketingConfig:
    """Tuning knobs of Algorithm 1's sampling and bucketing step."""

    #: Number of records sampled from the dataset (``sample_count``).
    sample_count: int = 20_000
    #: Number of grid divisions per axis (``bucket_chunks``).
    bucket_chunks: int = 64
    #: Minimum record count for a cell to contribute training points
    #: (``threshold``).  Expressed as an absolute count.
    cell_threshold: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_count <= 0:
            raise ValueError("sample_count must be positive")
        if self.bucket_chunks < 2:
            raise ValueError("bucket_chunks must be at least 2")
        if self.cell_threshold < 1:
            raise ValueError("cell_threshold must be at least 1")


class BucketGrid:
    """A two-dimensional count grid over an (x, y) attribute pair.

    The grid is built once from a sample and can absorb more records later
    (:meth:`insert`), which keeps the training structure usable when the
    underlying table grows.
    """

    def __init__(
        self,
        x_edges: np.ndarray,
        y_edges: np.ndarray,
    ) -> None:
        x_edges = np.asarray(x_edges, dtype=np.float64)
        y_edges = np.asarray(y_edges, dtype=np.float64)
        if len(x_edges) < 2 or len(y_edges) < 2:
            raise ValueError("grids need at least one cell per axis")
        self._x_edges = x_edges
        self._y_edges = y_edges
        self._counts = np.zeros((len(x_edges) - 1, len(y_edges) - 1), dtype=np.int64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sample(cls, x: np.ndarray, y: np.ndarray, bucket_chunks: int) -> "BucketGrid":
        """Grid spanning the sample range with ``bucket_chunks`` cells per axis."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        x_edges = _edges(x, bucket_chunks)
        y_edges = _edges(y, bucket_chunks)
        grid = cls(x_edges, y_edges)
        grid.insert(x, y)
        return grid

    def insert(self, x: np.ndarray, y: np.ndarray) -> None:
        """Add records to the counts (values outside the range clamp to edge cells)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError("x and y must have the same length")
        if len(x) == 0:
            return
        xi = np.clip(np.searchsorted(self._x_edges, x, side="right") - 1, 0, self.shape[0] - 1)
        yi = np.clip(np.searchsorted(self._y_edges, y, side="right") - 1, 0, self.shape[1] - 1)
        np.add.at(self._counts, (xi, yi), 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """(cells along x, cells along y)."""
        return self._counts.shape  # type: ignore[return-value]

    @property
    def counts(self) -> np.ndarray:
        """The raw per-cell counts (not a copy)."""
        return self._counts

    @property
    def total_count(self) -> int:
        """Number of records absorbed so far."""
        return int(self._counts.sum())

    def cell_centres(self) -> Tuple[np.ndarray, np.ndarray]:
        """Midpoints of the cells along x and along y."""
        x_mid = (self._x_edges[:-1] + self._x_edges[1:]) / 2.0
        y_mid = (self._y_edges[:-1] + self._y_edges[1:]) / 2.0
        return x_mid, y_mid

    def dense_cell_centres(self, threshold: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centres and counts of cells whose count exceeds ``threshold``.

        Returns ``(x_centres, y_centres, weights)`` — the weighted training
        set of Algorithm 1 (each dense cell contributes its centre once with
        weight equal to its count, which is equivalent to repeating it
        ``count`` times as the pseudo-code does, but cheaper).
        """
        dense = np.argwhere(self._counts > threshold)
        if len(dense) == 0:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
        x_mid, y_mid = self.cell_centres()
        weights = self._counts[dense[:, 0], dense[:, 1]].astype(np.float64)
        return x_mid[dense[:, 0]], y_mid[dense[:, 1]], weights

    def memory_bytes(self) -> int:
        """Bytes used by the counts and the edge arrays."""
        return int(self._counts.nbytes + self._x_edges.nbytes + self._y_edges.nbytes)


def build_training_set(
    x: np.ndarray,
    y: np.ndarray,
    config: BucketingConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, BucketGrid]:
    """Run the sampling + bucketing step of Algorithm 1 for one attribute pair.

    Returns ``(x_train, y_train, weights, grid)`` where the training points
    are dense-cell centres weighted by their counts.  When no cell reaches
    the threshold (tiny or extremely scattered samples), the raw sample is
    returned unweighted so the caller can still attempt a fit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional arrays of equal length")
    n = len(x)
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty, empty, BucketGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    sample_size = min(config.sample_count, n)
    if sample_size < n:
        sample_ids = rng.choice(n, size=sample_size, replace=False)
        x_sample, y_sample = x[sample_ids], y[sample_ids]
    else:
        x_sample, y_sample = x, y
    grid = BucketGrid.from_sample(x_sample, y_sample, config.bucket_chunks)
    x_train, y_train, weights = grid.dense_cell_centres(config.cell_threshold)
    if len(x_train) < 2:
        # Not enough dense structure; fall back to the raw sample.
        return x_sample, y_sample, np.ones_like(x_sample), grid
    return x_train, y_train, weights, grid


def _edges(values: np.ndarray, bucket_chunks: int) -> np.ndarray:
    """Equi-width edges spanning the sample (Algorithm 1 uses max/chunks widths)."""
    if len(values) == 0:
        return np.linspace(0.0, 1.0, bucket_chunks + 1)
    low = float(values.min())
    high = float(values.max())
    if high <= low:
        high = low + 1.0
    return np.linspace(low, high, bucket_chunks + 1)
