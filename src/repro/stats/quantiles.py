"""Quantile helpers shared by the grid-based indexes.

The paper's index implementation chooses grid-cell boundaries "based on
quantiles along each dimension" (Section 6), and the Column Files baseline
"uses the CDF of the data to align/arrange its cell boundaries"
(Section 8.1.3).  Both rely on the utilities in this module.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantile_boundaries", "uniform_boundaries"]


def quantile_boundaries(values: np.ndarray, n_cells: int) -> np.ndarray:
    """Cell boundaries that split ``values`` into ``n_cells`` equal-count cells.

    Returns an increasing array of ``n_cells + 1`` boundaries whose first and
    last entries are the data minimum and maximum.  Duplicate quantiles (from
    heavily repeated values) are de-duplicated by nudging, so the boundaries
    are always strictly increasing and usable with ``np.searchsorted``.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.linspace(0.0, 1.0, n_cells + 1)
    probs = np.linspace(0.0, 1.0, n_cells + 1)
    boundaries = np.quantile(values, probs)
    low, high = boundaries[0], boundaries[-1]
    if high <= low:
        high = low + 1.0
        return np.linspace(low, high, n_cells + 1)
    # Enforce strict monotonicity: any flat run gets spread by a tiny epsilon
    # relative to the column span so searchsorted still partitions the data.
    epsilon = (high - low) * 1e-12
    for i in range(1, len(boundaries)):
        if boundaries[i] <= boundaries[i - 1]:
            boundaries[i] = boundaries[i - 1] + epsilon
    boundaries[-1] = max(boundaries[-1], high)
    return boundaries


def uniform_boundaries(values: np.ndarray, n_cells: int) -> np.ndarray:
    """Equi-width boundaries between the minimum and maximum of ``values``."""
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.linspace(0.0, 1.0, n_cells + 1)
    low = float(values.min())
    high = float(values.max())
    if high <= low:
        high = low + 1.0
    return np.linspace(low, high, n_cells + 1)
