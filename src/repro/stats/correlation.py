"""Correlation measures used for soft-FD detection.

A soft functional dependency X -> Y means X determines Y with high
probability (Section 2).  For the linear models COAX fits, the practical
signal is the strength of the linear relationship after discounting the
records that would land in the outlier index; :func:`soft_fd_strength`
captures exactly that by combining the linear fit quality with the fraction
of records inside a candidate margin.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "pearson_correlation",
    "soft_fd_strength",
    "fit_line",
]


def _validate_pair(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional arrays of equal length")
    return x, y


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient, 0.0 for degenerate inputs."""
    x, y = _validate_pair(x, y)
    if len(x) < 2:
        return 0.0
    x_std = x.std()
    y_std = y.std()
    if x_std == 0.0 or y_std == 0.0:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (x_std * y_std))


def fit_line(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Ordinary least-squares line ``y = slope * x + intercept``."""
    x, y = _validate_pair(x, y)
    if len(x) == 0:
        return 0.0, 0.0
    if len(x) == 1 or x.std() == 0.0:
        return 0.0, float(y.mean())
    slope, intercept = np.polyfit(x, y, deg=1)
    return float(slope), float(intercept)


def soft_fd_strength(
    x: np.ndarray,
    y: np.ndarray,
    *,
    margin_quantile: float = 0.9,
) -> float:
    """Score in [0, 1] measuring how well a linear soft FD X -> Y holds.

    The score is the fraction of records whose residual from the OLS line
    falls within the ``margin_quantile`` residual band, weighted by how
    narrow that band is relative to the spread of Y.  A perfect linear
    dependency scores close to 1; independent attributes score close to 0.
    """
    x, y = _validate_pair(x, y)
    if len(x) < 3:
        return 0.0
    y_spread = float(y.max() - y.min())
    if y_spread == 0.0:
        # Y is constant: trivially determined by anything.
        return 1.0
    slope, intercept = fit_line(x, y)
    residuals = y - (slope * x + intercept)
    band = float(np.quantile(np.abs(residuals), margin_quantile))
    inside = float(np.mean(np.abs(residuals) <= band)) if band > 0 else float(
        np.mean(residuals == 0.0)
    )
    narrowness = 1.0 - min(1.0, 2.0 * band / y_spread)
    return float(np.clip(inside * narrowness, 0.0, 1.0))
