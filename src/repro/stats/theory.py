"""Closed-form results from Section 7 and Appendix G.

These are the analytical predictions the paper derives; the theory-
validation benchmarks compare them against measurements from the simulator
in :mod:`repro.stats.csm` and against real index runs.

* Equation 3/4/5 — result area, scanned area and effectiveness of the
  soft-FD index for a query of width ``q_y`` with margin ``eps``.
* Theorem 7.1 — expected keys covered by one linear segment: ``eps^2 / sigma^2``.
* Theorem 7.3 — variance of keys per segment: ``2 eps^4 / (3 sigma^4)``.
* Theorem 7.4 — number of segments for a stream of length n: ``n sigma^2 / eps^2``.
* Appendix G — number of grid cells scanned by an equivalent square grid.
"""

from __future__ import annotations

import math

__all__ = [
    "scanned_area",
    "effectiveness_ratio",
    "expected_keys_per_segment",
    "keys_per_segment_variance",
    "expected_segment_count",
    "mean_first_exit_time_with_drift",
    "grid_cells_scanned",
]


def scanned_area(query_width: float, epsilon: float, slope: float) -> float:
    """Area of the S-box (Equation 4): ``2 eps (2 eps + q_y) / a``."""
    _validate_positive(epsilon=epsilon, slope=slope)
    if query_width < 0:
        raise ValueError("query_width must be non-negative")
    return 2.0 * epsilon * (2.0 * epsilon + query_width) / slope


def effectiveness_ratio(query_width: float, epsilon: float) -> float:
    """Effectiveness of the soft-FD model (Equation 5): ``q_y / (2 eps + q_y)``."""
    _validate_positive(epsilon=epsilon)
    if query_width < 0:
        raise ValueError("query_width must be non-negative")
    denominator = 2.0 * epsilon + query_width
    return query_width / denominator if denominator > 0 else 0.0


def expected_keys_per_segment(epsilon: float, sigma: float) -> float:
    """Theorem 7.1: expected keys covered by one linear segment."""
    _validate_positive(epsilon=epsilon, sigma=sigma)
    return epsilon**2 / sigma**2


def keys_per_segment_variance(epsilon: float, sigma: float) -> float:
    """Theorem 7.3: variance of keys covered by one linear segment."""
    _validate_positive(epsilon=epsilon, sigma=sigma)
    return 2.0 * epsilon**4 / (3.0 * sigma**4)


def expected_segment_count(n: int, epsilon: float, sigma: float) -> float:
    """Theorem 7.4: expected number of segments for a stream of length ``n``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _validate_positive(epsilon=epsilon, sigma=sigma)
    return n * sigma**2 / epsilon**2


def mean_first_exit_time_with_drift(epsilon: float, sigma: float, drift: float) -> float:
    """Equation 9: MFET of a Brownian motion with drift d out of [-eps, eps].

    Used by Theorem 7.2: the expected segment capacity as a function of the
    mismatch ``d = mu - a`` between the gap mean and the segment slope.  The
    driftless limit recovers Theorem 7.1.
    """
    _validate_positive(epsilon=epsilon, sigma=sigma)
    if drift == 0.0:
        return expected_keys_per_segment(epsilon, sigma)
    return (epsilon / drift) * math.tanh(epsilon * drift / sigma**2)


def grid_cells_scanned(
    x_range: float,
    y_range: float,
    epsilon: float,
    slope: float,
    query_width: float,
    *,
    scan_factor: float = 1.0,
) -> float:
    """Equation 14 (Appendix G): cells an equivalent square grid must scan.

    ``scan_factor`` is the ``t`` in the paper — the square grid is sized so
    that its scanned area equals ``t`` times the soft-FD scanned area.
    """
    _validate_positive(epsilon=epsilon, slope=slope, scan_factor=scan_factor)
    if x_range <= 0 or y_range <= 0:
        raise ValueError("ranges must be positive")
    if query_width < 0:
        raise ValueError("query_width must be non-negative")
    whole_area = x_range * y_range
    s_scanned = scanned_area(query_width, epsilon, slope)
    if s_scanned <= 0:
        return math.inf
    return whole_area / (scan_factor * s_scanned)


def _validate_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
