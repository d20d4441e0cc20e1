"""Soft-FD prediction models.

A soft-FD model ``psi_hat : C_x -> C_d`` predicts the value of a dependent
attribute from the predictor attribute, together with lower/upper error
margins ``eps_LB``/``eps_UB`` such that every record in the primary index
satisfies ``psi_hat(p_x) - eps_LB <= p_d <= psi_hat(p_x) + eps_UB``
(Equation 1).  Query translation (Section 4) and the inlier/outlier split
(Algorithm 1) are both expressed in terms of this interface.

Two concrete models are provided:

* :class:`LinearFDModel` — the linear model the paper evaluates;
* :class:`SplineFDModel` — the piecewise-linear (spline) extension the paper
  describes as future work and analyses in Theorem 7.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.data.predicates import Interval

__all__ = ["FDModel", "LinearFDModel", "SplineFDModel", "SplineSegment"]


@runtime_checkable
class FDModel(Protocol):
    """Interface every soft-FD model implements."""

    #: Lower error margin (eps_LB >= 0).
    eps_lb: float
    #: Upper error margin (eps_UB >= 0).
    eps_ub: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted dependent values psi_hat(x)."""
        ...

    def residuals(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Displacements ``y - psi_hat(x)`` (Algorithm 1's displacement array)."""
        ...

    def within_margin(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean mask of records inside the margin band (primary-index records)."""
        ...

    def dependent_interval(self, x_interval: Interval) -> Interval:
        """Range of dependent values an inlier can take when x is in ``x_interval``."""
        ...

    def predictor_interval(self, y_interval: Interval) -> Interval:
        """Range of predictor values an inlier can take when y is in ``y_interval``."""
        ...

    def memory_bytes(self) -> int:
        """Bytes needed to store the model parameters."""
        ...


def _as_interval(low: float, high: float) -> Interval:
    """Build an interval, swapping the bounds if a negative slope reversed them."""
    if low > high:
        low, high = high, low
    return Interval(low, high)


@dataclass(frozen=True)
class LinearFDModel:
    """Linear soft-FD model ``psi_hat(x) = slope * x + intercept`` with margins."""

    slope: float
    intercept: float
    eps_lb: float
    eps_ub: float

    def __post_init__(self) -> None:
        if self.eps_lb < 0 or self.eps_ub < 0:
            raise ValueError("margins must be non-negative")
        if math.isnan(self.slope) or math.isnan(self.intercept):
            raise ValueError("model parameters must not be NaN")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """psi_hat(x) = slope * x + intercept."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept

    def residuals(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """y - psi_hat(x)."""
        return np.asarray(y, dtype=np.float64) - self.predict(x)

    def within_margin(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mask of records with ``-eps_LB <= residual <= eps_UB``."""
        residuals = self.residuals(x, y)
        return (residuals >= -self.eps_lb) & (residuals <= self.eps_ub)

    # ------------------------------------------------------------------
    # Query translation (Section 4, Equation 2)
    # ------------------------------------------------------------------
    def dependent_interval(self, x_interval: Interval) -> Interval:
        """Possible dependent values for inliers with x in ``x_interval``.

        For a positive slope this is
        ``[psi_hat(x_low) - eps_LB, psi_hat(x_high) + eps_UB]``; a negative
        slope flips the endpoints.
        """
        if x_interval.is_empty:
            return Interval.empty()
        low_pred = self._predict_scalar(x_interval.low)
        high_pred = self._predict_scalar(x_interval.high)
        band_low = min(low_pred, high_pred) - self.eps_lb
        band_high = max(low_pred, high_pred) + self.eps_ub
        return Interval(band_low, band_high)

    def predictor_interval(self, y_interval: Interval) -> Interval:
        """Possible predictor values for inliers with y in ``y_interval``.

        Inliers satisfy ``psi_hat(x) in [y - eps_UB, y + eps_LB]``; inverting
        the linear map gives the x-range.  A (near-)zero slope carries no
        information about x, so the unbounded interval is returned and the
        caller falls back to the direct constraints on x.
        """
        if y_interval.is_empty:
            return Interval.empty()
        if abs(self.slope) < 1e-12:
            return Interval.unbounded()
        lo_target = (-math.inf if math.isinf(y_interval.low) and y_interval.low < 0
                     else y_interval.low - self.eps_ub)
        hi_target = (math.inf if math.isinf(y_interval.high) and y_interval.high > 0
                     else y_interval.high + self.eps_lb)
        x_at_lo = self._invert_scalar(lo_target)
        x_at_hi = self._invert_scalar(hi_target)
        return _as_interval(x_at_lo, x_at_hi)

    def predictor_intervals(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`predictor_interval` over a batch of y-intervals.

        Takes parallel lower/upper bound arrays and returns the translated
        predictor bound arrays, computing the same IEEE operations as the
        scalar path so batch query translation stays bit-identical to the
        sequential one.  Empty inputs (``low > high``) come back as the
        canonical empty interval ``(+inf, -inf)``.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if abs(self.slope) < 1e-12:
            # A flat model carries no information about x (scalar path
            # returns the unbounded interval), except for empty inputs.
            out_low = np.where(lows > highs, np.inf, -np.inf)
            out_high = np.where(lows > highs, -np.inf, np.inf)
            return out_low, out_high
        # An infinite bound stays infinite through the margin shift and
        # (±inf - intercept) / slope keeps the sign bookkeeping of
        # ``_invert_scalar``, both for free under IEEE arithmetic.
        lo_target = lows - self.eps_ub
        hi_target = highs + self.eps_lb
        x_at_lo = (lo_target - self.intercept) / self.slope
        x_at_hi = (hi_target - self.intercept) / self.slope
        out_low = np.minimum(x_at_lo, x_at_hi)
        out_high = np.maximum(x_at_lo, x_at_hi)
        empty = lows > highs
        if np.count_nonzero(empty):
            out_low = np.where(empty, np.inf, out_low)
            out_high = np.where(empty, -np.inf, out_high)
        return out_low, out_high

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Four float64 parameters."""
        return 4 * 8

    def with_margins(self, eps_lb: float, eps_ub: float) -> "LinearFDModel":
        """Copy of the model with different margins."""
        return LinearFDModel(self.slope, self.intercept, eps_lb, eps_ub)

    def _predict_scalar(self, x: float) -> float:
        if math.isinf(x):
            if abs(self.slope) < 1e-12:
                return self.intercept
            return math.inf if (x > 0) == (self.slope > 0) else -math.inf
        return self.slope * x + self.intercept

    def _invert_scalar(self, y: float) -> float:
        if math.isinf(y):
            return math.inf if (y > 0) == (self.slope > 0) else -math.inf
        return (y - self.intercept) / self.slope


@dataclass(frozen=True)
class SplineSegment:
    """One piece of a piecewise-linear soft-FD model, valid on [x_low, x_high)."""

    x_low: float
    x_high: float
    slope: float
    intercept: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Linear prediction of this segment (callers handle segment routing)."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


class SplineFDModel:
    """Piecewise-linear soft-FD model (the paper's linear-spline extension).

    Segments partition the predictor range; each carries its own linear
    model, while the margins are shared.  Used for dependencies that a
    single line cannot model within a small margin — Theorem 7.4 predicts
    the number of segments needed.
    """

    def __init__(self, segments: Sequence[SplineSegment], eps_lb: float, eps_ub: float) -> None:
        if not segments:
            raise ValueError("a spline model needs at least one segment")
        if eps_lb < 0 or eps_ub < 0:
            raise ValueError("margins must be non-negative")
        ordered = sorted(segments, key=lambda segment: segment.x_low)
        for previous, current in zip(ordered, ordered[1:]):
            if current.x_low < previous.x_high - 1e-9:
                raise ValueError("spline segments must not overlap")
        self._segments: Tuple[SplineSegment, ...] = tuple(ordered)
        self._boundaries = np.array([segment.x_low for segment in ordered], dtype=np.float64)
        self.eps_lb = float(eps_lb)
        self.eps_ub = float(eps_ub)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epsilon: float,
        min_segment_points: int = 8,
    ) -> "SplineFDModel":
        """Greedy left-to-right segmentation with maximum residual ``epsilon``.

        Mirrors the segmentation analysed in Theorem 7.4: a segment grows
        until the best-fit line for its points can no longer keep every
        point within ``epsilon``, then a new segment starts.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be one-dimensional arrays of equal length")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if len(x) == 0:
            raise ValueError("cannot fit a spline to empty data")
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        segments: List[SplineSegment] = []
        start = 0
        n = len(xs)
        while start < n:
            end = min(start + max(min_segment_points, 2), n)
            best = _fit_segment(xs[start:end], ys[start:end])
            # Grow the segment geometrically while it still fits, then back off.
            while end < n:
                candidate_end = min(n, max(end + 1, int((end - start) * 1.5) + start))
                candidate = _fit_segment(xs[start:candidate_end], ys[start:candidate_end])
                if candidate[2] <= epsilon:
                    end = candidate_end
                    best = candidate
                else:
                    break
            slope, intercept, _ = best
            x_low = float(xs[start])
            x_high = float(xs[end - 1]) if end - 1 > start else x_low
            segments.append(SplineSegment(x_low, max(x_high, x_low), slope, intercept))
            start = end
        model = cls(segments, eps_lb=epsilon, eps_ub=epsilon)
        return model

    # ------------------------------------------------------------------
    # FDModel interface
    # ------------------------------------------------------------------
    @property
    def segments(self) -> Tuple[SplineSegment, ...]:
        """The ordered spline segments."""
        return self._segments

    @property
    def n_segments(self) -> int:
        """Number of linear pieces."""
        return len(self._segments)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Piecewise-linear prediction."""
        x = np.asarray(x, dtype=np.float64)
        segment_ids = np.clip(
            np.searchsorted(self._boundaries, x, side="right") - 1, 0, len(self._segments) - 1
        )
        slopes = np.array([segment.slope for segment in self._segments])
        intercepts = np.array([segment.intercept for segment in self._segments])
        return slopes[segment_ids] * x + intercepts[segment_ids]

    def residuals(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """y - psi_hat(x)."""
        return np.asarray(y, dtype=np.float64) - self.predict(x)

    def within_margin(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mask of records with ``-eps_LB <= residual <= eps_UB``."""
        residuals = self.residuals(x, y)
        return (residuals >= -self.eps_lb) & (residuals <= self.eps_ub)

    def dependent_interval(self, x_interval: Interval) -> Interval:
        """Hull of the per-segment dependent bands overlapping ``x_interval``."""
        if x_interval.is_empty:
            return Interval.empty()
        hull = Interval.empty()
        for segment in self._segments:
            seg_interval = Interval(segment.x_low, segment.x_high)
            overlap = seg_interval.intersect(x_interval)
            if overlap.is_empty and not x_interval.is_unbounded:
                # The query range may extend beyond the trained span; clamp to
                # the nearest segment so extrapolation is still defined.
                continue
            effective = overlap if not overlap.is_empty else seg_interval
            linear = LinearFDModel(segment.slope, segment.intercept, self.eps_lb, self.eps_ub)
            hull = hull.union_hull(linear.dependent_interval(effective))
        if hull.is_empty:
            # Query range falls entirely outside the trained span: extrapolate
            # with the nearest segment.
            nearest = self._segments[0] if x_interval.high < self._segments[0].x_low else self._segments[-1]
            linear = LinearFDModel(nearest.slope, nearest.intercept, self.eps_lb, self.eps_ub)
            hull = linear.dependent_interval(x_interval)
        return hull

    def predictor_interval(self, y_interval: Interval) -> Interval:
        """Hull of predictor ranges whose band can overlap ``y_interval``."""
        if y_interval.is_empty:
            return Interval.empty()
        hull = Interval.empty()
        for segment in self._segments:
            linear = LinearFDModel(segment.slope, segment.intercept, self.eps_lb, self.eps_ub)
            candidate = linear.predictor_interval(y_interval)
            restricted = candidate.intersect(Interval(segment.x_low, segment.x_high))
            if not restricted.is_empty:
                hull = hull.union_hull(restricted)
        if hull.is_empty:
            return Interval.empty()
        return hull

    def memory_bytes(self) -> int:
        """Four float64 values per segment plus the two shared margins."""
        return len(self._segments) * 4 * 8 + 2 * 8


def _fit_segment(xs: np.ndarray, ys: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares line for a segment plus its maximum absolute residual."""
    if len(xs) == 1 or xs.std() == 0.0:
        intercept = float(ys.mean())
        return 0.0, intercept, float(np.abs(ys - intercept).max(initial=0.0))
    slope, intercept = np.polyfit(xs, ys, deg=1)
    residuals = ys - (slope * xs + intercept)
    return float(slope), float(intercept), float(np.abs(residuals).max(initial=0.0))
