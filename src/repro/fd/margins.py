"""Error-margin estimation for soft-FD models.

The margins ``eps_LB`` and ``eps_UB`` (Equation 1) decide which records live
in the primary index and which fall to the outlier index.  The paper chooses
them from "the density of the data records around the model" (Figure 3);
we implement that as a residual-quantile rule: the margins are the smallest
asymmetric band around the fitted line that covers a target fraction of the
records.  A fixed-width alternative is available for the theory experiments
where ``eps`` is an explicit parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MarginEstimate", "estimate_margins", "estimate_margins_robust"]


@dataclass(frozen=True)
class MarginEstimate:
    """Estimated margins plus the coverage they achieve on the residual sample."""

    eps_lb: float
    eps_ub: float
    coverage: float

    @property
    def width(self) -> float:
        """Total band width (eps_LB + eps_UB)."""
        return self.eps_lb + self.eps_ub


def estimate_margins(
    residuals: np.ndarray,
    *,
    target_coverage: float = 0.9,
    symmetric: bool = False,
) -> MarginEstimate:
    """Margins covering ``target_coverage`` of the residuals.

    Asymmetric margins use the lower and upper residual quantiles so that a
    skewed residual distribution (e.g. flight delays are mostly positive)
    does not waste band width on the empty side.  ``symmetric=True`` forces
    ``eps_LB == eps_UB`` (the setting of the theoretical analysis).
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    if not 0.0 < target_coverage <= 1.0:
        raise ValueError("target_coverage must be in (0, 1]")
    if len(residuals) == 0:
        return MarginEstimate(0.0, 0.0, 0.0)
    if symmetric:
        band = float(np.quantile(np.abs(residuals), target_coverage))
        eps_lb = eps_ub = band
    else:
        tail = (1.0 - target_coverage) / 2.0
        lower = float(np.quantile(residuals, tail))
        upper = float(np.quantile(residuals, 1.0 - tail))
        eps_lb = max(0.0, -lower)
        eps_ub = max(0.0, upper)
    coverage = float(np.mean((residuals >= -eps_lb) & (residuals <= eps_ub)))
    return MarginEstimate(eps_lb=eps_lb, eps_ub=eps_ub, coverage=coverage)


def estimate_margins_robust(
    residuals: np.ndarray,
    *,
    n_sigmas: float = 3.0,
    symmetric: bool = True,
) -> MarginEstimate:
    """Margins from a robust residual scale (outlier-resistant).

    The soft FDs COAX targets can have a *large* minority of outliers (the
    paper mentions 25%), which would inflate quantile-based margins: to cover
    90% of all residuals one has to swallow most of the outliers.  Instead,
    this estimator measures the noise of the records that do follow the
    dependency via the median absolute deviation (MAD), which tolerates up to
    50% contamination, and sets the margins to ``n_sigmas`` of the implied
    Gaussian scale around the robust centre.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    if n_sigmas <= 0:
        raise ValueError("n_sigmas must be positive")
    if len(residuals) == 0:
        return MarginEstimate(0.0, 0.0, 0.0)
    centre = float(np.median(residuals))
    mad = float(np.median(np.abs(residuals - centre)))
    sigma = 1.4826 * mad
    if sigma == 0.0:
        # More than half of the residuals are identical; fall back to the
        # spread of the non-zero deviations so the band is not degenerate.
        nonzero = np.abs(residuals - centre)
        nonzero = nonzero[nonzero > 0]
        sigma = float(nonzero.mean()) if len(nonzero) else 0.0
    half_width = n_sigmas * sigma
    # Inliers are residuals in [centre - half_width, centre + half_width],
    # i.e. eps_LB = half_width - centre and eps_UB = half_width + centre.
    eps_lb = max(0.0, half_width - centre)
    eps_ub = max(0.0, half_width + centre)
    if symmetric:
        eps_lb = eps_ub = max(eps_lb, eps_ub)
    coverage = float(np.mean((residuals >= -eps_lb) & (residuals <= eps_ub)))
    return MarginEstimate(eps_lb=eps_lb, eps_ub=eps_ub, coverage=coverage)
