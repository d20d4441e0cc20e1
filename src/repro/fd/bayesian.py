"""Bayesian linear regression with a conjugate Normal-Inverse-Gamma prior.

The paper fits its soft-FD models with pymc3 and notes that "we have used a
Bayesian method for learning the regression model, [which] can help
supporting updates on the index, as we can use the previous gradient and
intercept and continuously adjust our existing model" (Section 5).  MCMC is
unnecessary for a linear model with Gaussian noise: the Normal-Inverse-Gamma
prior is conjugate, so the posterior over (slope, intercept, noise variance)
has a closed form and can be updated incrementally from sufficient
statistics.  This module provides exactly that, including weighted
observations (Algorithm 1 weights training points by bucket counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["PosteriorSummary", "BayesianLinearRegression"]


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior moments of the linear model ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    slope_std: float
    intercept_std: float
    noise_std: float
    n_observations: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Posterior-mean prediction."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


class BayesianLinearRegression:
    """Conjugate Bayesian simple linear regression.

    Model: ``y_i = w^T [1, x_i] + e_i`` with ``e_i ~ N(0, sigma^2)``,
    prior ``w | sigma^2 ~ N(m0, sigma^2 V0)`` and
    ``sigma^2 ~ InverseGamma(a0, b0)``.

    The class keeps only sufficient statistics, so :meth:`update` supports
    streaming/online refinement and :meth:`fit` is just "reset + update".
    Build-time soft-FD detection fits models through :meth:`fit`; at run
    time, :mod:`repro.fd.maintenance` streams every inserted batch into a
    per-model instance via :meth:`update` so the refreshed posterior is
    ready whenever drift forces a margin re-estimate or a model refit.
    The mutable posterior state round-trips through
    :meth:`sufficient_statistics` / :meth:`load_sufficient_statistics`
    (how persistence carries monitor state across save/load).
    """

    def __init__(
        self,
        *,
        prior_mean: Tuple[float, float] = (0.0, 0.0),
        prior_scale: float = 1e6,
        prior_shape: float = 1e-3,
        prior_rate: float = 1e-3,
    ) -> None:
        if prior_scale <= 0:
            raise ValueError("prior_scale must be positive")
        if prior_shape <= 0 or prior_rate <= 0:
            raise ValueError("prior_shape and prior_rate must be positive")
        self._m0 = np.array([prior_mean[1], prior_mean[0]], dtype=np.float64)  # [intercept, slope]
        self._V0_inv = np.eye(2) / prior_scale
        self._a0 = float(prior_shape)
        self._b0 = float(prior_rate)
        self.reset()

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all observations and return to the prior."""
        self._precision = self._V0_inv.copy()  # repro-lint: allow[materialize] 2x2 prior matrix, O(1)
        self._precision_mean = self._V0_inv @ self._m0
        self._a = self._a0
        self._b = self._b0
        self._n = 0.0
        self._yty = 0.0
        self._m0_quad = float(self._m0 @ self._V0_inv @ self._m0)

    @property
    def n_observations(self) -> float:
        """Total (possibly weighted) number of observations absorbed."""
        return self._n

    #: Length of the flat state vector (precision 4, precision-mean 2,
    #: y'y 1, observation count 1).
    STATE_LENGTH = 8

    def sufficient_statistics(self) -> np.ndarray:
        """Flat copy of the mutable posterior state (for persistence).

        The prior hyper-parameters are *not* included — they are
        construction arguments, so a restored instance must be built with
        the same prior before :meth:`load_sufficient_statistics`.
        """
        return np.concatenate(
            [
                self._precision.ravel(),
                self._precision_mean,
                [self._yty, self._n],
            ]
        ).astype(np.float64)

    def load_sufficient_statistics(self, state: np.ndarray) -> None:
        """Inverse of :meth:`sufficient_statistics`."""
        state = np.asarray(state, dtype=np.float64).ravel()
        if len(state) != self.STATE_LENGTH:
            raise ValueError(
                f"posterior state must have {self.STATE_LENGTH} entries, "
                f"got {len(state)}"
            )
        self._precision = state[:4].reshape(2, 2).copy()  # repro-lint: allow[materialize] 8-entry posterior state, O(1)
        self._precision_mean = state[4:6].copy()  # repro-lint: allow[materialize] 8-entry posterior state, O(1)
        self._yty = float(state[6])
        self._n = float(state[7])

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def update(
        self,
        x: np.ndarray,
        y: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> "BayesianLinearRegression":
        """Absorb a batch of observations into the posterior.

        ``weights`` (if given) act as observation multiplicities, which is
        how Algorithm 1's bucket-count weighting enters the regression.
        Returns ``self`` to allow chaining.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape != y.shape:
            raise ValueError("x and y must have the same length")
        if len(x) == 0:
            return self
        if weights is None:
            weights = np.ones_like(x)
        else:
            weights = np.asarray(weights, dtype=np.float64).ravel()
            if weights.shape != x.shape:
                raise ValueError("weights must match the length of x")
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")

        design = np.column_stack([np.ones_like(x), x])  # columns: [1, x]
        weighted_design = design * weights[:, None]
        self._precision += design.T @ weighted_design
        self._precision_mean += weighted_design.T @ y
        self._yty += float(np.sum(weights * y * y))
        self._n += float(weights.sum())
        return self

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> PosteriorSummary:
        """Reset, absorb the batch and return the posterior summary."""
        self.reset()
        self.update(x, y, weights)
        return self.posterior()

    # ------------------------------------------------------------------
    # Posterior
    # ------------------------------------------------------------------
    def posterior(self) -> PosteriorSummary:
        """Current posterior moments."""
        precision = self._precision
        covariance = np.linalg.inv(precision)
        mean = covariance @ self._precision_mean
        a_n = self._a0 + self._n / 2.0
        quad_term = self._m0_quad + self._yty - float(mean @ precision @ mean)
        b_n = self._b0 + max(quad_term, 0.0) / 2.0
        # Posterior-mean noise variance (InverseGamma mean needs a_n > 1;
        # fall back to the mode for very small samples).
        if a_n > 1.0:
            noise_var = b_n / (a_n - 1.0)
        else:
            noise_var = b_n / (a_n + 1.0)
        coefficient_cov = covariance * noise_var
        intercept, slope = float(mean[0]), float(mean[1])
        return PosteriorSummary(
            slope=slope,
            intercept=intercept,
            slope_std=float(np.sqrt(max(coefficient_cov[1, 1], 0.0))),
            intercept_std=float(np.sqrt(max(coefficient_cov[0, 0], 0.0))),
            noise_std=float(np.sqrt(max(noise_var, 0.0))),
            n_observations=self._n,
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Posterior-mean prediction for new inputs."""
        return self.posterior().predict(x)
