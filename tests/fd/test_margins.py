"""Tests for margin estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fd.margins import estimate_margins, estimate_margins_robust


class TestQuantileMargins:
    def test_coverage_target_met(self):
        rng = np.random.default_rng(0)
        residuals = rng.normal(0.0, 2.0, size=20_000)
        estimate = estimate_margins(residuals, target_coverage=0.9)
        assert estimate.coverage >= 0.88
        assert estimate.eps_lb > 0 and estimate.eps_ub > 0

    def test_symmetric_margins(self):
        rng = np.random.default_rng(1)
        residuals = rng.normal(0.0, 1.0, size=5_000)
        estimate = estimate_margins(residuals, target_coverage=0.95, symmetric=True)
        assert estimate.eps_lb == estimate.eps_ub

    def test_asymmetric_residuals_produce_asymmetric_margins(self):
        rng = np.random.default_rng(2)
        residuals = rng.exponential(scale=2.0, size=20_000)  # strictly positive
        estimate = estimate_margins(residuals, target_coverage=0.9)
        assert estimate.eps_ub > estimate.eps_lb

    def test_width(self):
        estimate = estimate_margins(np.array([-1.0, 0.0, 1.0]), target_coverage=1.0)
        assert estimate.width == pytest.approx(estimate.eps_lb + estimate.eps_ub)

    def test_empty_residuals(self):
        estimate = estimate_margins(np.array([]))
        assert estimate.eps_lb == 0.0 and estimate.eps_ub == 0.0

    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            estimate_margins(np.arange(5.0), target_coverage=0.0)
        with pytest.raises(ValueError):
            estimate_margins(np.arange(5.0), target_coverage=1.5)


class TestRobustMargins:
    def test_ignores_heavy_outlier_contamination(self):
        rng = np.random.default_rng(3)
        clean = rng.normal(0.0, 1.0, size=8_000)
        outliers = rng.uniform(-500.0, 500.0, size=2_000)
        residuals = np.concatenate([clean, outliers])
        estimate = estimate_margins_robust(residuals, n_sigmas=3.0)
        # The margin should track the clean noise (sigma=1), not the outliers.
        assert estimate.eps_ub < 10.0
        # And it should still cover roughly the clean 80% of the data.
        assert 0.7 < estimate.coverage < 0.9

    def test_quantile_margins_blow_up_where_robust_does_not(self):
        rng = np.random.default_rng(4)
        clean = rng.normal(0.0, 1.0, size=7_000)
        outliers = rng.uniform(-500.0, 500.0, size=3_000)
        residuals = np.concatenate([clean, outliers])
        robust = estimate_margins_robust(residuals, n_sigmas=3.0)
        quantile = estimate_margins(residuals, target_coverage=0.9)
        assert quantile.width > 5.0 * robust.width

    def test_symmetric_flag(self):
        rng = np.random.default_rng(5)
        residuals = rng.normal(1.0, 1.0, size=5_000)  # off-centre residuals
        symmetric = estimate_margins_robust(residuals, symmetric=True)
        asymmetric = estimate_margins_robust(residuals, symmetric=False)
        assert symmetric.eps_lb == symmetric.eps_ub
        assert asymmetric.eps_ub > asymmetric.eps_lb

    def test_constant_residuals(self):
        estimate = estimate_margins_robust(np.zeros(100))
        assert estimate.eps_lb == 0.0 and estimate.eps_ub == 0.0
        assert estimate.coverage == 1.0

    def test_empty_and_invalid(self):
        assert estimate_margins_robust(np.array([])).width == 0.0
        with pytest.raises(ValueError):
            estimate_margins_robust(np.arange(5.0), n_sigmas=0.0)

    def test_larger_sigma_multiplier_widens_band(self):
        rng = np.random.default_rng(6)
        residuals = rng.normal(0.0, 1.0, size=5_000)
        narrow = estimate_margins_robust(residuals, n_sigmas=2.0)
        wide = estimate_margins_robust(residuals, n_sigmas=4.0)
        assert wide.width > narrow.width
        assert wide.coverage >= narrow.coverage
