"""Tests for the conjugate Bayesian linear regression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fd.bayesian import BayesianLinearRegression


class TestFit:
    def test_recovers_true_parameters(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 100.0, size=5_000)
        y = 3.0 * x + 7.0 + rng.normal(scale=2.0, size=5_000)
        posterior = BayesianLinearRegression().fit(x, y)
        assert posterior.slope == pytest.approx(3.0, abs=0.05)
        assert posterior.intercept == pytest.approx(7.0, abs=1.0)
        assert posterior.noise_std == pytest.approx(2.0, rel=0.2)

    def test_noise_free_data(self):
        x = np.linspace(0.0, 10.0, 200)
        posterior = BayesianLinearRegression().fit(x, -2.0 * x + 1.0)
        assert posterior.slope == pytest.approx(-2.0, abs=1e-6)
        # The weak Inverse-Gamma prior keeps a tiny residual noise estimate.
        assert posterior.noise_std == pytest.approx(0.0, abs=1e-2)

    def test_posterior_uncertainty_shrinks_with_data(self):
        rng = np.random.default_rng(1)
        x_small = rng.uniform(0, 10, size=20)
        x_large = rng.uniform(0, 10, size=20_000)
        noise_small = rng.normal(scale=1.0, size=20)
        noise_large = rng.normal(scale=1.0, size=20_000)
        small = BayesianLinearRegression().fit(x_small, 2 * x_small + noise_small)
        large = BayesianLinearRegression().fit(x_large, 2 * x_large + noise_large)
        assert large.slope_std < small.slope_std

    def test_empty_fit_returns_prior(self):
        posterior = BayesianLinearRegression().fit(np.array([]), np.array([]))
        assert posterior.n_observations == 0
        assert posterior.slope == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression().fit(np.arange(3.0), np.arange(4.0))


class TestWeights:
    def test_weighted_fit_equals_repeated_points(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 3.0, 5.0, 7.0])
        weights = np.array([1.0, 5.0, 1.0, 2.0])
        weighted = BayesianLinearRegression().fit(x, y, weights)
        repeated_x = np.repeat(x, weights.astype(int))
        repeated_y = np.repeat(y, weights.astype(int))
        repeated = BayesianLinearRegression().fit(repeated_x, repeated_y)
        assert weighted.slope == pytest.approx(repeated.slope, abs=1e-9)
        assert weighted.intercept == pytest.approx(repeated.intercept, abs=1e-9)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression().fit(np.arange(3.0), np.arange(3.0), np.array([1.0, -1.0, 1.0]))

    def test_weight_shape_mismatch(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression().fit(np.arange(3.0), np.arange(3.0), np.ones(4))


class TestIncrementalUpdate:
    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 50, size=2_000)
        y = 1.5 * x - 4.0 + rng.normal(scale=1.0, size=2_000)
        batch = BayesianLinearRegression().fit(x, y)
        incremental_model = BayesianLinearRegression()
        for start in range(0, 2_000, 250):
            incremental_model.update(x[start : start + 250], y[start : start + 250])
        incremental = incremental_model.posterior()
        assert incremental.slope == pytest.approx(batch.slope, abs=1e-9)
        assert incremental.intercept == pytest.approx(batch.intercept, abs=1e-9)
        assert incremental.n_observations == batch.n_observations

    def test_update_returns_self_for_chaining(self):
        model = BayesianLinearRegression()
        assert model.update(np.arange(3.0), np.arange(3.0)) is model

    def test_update_with_empty_batch_is_noop(self):
        model = BayesianLinearRegression()
        model.update(np.arange(5.0), 2 * np.arange(5.0))
        before = model.posterior()
        model.update(np.array([]), np.array([]))
        after = model.posterior()
        assert before.slope == after.slope
        assert before.n_observations == after.n_observations

    def test_reset_restores_prior(self):
        model = BayesianLinearRegression()
        model.update(np.arange(10.0), np.arange(10.0) * 2.0)
        model.reset()
        assert model.n_observations == 0


class TestPrediction:
    def test_predict_uses_posterior_mean(self):
        x = np.linspace(0.0, 10.0, 100)
        model = BayesianLinearRegression()
        model.fit(x, 4.0 * x + 1.0)
        predictions = model.predict(np.array([0.0, 1.0]))
        assert predictions[0] == pytest.approx(1.0, abs=1e-3)
        assert predictions[1] == pytest.approx(5.0, abs=1e-3)


class TestPriorValidation:
    def test_invalid_prior_parameters(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression(prior_scale=0.0)
        with pytest.raises(ValueError):
            BayesianLinearRegression(prior_shape=0.0)
