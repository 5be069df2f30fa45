"""Tests for the spectral score estimator and the SSGE KL gradient.

Oracles: the closed-form score of a Gaussian, a dense solve for the prior
marginal score, and the closed-form gradient of the marginal KL on the same
measurement set.  The estimator is stochastic, so the checks are Monte Carlo
bounds whose thresholds sit between the errors measured on these fixed seeds
and the errors of an estimator that drops or flips the prior score (a
relative gradient error of 1.4 to 3.6).
"""

import numpy as np
import pytest

from conftest import random_spd_matrix
from fvi_bench.blr import BlrModel
from fvi_bench.features import RbfFeatureMap
from fvi_bench.ssge import SsgeConfig, fit_score, kl_gradient_estimate
from fvi_bench.variational import Family, MarginalKl, VariationalState, measurement_set_from_points

SEEDS = range(20)


def relative_error(estimate, exact):
    return float(np.linalg.norm(estimate - exact) / np.linalg.norm(exact))


def marginal_problem(family):
    """A state on 5 RBF features and a measurement set with one repeated
    point, so the estimator must work on the retained rows only."""
    fmap = RbfFeatureMap(np.linspace(-2, 2, 5).reshape(-1, 1), np.array([0.8]))
    model = BlrModel(fmap, noise_variance=0.1)
    marginal = MarginalKl(
        model, measurement_set_from_points(np.array([[-1.5], [0.1], [1.3], [0.1]]))
    )
    rng = np.random.default_rng(3)
    mean = rng.standard_normal(5)
    if family is Family.FULL:
        lower = np.tril(0.3 * rng.standard_normal((5, 5)), -1)
        lower[np.diag_indices(5)] = np.exp(0.3 * rng.standard_normal(5))
        return VariationalState(family, mean, lower), marginal
    return VariationalState(family, mean, np.exp(0.3 * rng.standard_normal(5))), marginal


def estimate_errors(family, config):
    """Per-draw relative errors of the estimated KL gradient against the
    closed form, and the relative error of their mean."""
    state, marginal = marginal_problem(family)
    _, exact = marginal.value_and_grad(state)
    grads = [
        kl_gradient_estimate(state, marginal, config, np.random.default_rng(seed))
        for seed in SEEDS
    ]
    per_draw = [relative_error(grad, exact) for grad in grads]
    return float(np.mean(per_draw)), relative_error(np.mean(grads, axis=0), exact)


class TestPriorScore:
    def test_matches_dense_solve_on_retained_rows(self):
        rng = np.random.default_rng(0)
        fmap = RbfFeatureMap(np.linspace(-2, 2, 6).reshape(-1, 1), np.array([0.7]))
        model = BlrModel(fmap, noise_variance=0.1)
        points = np.array([[-1.0], [0.4], [-1.0], [1.7]])
        marginal = MarginalKl(model, measurement_set_from_points(points))
        assert marginal.rows_dropped == 1
        rows = model.features(points[[0, 1, 3]])
        np.testing.assert_array_equal(marginal.rows, rows)
        values = rng.standard_normal((7, 3))
        expected = -np.linalg.solve(rows @ rows.T, values.T).T
        np.testing.assert_allclose(marginal.prior_score(values), expected, rtol=1e-9)


class TestFitScore:
    @staticmethod
    def gaussian_score_error(num_samples, seed):
        rng = np.random.default_rng(seed)
        mean = rng.standard_normal(3)
        cov = random_spd_matrix(rng, 3, min_eig=0.5)
        samples = rng.multivariate_normal(mean, cov, size=num_samples)
        estimate = fit_score(samples, SsgeConfig(num_samples=num_samples))(samples)
        exact = -np.linalg.solve(cov, (samples - mean).T).T
        return relative_error(estimate, exact)

    def test_gaussian_score_error_falls_with_sample_count(self):
        # Measured means over these 10 seeds: 0.63 at M=50, 0.27 at M=400.
        few = np.mean([self.gaussian_score_error(50, seed) for seed in range(10)])
        many = np.mean([self.gaussian_score_error(400, seed) for seed in range(10)])
        assert many < 0.4
        assert many < 0.6 * few


class TestKlGradientEstimate:
    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_approaches_closed_form_gradient(self, family):
        # Measured per-draw errors: full 0.52 -> 0.18, ffg 0.27 -> 0.08 from
        # M=50 to M=400; the error of the 20-draw mean at M=400 is 0.04 / 0.02.
        few, _ = estimate_errors(family, SsgeConfig(num_samples=50))
        many, bias = estimate_errors(family, SsgeConfig(num_samples=400))
        assert many < 0.3
        assert many < 0.6 * few
        assert bias < 0.1

    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_estimated_prior_score_ablation(self, family):
        # Measured per-draw error at M=200 over these seeds: 0.38 (full) and
        # 0.42 (ffg).  The second fit adds a bias that does not shrink with M.
        config = SsgeConfig(num_samples=200, estimate_prior_score=True)
        per_draw, _ = estimate_errors(family, config)
        assert per_draw < 0.6
        state, marginal = marginal_problem(family)
        exact_prior = kl_gradient_estimate(
            state, marginal, SsgeConfig(num_samples=200), np.random.default_rng(0)
        )
        ablated = kl_gradient_estimate(state, marginal, config, np.random.default_rng(0))
        assert ablated.shape == exact_prior.shape
        assert not np.allclose(ablated, exact_prior)
