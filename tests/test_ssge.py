"""Tests for the spectral score estimator and the SSGE KL gradient.

Oracles: the closed-form score of a Gaussian, a dense solve and the SVD
form for the prior marginal score, the closed-form gradient of the
marginal KL on the same measurement set, and, bit for bit, the estimate as
it was formed from a second kernel matrix.  The estimator is stochastic, so
the checks are Monte Carlo bounds whose thresholds sit between the errors
measured on these fixed seeds and the errors of an estimator that drops or
flips the prior score (a relative gradient error of 1.4 to 3.6).
"""

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from conftest import (
    ILL_CONDITIONED_LENGTHSCALES,
    WORKLOAD_SHAPES,
    ill_conditioned_set,
    random_spd_matrix,
    relative_error,
    svd_form,
    workload_shaped_sets,
)
from fvi_bench.blr import BlrModel
from fvi_bench.errors import DegenerateKernelError, NonFiniteValueError
from fvi_bench.features import RbfFeatureMap, squared_distances
from fvi_bench.ssge import SsgeConfig, fit_score, kl_gradient_estimate
from fvi_bench.variational import Family, MarginalKl, VariationalState, measurement_set_from_points

SEEDS = range(20)


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

    @staticmethod
    def svd_prior_score(marginal, values):
        """-(B B^T)^{-1} f through B = U S V^T, as the SVD form computed it."""
        _, (left, singular, _) = svd_form(marginal.rows)
        return -((values @ left) * singular**-2) @ left.T

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    def test_matches_svd_form_on_workload_shaped_sets(self, shape):
        model, sets = workload_shaped_sets(shape, seed=41, count=3)
        rng = np.random.default_rng(42)
        for mset in sets:
            marginal = MarginalKl(model, mset)
            values = rng.standard_normal((100, marginal.size))
            expected = self.svd_prior_score(marginal, values)
            assert relative_error(marginal.prior_score(values), expected) < 1e-12

    @pytest.mark.parametrize("lengthscale", ILL_CONDITIONED_LENGTHSCALES)
    def test_ill_conditioned_sets_agree_within_the_condition_number(self, lengthscale):
        marginal = MarginalKl(*ill_conditioned_set(lengthscale))
        singular = np.linalg.svd(marginal.rows, compute_uv=False)
        values = np.random.default_rng(43).standard_normal((100, marginal.size))
        expected = self.svd_prior_score(marginal, values)
        error = relative_error(marginal.prior_score(values), expected)
        assert error < 1e-15 * singular[0] / singular[-1]


class TestFitScore:
    @staticmethod
    def gaussian_score_error(num_samples, seed):
        rng = np.random.default_rng(seed)
        mean = rng.standard_normal(3)
        cov = random_spd_matrix(rng, 3, min_eig=0.5)
        samples = rng.multivariate_normal(mean, cov, size=num_samples)
        estimate = fit_score(samples)(samples)
        exact = -np.linalg.solve(cov, (samples - mean).T).T
        return relative_error(estimate, exact)

    def test_gaussian_score_error_falls_with_sample_count(self):
        # Measured means over these 10 seeds: 0.63 at M=50, 0.27 at M=400.
        few = np.mean([self.gaussian_score_error(50, seed) for seed in range(10)])
        many = np.mean([self.gaussian_score_error(400, seed) for seed in range(10)])
        assert many < 0.4
        assert many < 0.6 * few

    @pytest.mark.parametrize("num_samples", [20, 50, 200])
    def test_sample_scores_are_the_scores_at_the_samples(self, num_samples):
        rng = np.random.default_rng(num_samples)
        estimate = fit_score(rng.standard_normal((num_samples, 4)))
        assert np.array_equal(estimate.sample_scores, estimate(estimate.basis_samples))

    def test_equal_samples_raise_degenerate_kernel(self):
        """Copies of the third draw of 3 N(0, I) + 1 get an expanded distance
        of 3.4e-7 from each other, so a zero median cannot catch them."""
        rng = np.random.default_rng(0)
        row = [3 * rng.standard_normal(50) + 1 for _ in range(3)][-1]
        with pytest.raises(DegenerateKernelError):
            fit_score(np.tile(row, (100, 1)))

    def test_dyadic_equal_samples_raise_degenerate_kernel(self):
        with pytest.raises(DegenerateKernelError):
            fit_score(np.tile([0.5, -1.25, 3.0], (10, 1)))

    def test_mostly_equal_samples_raise_degenerate_kernel(self):
        """36 of the 45 pairs coincide, so the median distance is zero."""
        with pytest.raises(DegenerateKernelError):
            fit_score(np.vstack([np.zeros((9, 2)), np.ones((1, 2))]))

    def test_mostly_equal_non_dyadic_samples_raise_degenerate_kernel(self):
        """80 copies of the row of `test_equal_samples_raise_degenerate_kernel`
        and 20 standard-normal rows: 3160 of the 4950 pairs are copies, at an
        expanded distance of 3.4e-7.  A test for a zero median or for all
        samples equal let them fit, with bandwidth 3.37e-7 and J = 21."""
        rng = np.random.default_rng(0)
        row = [3 * rng.standard_normal(50) + 1 for _ in range(3)][-1]
        samples = np.vstack([np.tile(row, (80, 1)), rng.standard_normal((20, 50))])
        with pytest.raises(DegenerateKernelError):
            fit_score(samples)

    def test_non_finite_samples_raise_a_package_error(self):
        samples = np.random.default_rng(0).standard_normal((10, 2))
        samples[3, 1] = np.nan
        with pytest.raises(NonFiniteValueError):
            fit_score(samples)

    @pytest.mark.parametrize("num_samples", [20, 50, 200])
    def test_median_bandwidth_and_eigen_mass_rule(self, num_samples):
        rng = np.random.default_rng(num_samples)
        samples = rng.multivariate_normal(
            rng.standard_normal(3), random_spd_matrix(rng, 3, min_eig=0.5), size=num_samples
        )
        estimate = fit_score(samples)
        squared = squared_distances(samples, samples)
        median = np.median(np.sqrt(squared[np.tril_indices(num_samples, -1)]))
        assert estimate.bandwidth_used == median
        np.testing.assert_allclose(estimate.bandwidth_used, np.median(pdist(samples)), rtol=1e-13)
        kernel = np.exp(-0.5 * squared / median**2)
        eigenvalues = np.linalg.eigvalsh(kernel)[::-1]
        mass = np.cumsum(eigenvalues) / eigenvalues.sum()
        smallest = 1 + min(j for j in range(mass.size) if mass[j] >= 0.99)
        assert estimate.eigenvalues.size == smallest
        np.testing.assert_allclose(estimate.eigenvalues, eigenvalues[:smallest], rtol=1e-8)


def two_kernel_kl_gradient(state, marginal, config, rng):
    """The estimate as it was formed before the fit returned its sample
    scores: a second kernel matrix scores the samples through the fitted
    expansion."""
    rows = marginal.rows
    eps = rng.standard_normal((config.num_samples, state.dim))
    values = (state.mean + state.apply_scale(eps)) @ rows.T
    per_sample_mean_grad = (fit_score(values)(values) - marginal.prior_score(values)) @ rows
    if state.is_full:
        grad_scale = np.tril(per_sample_mean_grad.T @ eps / config.num_samples)
    else:
        grad_scale = np.mean(per_sample_mean_grad * eps, axis=0)
    return state.pack_grad(per_sample_mean_grad.mean(axis=0), grad_scale)


class TestKlGradientEstimate:
    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_equals_the_two_kernel_form_bit_for_bit(self, shape, family):
        model, sets = workload_shaped_sets(shape, seed=44, count=2)
        for index, mset in enumerate(sets):
            marginal = MarginalKl(model, mset)
            rng = np.random.default_rng(45 + index)
            mean = 0.1 * rng.standard_normal(model.num_features)
            scale = np.exp(0.1 * rng.standard_normal(model.num_features))
            if family is Family.FULL:
                scale = np.diag(scale) + np.tril(0.01 * rng.standard_normal(scale.shape * 2), -1)
            state = VariationalState(family, mean, scale)
            config = SsgeConfig(num_samples=100)
            estimate = kl_gradient_estimate(state, marginal, config, np.random.default_rng(index))
            replay = two_kernel_kl_gradient(state, marginal, config, np.random.default_rng(index))
            assert np.array_equal(estimate, replay)

    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_approaches_closed_form_gradient(self, family):
        # Measured per-draw errors: full 0.52 -> 0.18, ffg 0.27 -> 0.08 from
        # M=50 to M=400; the error of the 20-draw mean at M=400 is 0.04 / 0.02.
        few, _ = estimate_errors(family, SsgeConfig(num_samples=50))
        many, bias = estimate_errors(family, SsgeConfig(num_samples=400))
        assert many < 0.3
        assert many < 0.6 * few
        assert bias < 0.1


class TestSsgeConfig:
    @pytest.mark.parametrize("num_samples", [50.5, 50.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_sample_count_rejected(self, num_samples):
        """50.5 once passed and made the first step raise a bare TypeError."""
        with pytest.raises(ValueError, match="integer"):
            SsgeConfig(num_samples=num_samples)
