"""Tests for the conjugate regression model.

Oracles: hand conjugate computations, 1D quadrature of prior x likelihood,
Monte Carlo predictive checks, scipy densities, and the function-space (kernel) form of the
posterior predictive.  A problem under another Gaussian prior is solved
through `conftest.whiten` and mapped back by w = mu + L v.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import counted_calls, random_gaussian, standard_gaussian, whiten
from fvi_bench import blr, gaussian
from fvi_bench.blr import (
    BlrModel,
    Dataset,
    exact_posterior,
    log_marginal_likelihood,
    nlpd,
    predictive_marginals,
)
from fvi_bench.errors import DimensionMismatchError, NonFiniteValueError, SingularReferenceError
from fvi_bench.features import RbfFeatureMap
from fvi_bench.gaussian import GaussianDist


def identity_feature_model(noise_variance: float = 1.0) -> BlrModel:
    return BlrModel(lambda x: x, noise_variance=noise_variance, num_features=1)


def random_model_and_data(rng, *, k_max=6, n_max=12):
    k = int(rng.integers(1, k_max + 1))
    n = int(rng.integers(1, n_max + 1))
    fmap = RbfFeatureMap(
        np.sort(rng.uniform(-2, 2, k)).reshape(-1, 1), np.array([float(rng.uniform(0.3, 1.5))])
    )
    model = BlrModel(fmap, noise_variance=float(rng.uniform(0.05, 1.0)))
    data = Dataset(rng.uniform(-2, 2, (n, 1)), rng.standard_normal(n))
    return model, data


def elbo_closed_form(q, model, data):
    """Exact ELBO for Gaussian q: E_q[log lik] - KL(q, N(0, I)), computed from
    first principles as an independent oracle."""
    phi = model.features(data.inputs)
    resid = data.targets - phi @ q.mean
    s2 = model.noise_variance
    expected_ll = -0.5 * data.size * math.log(2 * math.pi * s2) - 0.5 / s2 * (
        float(resid @ resid) + float(np.trace(phi.T @ phi @ q.cov))
    )
    return expected_ll - gaussian.kl_divergence(q, standard_gaussian(q.dim))


class TestExactPosterior:
    def test_single_point_hand_computation(self):
        model = identity_feature_model()
        post = exact_posterior(model, Dataset([[1.0]], [1.0]))
        np.testing.assert_allclose(post.mean, [0.5], atol=1e-12)
        np.testing.assert_allclose(post.cov, [[0.5]], atol=1e-12)

    def test_single_point_against_quadrature(self):
        model = identity_feature_model()
        post = exact_posterior(model, Dataset([[1.0]], [1.0]))

        def unnorm(w):
            return math.exp(-0.5 * w * w) * math.exp(-0.5 * (1.0 - w) ** 2)

        z, _ = integrate.quad(unnorm, -10, 10)
        mean, _ = integrate.quad(lambda w: w * unnorm(w), -10, 10)
        second, _ = integrate.quad(lambda w: w * w * unnorm(w), -10, 10)
        mean /= z
        var = second / z - mean**2
        assert post.mean[0] == pytest.approx(mean, abs=1e-9)
        assert post.cov[0, 0] == pytest.approx(var, abs=1e-9)

    def test_symmetric_targets_give_zero_mean(self):
        model = identity_feature_model()
        post = exact_posterior(model, Dataset([[1.0], [-1.0]], [0.0, 0.0]))
        np.testing.assert_allclose(post.mean, [0.0], atol=1e-14)

    def test_huge_noise_recovers_prior(self):
        rng = np.random.default_rng(0)
        model, data = random_model_and_data(rng)
        washed = BlrModel(model.feature_map, noise_variance=1e12)
        post = exact_posterior(washed, data)
        prior = standard_gaussian(model.num_features)
        np.testing.assert_allclose(post.mean, prior.mean, atol=1e-5)
        np.testing.assert_allclose(post.cov, prior.cov, atol=1e-5)

    def test_general_prior_against_quadrature(self):
        prior = GaussianDist([0.3], [[2.0]])
        white, factor, data = whiten(
            identity_feature_model(noise_variance=0.5), prior, Dataset([[2.0]], [1.5])
        )
        post_mean = prior.mean + factor @ exact_posterior(white, data).mean

        def unnorm(w):
            return math.exp(-0.25 * (w - 0.3) ** 2) * math.exp(-((1.5 - 2 * w) ** 2))

        z, _ = integrate.quad(unnorm, -10, 10)
        mean, _ = integrate.quad(lambda w: w * unnorm(w), -10, 10)
        assert post_mean[0] == pytest.approx(mean / z, abs=1e-9)

    def test_general_prior_against_precision_form(self):
        """Against the posterior from the prior precision,
        (Sigma0^{-1} + Phi^T Phi / sigma^2)^{-1}, inverted in numpy."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            model, data = random_model_and_data(rng)
            k = int(rng.integers(2, 7))
            fmap = RbfFeatureMap(np.sort(rng.uniform(-2, 2, k)).reshape(-1, 1), np.array([0.8]))
            prior = random_gaussian(rng, k)
            model = BlrModel(fmap, model.noise_variance)
            phi = model.features(data.inputs)
            prior_precision = np.linalg.inv(prior.cov)
            cov = np.linalg.inv(prior_precision + phi.T @ phi / model.noise_variance)
            mean = cov @ (prior_precision @ prior.mean + phi.T @ data.targets / model.noise_variance)
            white, factor, white_data = whiten(model, prior, data)
            post = exact_posterior(white, white_data)
            post_mean = prior.mean + factor @ post.mean
            np.testing.assert_allclose(post_mean, mean, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(factor @ post.cov @ factor.T, cov, rtol=1e-8, atol=1e-10)


def two_coordinate_model() -> BlrModel:
    return BlrModel(lambda x: x, noise_variance=1.0, num_features=2)


class TestOneFactorization:
    """sigma^2 I + Phi^T Phi is factorized once per (model, dataset) pair: the
    anchor, the exact posterior and the log evidence read one Cholesky factor."""

    def test_one_cholesky_and_no_solve_per_pair(self):
        """An LU solve for the anchor and a Cholesky in each closed form once
        made three factorizations of the same matrix.  The one factorization
        is numpy's: scipy's, in set-up, slowed the build and the training
        that followed through its second BLAS thread pool."""
        from fvi_bench.variational import Exact, Objective

        model, data = random_model_and_data(np.random.default_rng(71))
        targets = [(blr, "cholesky_psd")] + [
            (np.linalg, name) for name in ("cholesky", "solve", "inv", "slogdet")
        ]
        with counted_calls(*targets) as calls:
            Objective(Exact(), model, data)
            Objective(Exact(), model, data)
            exact_posterior(model, data)
            log_marginal_likelihood(model, data)
        assert calls == ["cholesky_psd", "cholesky"]

    def test_singular_matrix_raises_a_typed_error(self):
        """Two equal features and a noise variance below the roundoff of 1:
        the LU solve for the anchor once raised numpy's LinAlgError."""
        from fvi_bench.variational import Exact, Objective

        model = BlrModel(lambda x: np.hstack([x, x]), 1e-300, num_features=2)
        data = Dataset([[1.0]], [0.0])
        for call in (
            lambda: Objective(Exact(), model, data),
            lambda: exact_posterior(model, data),
            lambda: log_marginal_likelihood(model, data),
        ):
            with pytest.raises(SingularReferenceError, match="sigma"):
                call()


class TestPredictive:
    def test_point_mass_weights(self):
        model = identity_feature_model(noise_variance=0.25)
        w = GaussianDist([2.0], [[0.0]])
        means, variances = predictive_marginals(model, w, [[3.0]])
        np.testing.assert_allclose(means, [6.0])
        np.testing.assert_allclose(variances, [0.0], atol=1e-15)
        # With no weight uncertainty the predictive density is the noise alone.
        expected = -stats.norm.logpdf(5.0, loc=6.0, scale=0.5)
        assert nlpd(model, w, Dataset([[3.0]], [5.0])) == pytest.approx(expected, abs=1e-12)

    def test_prior_predictive_variance_floor(self):
        fmap = RbfFeatureMap(np.linspace(-2, 2, 20).reshape(-1, 1), np.array([0.2]))
        model = BlrModel(fmap, noise_variance=0.01)
        _, variances = predictive_marginals(model, standard_gaussian(20), fmap.centers)
        assert np.all(variances >= 0.0)
        phi = model.features(fmap.centers)
        np.testing.assert_allclose(variances, np.sum(phi**2, axis=1), rtol=1e-12)

    def test_coordinate_marginalization(self):
        w = GaussianDist([1.0, 2.0], np.diag([1.0, 4.0]))
        means, variances = predictive_marginals(two_coordinate_model(), w, np.eye(2))
        np.testing.assert_allclose(means, [1.0, 2.0])
        np.testing.assert_allclose(variances, [1.0, 4.0])

    def test_ones_map_sums_the_variances(self):
        means, variances = predictive_marginals(
            two_coordinate_model(), standard_gaussian(2), np.ones((3, 2))
        )
        np.testing.assert_allclose(means, np.zeros(3))
        np.testing.assert_allclose(variances, np.full(3, 2.0))

    def test_weights_of_another_dimension_rejected(self):
        """Three weights on two features once raised numpy's "matmul: ...
        mismatch in its core dimension"."""
        model, weights = two_coordinate_model(), standard_gaussian(3)
        with pytest.raises(DimensionMismatchError, match="dimension 3"):
            predictive_marginals(model, weights, np.ones((4, 2)))
        with pytest.raises(DimensionMismatchError, match="dimension 3"):
            nlpd(model, weights, Dataset(np.ones((4, 2)), np.zeros(4)))

    def test_roundoff_negative_variance_clipped(self):
        w = GaussianDist([0.0, 0.0], [[1.0, 3.0], [3.0, 9.0]])  # (1, 3)(1, 3)^T
        row = np.array([[0.9, -0.3]])  # exact variance (0.9 - 3 * 0.3)^2, about 3e-33
        assert np.einsum("ij,ij->i", row @ w.cov, row)[0] < 0.0  # rounds below zero
        _, variances = predictive_marginals(two_coordinate_model(), w, row)
        assert 0.0 <= variances[0] < 1e-18

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(1)
        model, data = random_model_and_data(rng, k_max=4, n_max=6)
        weights = random_gaussian(rng, model.num_features)
        means, variances = predictive_marginals(model, weights, data.inputs)
        eps = np.random.default_rng(2).standard_normal((10**5, model.num_features))
        draws = weights.mean + eps @ np.linalg.cholesky(weights.cov).T
        sampled_outputs = draws @ model.features(data.inputs).T
        stderr = np.std(sampled_outputs, axis=0, ddof=1) / math.sqrt(10**5)
        np.testing.assert_array_less(
            np.abs(sampled_outputs.mean(axis=0) - means), 3 * stderr + 1e-12
        )
        var_est = np.var(sampled_outputs, axis=0, ddof=1)
        np.testing.assert_allclose(var_est, variances, atol=0.05 * float(variances.max()))

    def test_marginals_match_joint_diagonal(self):
        rng = np.random.default_rng(3)
        model, data = random_model_and_data(rng)
        weights = random_gaussian(rng, model.num_features)
        phi = model.features(data.inputs)
        means, variances = predictive_marginals(model, weights, data.inputs)
        np.testing.assert_allclose(means, phi @ weights.mean, rtol=1e-12)
        np.testing.assert_allclose(
            variances, np.diag(phi @ weights.cov @ phi.T), rtol=1e-10, atol=1e-12
        )


class TestNlpd:
    def test_perfect_prediction_value(self):
        model = identity_feature_model(noise_variance=0.3)
        w = GaussianDist([1.0], [[0.2]])
        data = Dataset([[2.0]], [2.0])  # prediction mean is exactly the target
        total_var = 0.2 * 4.0 + 0.3
        assert nlpd(model, w, data) == pytest.approx(0.5 * math.log(2 * math.pi * total_var))

    def test_standard_normal_predictive_at_zero(self):
        model = identity_feature_model(noise_variance=0.5)
        w = GaussianDist([0.0], [[0.5]])  # predictive at x=1: N(0, 0.5 + 0.5) = N(0, 1)
        assert nlpd(model, w, Dataset([[1.0]], [0.0])) == pytest.approx(0.91894, abs=5e-6)

    def test_posterior_beats_prior_on_training_data(self):
        rng = np.random.default_rng(4)
        fmap = RbfFeatureMap(np.linspace(-2, 2, 10).reshape(-1, 1), np.array([0.4]))
        model = BlrModel(fmap, noise_variance=0.01)
        w_true = rng.standard_normal(10)
        x = rng.uniform(-2, 2, (30, 1))
        y = model.features(x) @ w_true + 0.1 * rng.standard_normal(30)
        data = Dataset(x, y)
        post = exact_posterior(model, data)
        assert nlpd(model, post, data) < nlpd(model, standard_gaussian(10), data)


    def test_matches_scipy_norm_logpdf(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            model, data = random_model_and_data(rng)
            weights = random_gaussian(rng, model.num_features)
            phi = model.features(data.inputs)
            scale = np.sqrt(np.diag(phi @ weights.cov @ phi.T) + model.noise_variance)
            expected = -np.mean(stats.norm.logpdf(data.targets, phi @ weights.mean, scale))
            assert nlpd(model, weights, data) == pytest.approx(expected, rel=1e-10)


class TestLogMarginalLikelihood:
    def test_hand_computed_single_point(self):
        model = identity_feature_model()
        lml = log_marginal_likelihood(model, Dataset([[1.0]], [0.0]))
        assert lml == pytest.approx(-0.5 * math.log(4 * math.pi), abs=1e-12)

    def test_matches_dense_function_space_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model, data = random_model_and_data(rng)
            phi = model.features(data.inputs)
            cov = phi @ phi.T + model.noise_variance * np.eye(data.size)
            dense = stats.multivariate_normal.logpdf(data.targets, np.zeros(data.size), cov)
            assert log_marginal_likelihood(model, data) == pytest.approx(dense, rel=1e-10)

    def test_general_prior_matches_scipy(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            model, data = random_model_and_data(rng)
            prior = random_gaussian(rng, model.num_features)
            phi = model.features(data.inputs)
            cov = phi @ prior.cov @ phi.T + model.noise_variance * np.eye(data.size)
            dense = stats.multivariate_normal.logpdf(data.targets, phi @ prior.mean, cov)
            white, _, white_data = whiten(model, prior, data)
            assert log_marginal_likelihood(white, white_data) == pytest.approx(dense, rel=1e-10)

    def test_tight_at_exact_posterior(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model, data = random_model_and_data(rng)
            post = exact_posterior(model, data)
            assert elbo_closed_form(post, model, data) == pytest.approx(
                log_marginal_likelihood(model, data), abs=1e-8
            )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        model, data = random_model_and_data(rng, n_max=12)
        perm = rng.permutation(data.size)
        shuffled = Dataset(data.inputs[perm], data.targets[perm])
        assert log_marginal_likelihood(model, shuffled) == pytest.approx(
            log_marginal_likelihood(model, data), abs=1e-12
        )


class TestElboProperties:
    def test_elbo_never_exceeds_log_evidence(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            model, data = random_model_and_data(rng, k_max=5, n_max=8)
            q = random_gaussian(rng, model.num_features)
            assert elbo_closed_form(q, model, data) <= log_marginal_likelihood(model, data) + 1e-8

    def test_exact_posterior_is_the_maximizer(self):
        rng = np.random.default_rng(9)
        model, data = random_model_and_data(rng, k_max=4, n_max=8)
        post = exact_posterior(model, data)
        best = elbo_closed_form(post, model, data)
        for _ in range(50):
            mean = post.mean + 1e-3 * rng.standard_normal(post.dim)
            bump = rng.standard_normal((post.dim, post.dim))
            cov = post.cov + 1e-4 * (bump + bump.T) + 1e-3 * np.eye(post.dim)
            perturbed = GaussianDist(mean, cov)
            assert elbo_closed_form(perturbed, model, data) <= best + 1e-10

    def test_predictive_matches_kernel_regression(self):
        # Weight-space posterior pushed to the training inputs must equal the
        # function-space (kernel trick) posterior with gram matrix Phi Phi^T.
        rng = np.random.default_rng(10)
        for _ in range(10):
            model, data = random_model_and_data(rng, k_max=5, n_max=8)
            post = exact_posterior(model, data)
            phi = model.features(data.inputs)
            gram = phi @ phi.T
            solve = np.linalg.solve(gram + model.noise_variance * np.eye(data.size), np.eye(data.size))
            gp_mean = gram @ solve @ data.targets
            gp_cov = gram - gram @ solve @ gram
            np.testing.assert_allclose(
                phi @ post.mean, gp_mean, atol=1e-8 * (1 + np.abs(gp_mean).max())
            )
            np.testing.assert_allclose(
                phi @ post.cov @ phi.T, gp_cov, atol=1e-8 * (1 + np.abs(gram).max())
            )


class TestModel:
    @pytest.mark.parametrize("noise_variance", [np.nan, np.inf, 0.0, -1.0])
    def test_noise_variance_must_be_finite_and_positive(self, noise_variance):
        """NaN and inf once constructed, and every later value was NaN."""
        with pytest.raises(ValueError, match="finite and positive"):
            BlrModel(lambda x: x, noise_variance, num_features=1)

    def test_non_integer_feature_count_rejected(self):
        """2.5 once failed later with a bare numpy TypeError."""
        with pytest.raises(ValueError, match="integer"):
            BlrModel(lambda x: x, 1.0, num_features=2.5)

    def test_feature_count_read_from_the_map(self):
        fmap = RbfFeatureMap(np.array([[-1.0], [0.0], [1.0]]), np.array([0.7]))
        assert BlrModel(fmap, 0.1).num_features == 3
        assert BlrModel(fmap, 0.1, num_features=3).num_features == 3

    def test_feature_count_required(self):
        """A bare callable has no feature count of its own."""
        with pytest.raises(ValueError, match="cannot infer feature count"):
            BlrModel(lambda x: x, 1.0)


class TestDatasetIo:
    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValueError):
            Dataset([[1.0]], [float("inf")])

    def test_three_dimensional_inputs_rejected(self):
        with pytest.raises(DimensionMismatchError, match=r"\(3, 1, 1\)"):
            Dataset(np.zeros((3, 1, 1)), np.zeros(3))

    @pytest.mark.parametrize("inputs", [np.arange(6.0), np.arange(6.0).reshape(3, 2)])
    def test_owns_read_only_copies(self, inputs):
        targets = np.arange(float(inputs.shape[0]))
        data = Dataset(inputs, targets)
        for array in (data.inputs, data.targets):
            with pytest.raises(ValueError):
                array[0] = 99.0
        # The caller's arrays stay writable, and writing to them leaves the
        # dataset as it was.
        inputs[0], targets[0] = 99.0, 99.0
        assert data.inputs.flat[0] == 0.0 and data.targets[0] == 0.0
