"""Tests for the conjugate regression model.

Oracles: hand conjugate computations, 1D quadrature of prior x likelihood,
Monte Carlo predictive checks, and the function-space (kernel) form of the
posterior predictive.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import random_full_gaussian
from fvi_bench import gaussian
from fvi_bench.blr import (
    BlrModel,
    Dataset,
    exact_posterior,
    load_dataset,
    log_marginal_likelihood,
    nlpd,
    predictive,
    predictive_marginals,
)
from fvi_bench.errors import NonFiniteValueError, ParseError
from fvi_bench.features import RbfFeatureMap
from fvi_bench.gaussian import diagonal_gaussian, full_gaussian, standard_gaussian


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
    """Exact ELBO for Gaussian q: E_q[log lik] - KL(q, prior), computed from
    first principles as an independent oracle."""
    phi = model.features(data.inputs)
    resid = data.targets - phi @ q.mean
    s2 = model.noise_variance
    expected_ll = -0.5 * data.size * math.log(2 * math.pi * s2) - 0.5 / s2 * (
        float(resid @ resid) + float(np.trace(phi.T @ phi @ q.cov_matrix()))
    )
    return expected_ll - gaussian.kl_divergence(q, model.prior)


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
        washed = BlrModel(model.feature_map, noise_variance=1e12, prior=model.prior)
        post = exact_posterior(washed, data)
        np.testing.assert_allclose(post.mean, model.prior.mean, atol=1e-5)
        np.testing.assert_allclose(post.cov, model.prior.cov_matrix(), atol=1e-5)

    def test_general_prior_against_quadrature(self):
        model = BlrModel(
            lambda x: x, noise_variance=0.5, prior=full_gaussian([0.3], [[2.0]])
        )
        post = exact_posterior(model, Dataset([[2.0]], [1.5]))

        def unnorm(w):
            return math.exp(-0.25 * (w - 0.3) ** 2) * math.exp(-((1.5 - 2 * w) ** 2))

        z, _ = integrate.quad(unnorm, -10, 10)
        mean, _ = integrate.quad(lambda w: w * unnorm(w), -10, 10)
        assert post.mean[0] == pytest.approx(mean / z, abs=1e-9)


class TestPredictive:
    def test_point_mass_weights(self):
        model = identity_feature_model(noise_variance=0.25)
        w = full_gaussian([2.0], [[0.0]])
        noiseless, noisy = predictive(model, w, [[3.0]])
        np.testing.assert_allclose(noiseless.mean, [6.0])
        np.testing.assert_allclose(noiseless.cov, [[0.0]], atol=1e-15)
        np.testing.assert_allclose(noisy.cov, [[0.25]])

    def test_prior_predictive_variance_floor(self):
        fmap = RbfFeatureMap(np.linspace(-2, 2, 20).reshape(-1, 1), np.array([0.2]))
        model = BlrModel(fmap, noise_variance=0.01)
        _, noisy = predictive(model, model.prior, fmap.centers)
        assert np.all(np.diag(noisy.cov) >= model.noise_variance - 1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(1)
        model, data = random_model_and_data(rng, k_max=4, n_max=6)
        weights = random_full_gaussian(rng, model.num_features)
        noiseless, _ = predictive(model, weights, data.inputs)
        draws, _ = gaussian.sample(weights, np.random.default_rng(2), 10**5)
        sampled_outputs = draws @ model.features(data.inputs).T
        stderr = np.std(sampled_outputs, axis=0, ddof=1) / math.sqrt(10**5)
        np.testing.assert_array_less(
            np.abs(sampled_outputs.mean(axis=0) - noiseless.mean), 3 * stderr + 1e-12
        )
        cov_est = np.cov(sampled_outputs.T).reshape(noiseless.cov.shape)
        scale = np.sqrt(np.outer(np.diag(noiseless.cov), np.diag(noiseless.cov)))
        np.testing.assert_allclose(cov_est, noiseless.cov, atol=0.05 * float(scale.max()))

    def test_marginals_match_joint_diagonal(self):
        rng = np.random.default_rng(3)
        model, data = random_model_and_data(rng)
        weights = random_full_gaussian(rng, model.num_features)
        noiseless, _ = predictive(model, weights, data.inputs)
        means, variances = predictive_marginals(model, weights, data.inputs)
        np.testing.assert_allclose(means, noiseless.mean, rtol=1e-12)
        np.testing.assert_allclose(variances, np.diag(noiseless.cov), rtol=1e-10, atol=1e-12)


class TestNlpd:
    def test_perfect_prediction_value(self):
        model = identity_feature_model(noise_variance=0.3)
        w = full_gaussian([1.0], [[0.2]])
        data = Dataset([[2.0]], [2.0])  # prediction mean is exactly the target
        total_var = 0.2 * 4.0 + 0.3
        assert nlpd(model, w, data) == pytest.approx(0.5 * math.log(2 * math.pi * total_var))

    def test_standard_normal_predictive_at_zero(self):
        model = identity_feature_model(noise_variance=0.5)
        w = full_gaussian([0.0], [[0.5]])  # predictive at x=1: N(0, 0.5 + 0.5) = N(0, 1)
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
        assert nlpd(model, post, data) < nlpd(model, model.prior, data)


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
            dense = gaussian.log_density(full_gaussian(np.zeros(data.size), cov), data.targets)
            assert log_marginal_likelihood(model, data) == pytest.approx(dense, rel=1e-10)

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
            q = random_full_gaussian(rng, model.num_features)
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
            perturbed = full_gaussian(mean, cov)
            assert elbo_closed_form(perturbed, model, data) <= best + 1e-10

    def test_predictive_matches_kernel_regression(self):
        # Weight-space posterior pushed to the training inputs must equal the
        # function-space (kernel trick) posterior with gram matrix Phi Phi^T.
        rng = np.random.default_rng(10)
        for _ in range(10):
            model, data = random_model_and_data(rng, k_max=5, n_max=8)
            post = exact_posterior(model, data)
            noiseless, _ = predictive(model, post, data.inputs)
            phi = model.features(data.inputs)
            gram = phi @ phi.T
            solve = np.linalg.solve(gram + model.noise_variance * np.eye(data.size), np.eye(data.size))
            gp_mean = gram @ solve @ data.targets
            gp_cov = gram - gram @ solve @ gram
            np.testing.assert_allclose(noiseless.mean, gp_mean, atol=1e-8 * (1 + np.abs(gp_mean).max()))
            np.testing.assert_allclose(noiseless.cov, gp_cov, atol=1e-8 * (1 + np.abs(gram).max()))


class TestDatasetIo:
    def test_last_column_is_target(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# x1,x2,y\n1,2,3\n4,5,6\n")
        data = load_dataset(path)
        np.testing.assert_array_equal(data.inputs, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(data.targets, [3, 6])

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1\n2\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValueError):
            Dataset([[1.0]], [float("inf")])

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
