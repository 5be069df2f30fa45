"""Tests of the rewrite that puts a problem under another Gaussian prior
N(mu, L L^T) into the package's one prior N(0, I): features Phi L, targets
y - Phi mu, and w = mu + L v (`conftest.whiten`, as `blr` describes it).

Oracles: each quantity of the rewritten problem is compared with the same
quantity of the original problem under its own prior, computed by code that
takes any Gaussian prior (`gaussian.kl_divergence`, scipy's density, Gaussian
conditioning) or by a dense pushforward, with the variational state mapped
back through w = mu + L v.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from conftest import (
    counted_rows,
    lower_factor,
    random_gaussian,
    random_uncorrelated_gaussian,
    whiten,
)
from fvi_bench import gaussian
from fvi_bench.blr import (
    BlrModel,
    Dataset,
    exact_posterior,
    log_marginal_likelihood,
    nlpd,
)
from fvi_bench.features import RbfFeatureMap
from fvi_bench.variational import (
    Exact,
    Family,
    Objective,
    VariationalState,
    exact_kl,
    expected_log_likelihood,
    marginal_kl,
    measurement_set_from_points,
)

RTOL = 1e-8

problems = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["full", "diagonal"]),
    st.sampled_from([Family.FULL, Family.FFG]),
)


def make_problem(seed, prior_kind, family):
    """A model, a random non-standard prior, train and test data, and a
    random state over the whitened weights v."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    fmap = RbfFeatureMap(
        np.sort(rng.uniform(-2, 2, k)).reshape(-1, 1), np.array([float(rng.uniform(0.4, 1.2))])
    )
    make_prior = random_gaussian if prior_kind == "full" else random_uncorrelated_gaussian
    model = BlrModel(fmap, noise_variance=float(rng.uniform(0.1, 0.8)))
    prior = make_prior(rng, k)
    n, n_test = int(rng.integers(3, 11)), 5
    train = Dataset(rng.uniform(-2, 2, (n, 1)), 3.0 * rng.standard_normal(n))
    test = Dataset(rng.uniform(-2, 2, (n_test, 1)), 3.0 * rng.standard_normal(n_test))
    mean = rng.standard_normal(k)
    if family is Family.FULL:
        lower = np.tril(0.3 * rng.standard_normal((k, k)), -1)
        lower[np.diag_indices(k)] = np.exp(0.3 * rng.standard_normal(k))
        state = VariationalState(family, mean, lower)
    else:
        state = VariationalState(family, mean, np.exp(0.3 * rng.standard_normal(k)))
    return rng, model, prior, train, test, state


def to_weights(prior, factor: np.ndarray, state: VariationalState) -> VariationalState:
    """The state of w = mu + L v for v distributed as ``state``.  L times a
    lower-triangular or diagonal scale stays lower triangular, so the result
    is a full-family state."""
    scale = factor @ (state.scale if state.is_full else np.diag(state.scale))
    return VariationalState(Family.FULL, prior.mean + factor @ state.mean, scale)


class TestWhitenInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problems)
    def test_objective_terms_and_predictive_are_invariant(self, problem):
        _, model, prior, train, test, state = make_problem(*problem)
        white, factor, white_train, white_test = whiten(model, prior, train, test)
        mapped = to_weights(prior, factor, state)

        weight_kl, _ = exact_kl(state, white)
        assert weight_kl == pytest.approx(
            gaussian.kl_divergence(mapped.to_gaussian(), prior), rel=RTOL
        )
        white_ell, _ = expected_log_likelihood(state, white, white_train)
        original_ell, _ = expected_log_likelihood(mapped, model, train)
        assert white_ell == pytest.approx(original_ell, rel=RTOL)
        phi = model.features(train.inputs)
        evidence = multivariate_normal.logpdf(
            train.targets,
            phi @ prior.mean,
            phi @ prior.cov @ phi.T + model.noise_variance * np.eye(train.size),
        )
        assert log_marginal_likelihood(white, white_train) == pytest.approx(evidence, rel=RTOL)
        assert nlpd(white, state.to_gaussian(), white_test) == pytest.approx(
            nlpd(model, mapped.to_gaussian(), test), rel=RTOL
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problems)
    def test_marginal_kl_is_invariant(self, problem):
        rng, model, prior, _, _, state = make_problem(*problem)
        points = rng.uniform(-2, 2, (int(rng.integers(1, model.num_features + 1)), 1))
        rows = model.features(points)
        assume(np.linalg.cond(rows @ prior.cov @ rows.T) < 1e6)
        prior_marginal = gaussian.GaussianDist(rows @ prior.mean, lower_factor(rows @ prior.factor))
        white, factor = whiten(model, prior)
        value, _ = marginal_kl(state, white, measurement_set_from_points(points))
        q = to_weights(prior, factor, state).to_gaussian()
        q_marginal = gaussian.GaussianDist(rows @ q.mean, lower_factor(rows @ q.factor))
        assert value == pytest.approx(
            gaussian.kl_divergence(q_marginal, prior_marginal), rel=1e-6, abs=1e-9
        )

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(problems)
    def test_exact_posterior_maps_back(self, problem):
        """Against w | y by Gaussian conditioning under the original prior:
        mean mu + Sigma Phi^T G^{-1} (y - Phi mu) and covariance
        Sigma - Sigma Phi^T G^{-1} Phi Sigma, with G = Phi Sigma Phi^T + sigma^2 I."""
        _, model, prior, train, _, _ = make_problem(*problem)
        white, factor, white_train = whiten(model, prior, train)
        posterior = exact_posterior(white, white_train)
        phi = model.features(train.inputs)
        cross = prior.cov @ phi.T
        gain = np.linalg.solve(phi @ cross + model.noise_variance * np.eye(train.size), cross.T)
        expected_mean = prior.mean + gain.T @ (train.targets - phi @ prior.mean)
        expected_cov = prior.cov - cross @ gain
        np.testing.assert_allclose(
            prior.mean + factor @ posterior.mean, expected_mean, rtol=1e-7, atol=1e-9
        )
        np.testing.assert_allclose(
            factor @ posterior.cov @ factor.T, expected_cov, rtol=1e-7, atol=1e-9
        )


class TestWhitenedProblemPerPair:
    """The closed forms on the problem that `conftest.whiten` makes of a model
    under a non-standard prior share one feature matrix, as on any (model,
    dataset) pair: the whitened model is a plain `BlrModel`."""

    def test_only_the_first_closed_form_evaluates_rows(self):
        _, model, prior, train, _, _ = make_problem(2, "full", Family.FULL)
        white, _, white_train = whiten(model, prior, train)
        with counted_rows() as first:
            posterior = exact_posterior(white, white_train)
        with counted_rows() as later:
            evidence = log_marginal_likelihood(white, white_train)
            again = exact_posterior(white, white_train)
            assert log_marginal_likelihood(white, white_train) == evidence
        assert first == [train.size] and later == []
        np.testing.assert_array_equal(again.mean, posterior.mean)
        np.testing.assert_array_equal(again.factor, posterior.factor)

    def test_model_is_collected_once_dropped(self):
        _, model, prior, train, _, _ = make_problem(3, "diagonal", Family.FFG)
        white, _, white_train = whiten(model, prior, train)
        exact_posterior(white, white_train)
        log_marginal_likelihood(white, white_train)
        white_ref = weakref.ref(white)
        del white
        gc.collect()
        assert white_ref() is None


class TestNonStandardPriorRejected:
    def test_variational_code_requires_whitening(self):
        """A model takes no prior.  The variational objectives reach a problem
        under N(mu, L L^T) through the rewrite, where the exact ELBO at the
        whitened posterior is the original problem's log evidence."""
        _, model, prior, train, _, _ = make_problem(1, "diagonal", Family.FFG)
        with pytest.raises(TypeError, match="prior"):
            BlrModel(model.feature_map, model.noise_variance, prior=prior)
        white, _, white_train = whiten(model, prior, train)
        posterior = exact_posterior(white, white_train)
        state = VariationalState(Family.FULL, posterior.mean, posterior.factor)
        elbo = Objective(Exact(), white, white_train).value_and_grad(
            state, np.random.default_rng(0)
        ).elbo_estimate
        phi = model.features(train.inputs)
        evidence = multivariate_normal.logpdf(
            train.targets,
            phi @ prior.mean,
            phi @ prior.cov @ phi.T + model.noise_variance * np.eye(train.size),
        )
        assert elbo == pytest.approx(evidence, rel=RTOL)
