"""Tests for `blr.whiten`, the one way a general Gaussian prior reaches the
variational code.

Oracles: each quantity of the whitened problem is compared with the same
quantity of the original problem under its own prior N(mu, L L^T), computed
by code that takes any Gaussian prior (`gaussian`, scipy's density) or by a
dense pushforward, with the variational state mapped back through
w = mu + L v.  The closed forms of `blr` whiten the problem themselves;
`test_blr.py` checks them on general priors against scipy densities and the
prior-precision form.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from conftest import counted_rows, random_gaussian, random_uncorrelated_gaussian
from fvi_bench import gaussian
from fvi_bench.blr import (
    BlrModel,
    Dataset,
    exact_posterior,
    log_marginal_likelihood,
    nlpd,
    whiten,
)
from fvi_bench.errors import NonStandardPriorError
from fvi_bench.features import RbfFeatureMap
from fvi_bench.variational import (
    Exact,
    Family,
    FixedA,
    MarginalKl,
    Objective,
    VariationalState,
    exact_kl,
    expected_log_likelihood,
    fixed_a_optimal_mean,
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
    """A model with a random non-standard prior, train and test data, and a
    random state over the whitened weights v."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    fmap = RbfFeatureMap(
        np.sort(rng.uniform(-2, 2, k)).reshape(-1, 1), np.array([float(rng.uniform(0.4, 1.2))])
    )
    make_prior = random_gaussian if prior_kind == "full" else random_uncorrelated_gaussian
    model = BlrModel(fmap, noise_variance=float(rng.uniform(0.1, 0.8)), prior=make_prior(rng, k))
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
    return rng, model, train, test, state


def to_weights(whitened: BlrModel, state: VariationalState) -> VariationalState:
    """The state of w = mu + L v for v distributed as ``state``.  L times a
    lower-triangular or diagonal scale stays lower triangular, so the result
    is a full-family state."""
    original, factor = whitened.feature_map.original, whitened.feature_map.factor
    scale = factor @ (state.scale if state.is_full else np.diag(state.scale))
    return VariationalState(Family.FULL, original.prior.mean + factor @ state.mean, scale)


class TestWhitenInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problems)
    def test_objective_terms_and_predictive_are_invariant(self, problem):
        _, model, train, test, state = make_problem(*problem)
        white, white_train, white_test = whiten(model, train, test)
        assert white.has_standard_prior()
        mapped = to_weights(white, state)

        weight_kl, _ = exact_kl(state, white)
        assert weight_kl == pytest.approx(
            gaussian.kl_divergence(mapped.to_gaussian(), model.prior), rel=RTOL
        )
        white_ell, _ = expected_log_likelihood(state, white, white_train)
        original_ell, _ = expected_log_likelihood(mapped, model, train)
        assert white_ell == pytest.approx(original_ell, rel=RTOL)
        phi = model.features(train.inputs)
        evidence = multivariate_normal.logpdf(
            train.targets,
            phi @ model.prior.mean,
            phi @ model.prior.cov @ phi.T + model.noise_variance * np.eye(train.size),
        )
        assert log_marginal_likelihood(white, white_train) == pytest.approx(evidence, rel=RTOL)
        assert nlpd(white, state.to_gaussian(), white_test) == pytest.approx(
            nlpd(model, mapped.to_gaussian(), test), rel=RTOL
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problems)
    def test_marginal_kl_is_invariant(self, problem):
        rng, model, _, _, state = make_problem(*problem)
        points = rng.uniform(-2, 2, (int(rng.integers(1, model.num_features + 1)), 1))
        rows = model.features(points)
        prior_cov = model.prior.cov
        prior_marginal = gaussian.GaussianDist(rows @ model.prior.mean, rows @ prior_cov @ rows.T)
        assume(np.linalg.cond(prior_marginal.cov) < 1e6)
        (white,) = whiten(model)
        value, _ = marginal_kl(state, white, measurement_set_from_points(points))
        q = to_weights(white, state).to_gaussian()
        q_marginal = gaussian.GaussianDist(rows @ q.mean, rows @ q.cov @ rows.T)
        assert value == pytest.approx(
            gaussian.kl_divergence(q_marginal, prior_marginal), rel=1e-6, abs=1e-9
        )

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(problems)
    def test_exact_posterior_maps_back(self, problem):
        _, model, train, _, _ = make_problem(*problem)
        white, white_train = whiten(model, train)
        posterior = exact_posterior(white, white_train)
        factor = white.feature_map.factor
        expected = exact_posterior(model, train)
        np.testing.assert_allclose(
            model.prior.mean + factor @ posterior.mean, expected.mean, rtol=1e-7, atol=1e-9
        )
        np.testing.assert_allclose(
            factor @ posterior.cov @ factor.T, expected.cov, rtol=1e-7, atol=1e-9
        )

    def test_standard_prior_is_returned_unchanged(self):
        _, model, train, _, _ = make_problem(0, "full", Family.FULL)
        standard = BlrModel(model.feature_map, model.noise_variance)
        white, white_train = whiten(standard, train)
        assert white is standard
        assert white_train is train


class TestWhitenedProblemPerPair:
    """The closed forms on a model with a non-standard prior and a dataset
    share one whitened problem.  Each call once whitened the pair afresh:
    one call of each evaluated the rows four times."""

    def test_only_the_first_closed_form_evaluates_rows(self):
        _, model, train, _, _ = make_problem(2, "full", Family.FULL)
        with counted_rows() as first:
            posterior = exact_posterior(model, train)
        with counted_rows() as later:
            evidence = log_marginal_likelihood(model, train)
            again = exact_posterior(model, train)
            assert log_marginal_likelihood(model, train) == evidence
        assert first and later == []
        np.testing.assert_array_equal(again.mean, posterior.mean)
        np.testing.assert_array_equal(again.cov, posterior.cov)

    def test_model_is_collected_once_dropped(self):
        _, model, train, _, _ = make_problem(3, "diagonal", Family.FFG)
        exact_posterior(model, train)
        log_marginal_likelihood(model, train)
        model_ref = weakref.ref(model)
        del model
        gc.collect()
        assert model_ref() is None


class TestNonStandardPriorRejected:
    def test_variational_code_requires_whitening(self):
        _, model, train, _, state = make_problem(1, "diagonal", Family.FFG)
        mset = measurement_set_from_points(train.inputs[:2])
        with pytest.raises(NonStandardPriorError):
            exact_kl(state, model)
        with pytest.raises(NonStandardPriorError):
            MarginalKl(model, mset)
        with pytest.raises(NonStandardPriorError):
            fixed_a_optimal_mean(model, train, mset)
        for kind in (Exact(), FixedA(mset)):
            with pytest.raises(NonStandardPriorError):
                Objective(kind, model, train)
        white, white_train = whiten(model, train)
        Objective(FixedA(mset), white, white_train).value_and_grad(
            state, np.random.default_rng(0)
        )
