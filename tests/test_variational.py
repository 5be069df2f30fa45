"""Tests for variational states, objectives, and the closed-form oracles.

The independent oracles here: central finite differences for every gradient,
Monte Carlo for the expected log-likelihood, the directly-evaluated textbook
trace/log-det expression for the marginal KL, and hand algebra for the
stationary-mean formulas.
"""

import math

import numpy as np
import pytest

from fvi_bench import gaussian
from fvi_bench.blr import BlrModel, Dataset, exact_posterior, log_marginal_likelihood
from fvi_bench.errors import DegenerateMarginalError, InvalidBoxError
from fvi_bench.features import RbfFeatureMap
from fvi_bench.optimize import finite_diff_check
from fvi_bench.variational import (
    Exact,
    Family,
    FixedA,
    MarginalKl,
    MeasurementPolicy,
    MeasurementSet,
    MinibatchSchedule,
    Objective,
    Provenance,
    RandA,
    Ssge,
    VariationalState,
    box_from_inputs,
    exact_kl,
    expected_log_likelihood,
    fixed_a_optimal_mean,
    marginal_kl,
    measurement_set_from_points,
    sample_measurement_set,
)


def random_state(rng, family, k):
    mean = rng.standard_normal(k)
    if family is Family.FULL:
        lower = np.tril(0.3 * rng.standard_normal((k, k)), -1)
        lower[np.diag_indices(k)] = np.exp(0.3 * rng.standard_normal(k))
        return VariationalState(Family.FULL, mean, lower)
    return VariationalState(Family.FFG, mean, np.exp(0.3 * rng.standard_normal(k)))


def random_problem(rng, *, k=None, n=None):
    k = k or int(rng.integers(2, 7))
    n = n or int(rng.integers(3, 11))
    fmap = RbfFeatureMap(
        np.sort(rng.uniform(-2, 2, k)).reshape(-1, 1), np.array([float(rng.uniform(0.4, 1.2))])
    )
    model = BlrModel(fmap, noise_variance=float(rng.uniform(0.1, 0.8)))
    data = Dataset(rng.uniform(-2, 2, (n, 1)), rng.standard_normal(n))
    return model, data


def random_measurement(rng, data, m):
    policy = MeasurementPolicy(m, 0.5, box_from_inputs(data.inputs))
    return sample_measurement_set(policy, data, rng)


def textbook_marginal_kl(state, model, mset):
    """Appendix-style direct evaluation with explicit inverses (oracle)."""
    rows = model.features(mset.points)
    m = rows.shape[0]
    p_cov = rows @ rows.T
    q_cov = rows @ state.cov_matrix() @ rows.T
    q_mean = rows @ state.mean
    p_inv = np.linalg.inv(p_cov)
    ratio = p_inv @ q_cov
    return 0.5 * (
        -m + q_mean @ p_inv @ q_mean + np.trace(ratio) - np.log(np.linalg.det(ratio))
    )


class TestVariationalState:
    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_params_round_trip(self, family):
        rng = np.random.default_rng(0)
        state = random_state(rng, family, 5)
        rebuilt = state.with_params(state.params())
        np.testing.assert_allclose(rebuilt.mean, state.mean)
        np.testing.assert_allclose(rebuilt.scale, state.scale)

    def test_prior_state_is_standard_normal(self):
        for family in (Family.FULL, Family.FFG):
            state = VariationalState.prior_state(family, 4)
            np.testing.assert_array_equal(state.mean, np.zeros(4))
            np.testing.assert_allclose(state.cov_matrix(), np.eye(4))

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            VariationalState(Family.FFG, np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            VariationalState(Family.FULL, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_apply_scale_matches_cov(self):
        rng = np.random.default_rng(1)
        for family in (Family.FULL, Family.FFG):
            state = random_state(rng, family, 4)
            eps = rng.standard_normal((20000, 4))
            draws = state.apply_scale(eps)
            np.testing.assert_allclose(
                draws.T @ draws / len(draws), state.cov_matrix(), atol=0.15
            )


class TestExpectedLogLikelihood:
    def test_point_mass_perfect_fit(self):
        rng = np.random.default_rng(2)
        model, data = random_problem(rng, k=3, n=6)
        phi = model.features(data.inputs)
        weights = rng.standard_normal(3)
        fit_data = Dataset(data.inputs, phi @ weights)
        state = VariationalState(Family.FFG, weights, np.full(3, 1e-9))
        value, _ = expected_log_likelihood(state, model, fit_data)
        expected = -0.5 * fit_data.size * math.log(2 * math.pi * model.noise_variance)
        assert value == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_gradient_matches_finite_differences(self, family):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model, data = random_problem(rng)
            state = random_state(rng, family, model.num_features)
            report = finite_diff_check(
                lambda p: expected_log_likelihood(state.with_params(p), model, data),
                state.params(),
            )
            assert report.max_rel_error < 1e-6

    def test_mean_gradient_formula(self):
        rng = np.random.default_rng(4)
        model, data = random_problem(rng, k=4, n=7)
        state = random_state(rng, Family.FULL, 4)
        _, grad = expected_log_likelihood(state, model, data)
        phi = model.features(data.inputs)
        expected = phi.T @ (data.targets - phi @ state.mean) / model.noise_variance
        np.testing.assert_allclose(grad[:4], expected, rtol=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        model, data = random_problem(rng, k=3, n=5)
        state = random_state(rng, Family.FULL, 3)
        value, _ = expected_log_likelihood(state, model, data)
        draws, _ = gaussian.sample(state.to_gaussian(), np.random.default_rng(6), 10**5)
        phi = model.features(data.inputs)
        per_draw = -0.5 * data.size * np.log(2 * np.pi * model.noise_variance) - 0.5 * np.sum(
            (data.targets - draws @ phi.T) ** 2, axis=1
        ) / model.noise_variance
        stderr = float(np.std(per_draw, ddof=1) / math.sqrt(len(per_draw)))
        assert abs(float(np.mean(per_draw)) - value) < 3 * stderr

    def test_minibatch_rescaling_is_unbiased_over_epoch(self):
        rng = np.random.default_rng(7)
        model, data = random_problem(rng, k=3, n=8)
        state = random_state(rng, Family.FFG, 3)
        full_value, full_grad = expected_log_likelihood(state, model, data)
        schedule = MinibatchSchedule(data.size, 2)
        batch_rng = np.random.default_rng(8)
        values, grads = [], []
        for _ in range(4):  # one epoch of 4 disjoint batches
            batch = schedule.next_batch(batch_rng)
            value, grad = expected_log_likelihood(state, model, data, minibatch=batch)
            values.append(value)
            grads.append(grad)
        assert np.mean(values) == pytest.approx(full_value, rel=1e-10)
        np.testing.assert_allclose(np.mean(grads, axis=0), full_grad, rtol=1e-10)


class TestExactKl:
    def test_prior_state_is_zero(self):
        model, _ = random_problem(np.random.default_rng(9), k=4)
        for family in (Family.FULL, Family.FFG):
            value, grad = exact_kl(VariationalState.prior_state(family, 4), model)
            assert value == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_ffg_shared_scale_formula(self):
        model, _ = random_problem(np.random.default_rng(10), k=5)
        s = 1.7
        state = VariationalState(Family.FFG, np.zeros(5), np.full(5, s))
        value, _ = exact_kl(state, model)
        assert value == pytest.approx(5 * (s**2 - 1 - 2 * math.log(s)) / 2, rel=1e-12)

    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_gradient_matches_finite_differences(self, family):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model, _ = random_problem(rng)
            state = random_state(rng, family, model.num_features)
            report = finite_diff_check(
                lambda p: exact_kl(state.with_params(p), model), state.params()
            )
            assert report.max_rel_error < 1e-6

    def test_matches_gaussian_module(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            model, _ = random_problem(rng)
            family = Family.FULL if rng.random() < 0.5 else Family.FFG
            state = random_state(rng, family, model.num_features)
            value, _ = exact_kl(state, model)
            reference = gaussian.kl_divergence(state.to_gaussian(), model.prior)
            assert value == pytest.approx(reference, rel=1e-10, abs=1e-12)

    def test_dominates_marginal_kl(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            model, data = random_problem(rng)
            family = Family.FULL if rng.random() < 0.5 else Family.FFG
            state = random_state(rng, family, model.num_features)
            mset = random_measurement(rng, data, int(rng.integers(1, model.num_features + 2)))
            weight_kl, _ = exact_kl(state, model)
            function_kl, _ = marginal_kl(state, model, mset)
            assert function_kl <= weight_kl + 1e-9


class TestMarginalKl:
    def test_prior_state_is_zero(self):
        rng = np.random.default_rng(14)
        model, data = random_problem(rng, k=4)
        mset = random_measurement(rng, data, 3)
        for family in (Family.FULL, Family.FFG):
            value, grad = marginal_kl(VariationalState.prior_state(family, 4), model, mset)
            assert value == pytest.approx(0.0, abs=1e-10)
            np.testing.assert_allclose(grad, 0.0, atol=1e-10)

    def test_square_invertible_rows_equal_weight_space(self):
        # The equality case needs a certifiably full-rank square feature
        # matrix; features evaluated at well-separated centers provide one.
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 20:
            k = int(rng.integers(2, 7))
            fmap = RbfFeatureMap(
                np.linspace(-2, 2, k).reshape(-1, 1), np.array([float(rng.uniform(0.2, 0.5))])
            )
            model = BlrModel(fmap, noise_variance=0.1)
            mset = measurement_set_from_points(fmap.centers)
            if np.linalg.cond(model.features(mset.points)) > 1e4:
                continue
            family = Family.FULL if rng.random() < 0.5 else Family.FFG
            state = random_state(rng, family, k)
            function_kl, _ = marginal_kl(state, model, mset)
            weight_kl, _ = exact_kl(state, model)
            assert function_kl == pytest.approx(weight_kl, rel=1e-8)
            checked += 1

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 20:
            model, data = random_problem(rng)
            family = Family.FULL if rng.random() < 0.5 else Family.FFG
            state = random_state(rng, family, model.num_features)
            m = int(rng.integers(1, model.num_features + 1))
            mset = random_measurement(rng, data, m)
            rows = model.features(mset.points)
            if np.linalg.cond(rows @ rows.T) > 1e6:
                continue  # the explicit-inverse oracle itself degrades here
            value, _ = marginal_kl(state, model, mset)
            assert value == pytest.approx(
                textbook_marginal_kl(state, model, mset), rel=1e-7, abs=1e-9
            )
            checked += 1

    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_gradient_matches_finite_differences(self, family):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model, data = random_problem(rng)
            state = random_state(rng, family, model.num_features)
            mset = random_measurement(rng, data, int(rng.integers(1, 5)))
            report = finite_diff_check(
                lambda p: marginal_kl(state.with_params(p), model, data and mset),
                state.params(),
            )
            assert report.max_rel_error < 1e-6

    def test_mean_gradient_is_projection(self):
        rng = np.random.default_rng(18)
        model, data = random_problem(rng, k=5)
        state = random_state(rng, Family.FULL, 5)
        mset = random_measurement(rng, data, 3)
        op = MarginalKl(model, mset)
        _, grad = op.value_and_grad(state)
        np.testing.assert_allclose(grad[:5], op.projection @ state.mean, rtol=1e-9, atol=1e-12)

    def test_projection_idempotent_symmetric(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            model, data = random_problem(rng)
            mset = random_measurement(rng, data, int(rng.integers(1, model.num_features + 2)))
            proj = MarginalKl(model, mset).projection
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)
            np.testing.assert_allclose(proj, proj.T, atol=1e-8)

    def test_monotone_in_nested_sets(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            model, data = random_problem(rng)
            k = model.num_features
            family = Family.FULL if rng.random() < 0.5 else Family.FFG
            state = random_state(rng, family, k)
            big = random_measurement(rng, data, int(rng.integers(2, k + 1)))
            keep = int(rng.integers(1, big.size))
            small = MeasurementSet(big.points[:keep], big.provenance[:keep])
            small_kl, _ = marginal_kl(state, model, small)
            big_kl, _ = marginal_kl(state, model, big)
            assert small_kl <= big_kl + 1e-9

    def test_duplicate_rows_are_dropped(self):
        rng = np.random.default_rng(21)
        model, data = random_problem(rng, k=4)
        point = data.inputs[:1]
        mset = measurement_set_from_points(np.vstack([point, point, data.inputs[1:2]]))
        op = MarginalKl(model, mset)
        assert op.rows_dropped == 1
        assert op.size == 2

    def test_degenerate_variational_marginal_raises(self):
        rng = np.random.default_rng(22)
        model, data = random_problem(rng, k=4)
        mset = random_measurement(rng, data, 3)
        tiny = np.eye(4)
        tiny[np.diag_indices(4)] = 1e-200
        state = VariationalState(Family.FULL, np.zeros(4), tiny)
        with pytest.raises(DegenerateMarginalError):
            marginal_kl(state, model, mset)


class TestMeasurementSampling:
    def test_half_data_half_box(self):
        rng = np.random.default_rng(23)
        model, data = random_problem(rng, n=10)
        policy = MeasurementPolicy(10, 0.5, box_from_inputs(data.inputs))
        mset = sample_measurement_set(policy, data, rng)
        tags = list(mset.provenance)
        assert tags.count(Provenance.FROM_DATA) == 5
        assert tags.count(Provenance.UNIFORM_BOX) == 5
        data_rows = {tuple(row) for row in data.inputs}
        for point, tag in zip(mset.points, mset.provenance):
            if tag is Provenance.FROM_DATA:
                assert tuple(point) in data_rows

    def test_zero_fraction_all_box(self):
        rng = np.random.default_rng(24)
        model, data = random_problem(rng)
        policy = MeasurementPolicy(6, 0.0, box_from_inputs(data.inputs))
        mset = sample_measurement_set(policy, data, rng)
        assert all(tag is Provenance.UNIFORM_BOX for tag in mset.provenance)
        lo, hi = policy.box[:, 0], policy.box[:, 1]
        assert np.all(mset.points >= lo) and np.all(mset.points <= hi)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(25)
        model, data = random_problem(rng)
        policy = MeasurementPolicy(8, 0.5, box_from_inputs(data.inputs))
        a = sample_measurement_set(policy, data, np.random.default_rng(42))
        b = sample_measurement_set(policy, data, np.random.default_rng(42))
        assert np.array_equal(a.points, b.points)
        assert a.provenance == b.provenance

    def test_oversized_data_fraction_samples_with_replacement(self):
        rng = np.random.default_rng(26)
        model, data = random_problem(rng, n=3)
        policy = MeasurementPolicy(12, 1.0, box_from_inputs(data.inputs))
        mset = sample_measurement_set(policy, data, rng)
        assert mset.size == 12

    def test_invalid_box_rejected(self):
        with pytest.raises(InvalidBoxError):
            MeasurementPolicy(4, 0.5, np.array([[1.0, 1.0]]))


class TestObjectives:
    def test_exact_at_posterior_equals_log_evidence(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            model, data = random_problem(rng)
            post = exact_posterior(model, data)
            factor = np.linalg.cholesky(post.cov)
            state = VariationalState(Family.FULL, post.mean, factor)
            evaluation = Objective(Exact(), model, data).value_and_grad(
                state, np.random.default_rng(0)
            )
            assert evaluation.elbo_estimate == pytest.approx(
                log_marginal_likelihood(model, data), abs=1e-8
            )

    def test_fixed_and_cached_rand_coincide(self):
        rng = np.random.default_rng(28)
        model, data = random_problem(rng, k=4, n=8)
        policy = MeasurementPolicy(
            3, 0.5, box_from_inputs(data.inputs), resample_each_step=False
        )
        drawn = sample_measurement_set(policy, data, np.random.default_rng(7))
        state = random_state(rng, Family.FULL, 4)
        rand_obj = Objective(RandA(policy), model, data)
        fixed_obj = Objective(FixedA(drawn), model, data)
        for step in range(5):
            rand_eval = rand_obj.value_and_grad(state, np.random.default_rng(7), step)
            fixed_eval = fixed_obj.value_and_grad(state, np.random.default_rng(99), step)
            assert rand_eval.elbo_estimate == fixed_eval.elbo_estimate
            np.testing.assert_array_equal(rand_eval.grad, fixed_eval.grad)

    def test_resampling_underestimates_exact_kl(self):
        rng = np.random.default_rng(29)
        model, data = random_problem(rng, k=5, n=10)
        state = random_state(rng, Family.FULL, 5)
        policy = MeasurementPolicy(3, 0.5, box_from_inputs(data.inputs))
        weight_kl, _ = exact_kl(state, model)
        draws = []
        sample_rng = np.random.default_rng(30)
        for _ in range(1000):
            mset = sample_measurement_set(policy, data, sample_rng)
            draws.append(marginal_kl(state, model, mset)[0])
        mean = float(np.mean(draws))
        stderr = float(np.std(draws, ddof=1) / math.sqrt(len(draws)))
        assert mean + 3 * stderr < weight_kl

    def test_ssge_logs_closed_form_kl_but_uses_estimated_grad(self):
        from fvi_bench.ssge import SsgeConfig

        rng = np.random.default_rng(31)
        model, data = random_problem(rng, k=4, n=8)
        state = random_state(rng, Family.FULL, 4)
        policy = MeasurementPolicy(
            3, 0.5, box_from_inputs(data.inputs), resample_each_step=False
        )
        ssge_obj = Objective(Ssge(policy, SsgeConfig(num_samples=50)), model, data)
        rand_obj = Objective(RandA(policy), model, data)
        ssge_eval = ssge_obj.value_and_grad(state, np.random.default_rng(5), 0)
        rand_eval = rand_obj.value_and_grad(state, np.random.default_rng(5), 0)
        assert ssge_eval.kl_term == pytest.approx(rand_eval.kl_term, rel=1e-12)
        assert not np.allclose(ssge_eval.grad, rand_eval.grad)

    def test_exact_objective_is_deterministic(self):
        rng = np.random.default_rng(32)
        model, data = random_problem(rng)
        state = random_state(rng, Family.FULL, model.num_features)
        a = Objective(Exact(), model, data).value_and_grad(state, np.random.default_rng(0))
        b = Objective(Exact(), model, data).value_and_grad(state, np.random.default_rng(123))
        assert a.elbo_estimate == b.elbo_estimate
        assert np.array_equal(a.grad, b.grad)


class TestFixedAOptimalMean:
    def test_square_invertible_recovers_map(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            model, data = random_problem(rng)
            k = model.num_features
            mset = measurement_set_from_points(model.feature_map.centers)
            mu = fixed_a_optimal_mean(model, data, mset)
            phi = model.features(data.inputs)
            map_solution = np.linalg.solve(
                phi.T @ phi + model.noise_variance * np.eye(k), phi.T @ data.targets
            )
            np.testing.assert_allclose(mu, map_solution, rtol=1e-6, atol=1e-8)

    def test_no_projection_recovers_min_norm_mle(self):
        rng = np.random.default_rng(34)
        model, data = random_problem(rng, k=5, n=9)
        mu = fixed_a_optimal_mean(model, data, None)
        phi = model.features(data.inputs)
        np.testing.assert_allclose(
            mu, np.linalg.pinv(phi, rcond=1e-8) @ data.targets, atol=1e-6
        )

    def test_stationarity_residual(self):
        rng = np.random.default_rng(35)
        model, data = random_problem(rng, k=5, n=8)
        mset = random_measurement(rng, data, 3)
        mu = fixed_a_optimal_mean(model, data, mset)
        phi = model.features(data.inputs)
        projection = MarginalKl(model, mset).projection
        residual = (
            phi.T @ data.targets / model.noise_variance
            - phi.T @ phi @ mu / model.noise_variance
            - projection @ mu
        )
        assert float(np.abs(residual).max()) < 1e-8
