"""Tests for variational states, objectives, and the closed-form oracles.

The independent oracles here: central finite differences for every gradient,
Monte Carlo and a direct residual evaluation for the expected log-likelihood,
the directly-evaluated textbook trace/log-det expression for the marginal KL,
the SVD form of the marginal KL that the QR form replaced, pivoted QR for the
retained measurement rows, and hand algebra for the stationary-mean formulas.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ILL_CONDITIONED_LENGTHSCALES,
    WORKLOAD_SHAPES,
    ill_conditioned_set,
    max_gradient_error,
    relative_error,
    svd_form,
    workload_shaped_sets,
)
from fvi_bench import blr, features, gaussian, variational
from fvi_bench.blr import BlrModel, Dataset, exact_posterior, log_marginal_likelihood
from fvi_bench.errors import (
    DegenerateMarginalError,
    DimensionMismatchError,
    InvalidBoxError,
    NonFiniteValueError,
)
from fvi_bench.features import (
    RANK_RTOL,
    RbfFeatureMap,
    evaluate,
    independent_rows,
)
from fvi_bench.variational import (
    Exact,
    Family,
    FixedA,
    MarginalKl,
    MeasurementPolicy,
    MeasurementSet,
    MinibatchSchedule,
    Objective,
    RandA,
    Ssge,
    VariationalState,
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
    policy = MeasurementPolicy(
        m, 0.5, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
    )
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
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([Family.FULL, Family.FFG]),
        st.integers(1, 6),
    )
    @example(0, Family.FULL, 5)
    @example(0, Family.FFG, 5)
    def test_params_round_trip_property(self, seed, family, dim):
        state = random_state(np.random.default_rng(seed), family, dim)
        rebuilt = state.with_params(state.params())
        np.testing.assert_array_equal(rebuilt.mean, state.mean)
        # The full diagonal and the ffg scales are stored as logs, and
        # exp(log(s)) may miss s by an ulp; every other entry is stored as is.
        logged = np.eye(state.dim, dtype=bool) if state.is_full else np.ones(state.dim, bool)
        np.testing.assert_array_equal(rebuilt.scale[~logged], state.scale[~logged])
        np.testing.assert_array_max_ulp(rebuilt.scale[logged], state.scale[logged], 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([Family.FULL, Family.FFG]))
    def test_pack_grad_is_the_parameter_gradient(self, seed, family):
        """pack_grad(gm, gs) is the parameter gradient of gm . mean + <gs, scale>,
        the inner product over the lower triangle (full) or the vector (ffg)."""
        rng = np.random.default_rng(seed)
        state = random_state(rng, family, int(rng.integers(1, 7)))
        grad_mean = rng.standard_normal(state.dim)
        grad_scale = rng.standard_normal(state.scale.shape)

        def linear(params):
            at = state.with_params(params)
            # A full scale is zero above the diagonal, so the plain sum is
            # the lower-triangle inner product.
            value = grad_mean @ at.mean + np.sum(grad_scale * at.scale)
            return float(value), at.pack_grad(grad_mean, grad_scale)

        assert max_gradient_error(linear, state.params()) < 1e-7

    def test_strict_lower_mask_is_built_once_and_read_only(self):
        mask = variational._strict_lower(6)
        assert variational._strict_lower(6) is mask
        assert mask.dtype == bool and not mask.flags.writeable
        # A boolean mask selects in row-major order: the np.tril_indices order.
        np.testing.assert_array_equal(
            np.flatnonzero(mask), np.ravel_multi_index(np.tril_indices(6, -1), (6, 6))
        )

    def test_full_parameter_layout_is_row_major(self):
        """The round trip holds for any packing order; this pins the order
        itself, which a column-major gather such as ``scale.T[mask]`` breaks."""
        mean = np.array([0.1, -0.2, 0.3])
        factor = np.array([[1.5, 0.0, 0.0], [0.4, 2.0, 0.0], [-0.7, 0.9, 0.5]])
        state = VariationalState(Family.FULL, mean, factor)
        expected = [0.1, -0.2, 0.3, math.log(1.5), math.log(2.0), math.log(0.5), 0.4, -0.7, 0.9]
        np.testing.assert_array_equal(state.params(), expected)
        # Entries above the diagonal are ignored; the diagonal is chained
        # through exp, so its slot holds grad * scale.
        grad_scale = np.array([[1.0, 9.0, 9.0], [2.0, 3.0, 9.0], [4.0, 5.0, 6.0]])
        packed = state.pack_grad(np.array([7.0, 8.0, 9.0]), grad_scale)
        np.testing.assert_array_equal(packed, [7.0, 8.0, 9.0, 1.5, 6.0, 3.0, 2.0, 4.0, 5.0])
        rebuilt = state.with_params(expected)
        np.testing.assert_array_equal(rebuilt.mean, mean)
        np.testing.assert_array_max_ulp(rebuilt.scale, factor, 1)
        np.testing.assert_array_equal(np.triu(rebuilt.scale, 1), 0.0)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_magnitudes_rejected(self, bad):
        """`NaN <= 0` is False, so these once passed the positivity checks."""
        with pytest.raises(ValueError, match="finite and positive"):
            VariationalState(Family.FFG, np.zeros(2), np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite and positive"):
            VariationalState(Family.FULL, np.zeros(2), np.diag([1.0, bad]))

    @pytest.mark.parametrize("above", [0.5, np.nan, np.inf, -np.inf])
    def test_full_scale_with_an_entry_above_the_diagonal_rejected(self, above):
        scale = np.eye(3)
        scale[0, 2] = above
        with pytest.raises(ValueError, match="lower triangular"):
            VariationalState(Family.FULL, np.zeros(3), scale)

    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    @pytest.mark.parametrize("log_scale", [-1000.0, 1000.0, np.nan])
    def test_with_params_outside_the_range_of_exp_raises_a_package_error(
        self, family, log_scale
    ):
        state = VariationalState.prior_state(family, 3)
        params = state.params()
        params[4] = log_scale  # the second log-scale
        with pytest.raises(NonFiniteValueError):
            state.with_params(params)

    def test_apply_scale_matches_cov(self):
        rng = np.random.default_rng(1)
        for family in (Family.FULL, Family.FFG):
            state = random_state(rng, family, 4)
            eps = rng.standard_normal((20000, 4))
            draws = state.apply_scale(eps)
            np.testing.assert_allclose(
                draws.T @ draws / len(draws), state.cov_matrix(), atol=0.15
            )


    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_reparameterized_draws_match_numpy_cholesky(self, family):
        state = random_state(np.random.default_rng(2), family, 4)
        eps = np.random.default_rng(3).standard_normal((7, 4))
        expected = state.mean + eps @ np.linalg.cholesky(state.cov_matrix()).T
        np.testing.assert_allclose(
            state.mean + state.apply_scale(eps), expected, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_to_gaussian_keeps_mean_and_covariance(self, family):
        state = random_state(np.random.default_rng(4), family, 3)
        dist = state.to_gaussian()
        np.testing.assert_array_equal(dist.mean, state.mean)
        np.testing.assert_allclose(dist.cov, state.cov_matrix(), rtol=1e-12)


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
            assert max_gradient_error(
                lambda p: expected_log_likelihood(state.with_params(p), model, data),
                state.params(),
            ) < 1e-6

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
        q = state.to_gaussian()
        eps = np.random.default_rng(6).standard_normal((10**5, 3))
        draws = q.mean + eps @ np.linalg.cholesky(q.cov).T
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

    @pytest.mark.parametrize(
        "minibatch",
        [[True, False, True, False, False, False], [0.9, 2.7], [0.0, 2.0]],
        ids=["boolean_mask", "fractional", "float"],
    )
    def test_non_integer_minibatch_rejected(self, minibatch):
        """Cast to int, the mask once selected rows [1, 0, 1, 0, 0, 0] and
        [0.9, 2.7] rows [0, 2], each without a word."""
        rng = np.random.default_rng(9)
        model, data = random_problem(rng, k=3, n=6)
        state = random_state(rng, Family.FFG, 3)
        with pytest.raises(ValueError, match="integer row indices"):
            expected_log_likelihood(state, model, data, minibatch=np.array(minibatch))

    @pytest.mark.parametrize("minibatch", [[], np.array([], dtype=int)], ids=["list", "int_array"])
    def test_empty_minibatch_rejected_as_out_of_range(self, minibatch):
        """An empty list is a float64 array; it is an empty batch, not a
        batch of non-integer indices."""
        rng = np.random.default_rng(9)
        model, data = random_problem(rng, k=3, n=6)
        state = random_state(rng, Family.FFG, 3)
        with pytest.raises(DimensionMismatchError, match="out of range"):
            expected_log_likelihood(state, model, data, minibatch=minibatch)


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
            assert max_gradient_error(
                lambda p: exact_kl(state.with_params(p), model), state.params()
            ) < 1e-6

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
            assert max_gradient_error(
                lambda p: marginal_kl(state.with_params(p), model, mset),
                state.params(),
            ) < 1e-6

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
            small = MeasurementSet(big.points[:keep])
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
        tiny = np.full(4, 1e-200)
        for state in (
            VariationalState(Family.FULL, np.zeros(4), np.diag(tiny)),
            VariationalState(Family.FFG, np.zeros(4), tiny),
        ):
            with pytest.raises(DegenerateMarginalError):
                marginal_kl(state, model, mset)
            with pytest.raises(DegenerateMarginalError):
                MarginalKl(model, mset).value(state)

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_value_is_the_value_of_value_and_grad(self, shape, family):
        model, sets = workload_shaped_sets(shape, seed=23, count=3)
        rng = np.random.default_rng(24)
        for mset in sets:
            op = MarginalKl(model, mset)
            state = random_state(rng, family, model.num_features)
            assert op.value(state) == op.value_and_grad(state)[0]


class TestMeasurementSampling:
    def test_half_data_half_box(self):
        rng = np.random.default_rng(23)
        model, data = random_problem(rng, n=10)
        policy = MeasurementPolicy(
            10, 0.5, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        mset = sample_measurement_set(policy, data, rng)
        assert mset.size == 10
        # floor(10 * 0.5) data rows come first, then the box draws.
        data_rows = {tuple(row) for row in data.inputs}
        assert all(tuple(point) in data_rows for point in mset.points[:5])
        assert not any(tuple(point) in data_rows for point in mset.points[5:])
        lo, hi = policy.box[:, 0], policy.box[:, 1]
        assert np.all(mset.points[5:] >= lo) and np.all(mset.points[5:] <= hi)

    def test_zero_fraction_all_box(self):
        rng = np.random.default_rng(24)
        model, data = random_problem(rng)
        policy = MeasurementPolicy(
            6, 0.0, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        mset = sample_measurement_set(policy, data, rng)
        data_rows = {tuple(row) for row in data.inputs}
        assert not any(tuple(point) in data_rows for point in mset.points)
        lo, hi = policy.box[:, 0], policy.box[:, 1]
        assert np.all(mset.points >= lo) and np.all(mset.points <= hi)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(25)
        model, data = random_problem(rng)
        policy = MeasurementPolicy(
            8, 0.5, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        a = sample_measurement_set(policy, data, np.random.default_rng(42))
        b = sample_measurement_set(policy, data, np.random.default_rng(42))
        assert np.array_equal(a.points, b.points)

    def test_oversized_data_fraction_samples_with_replacement(self):
        rng = np.random.default_rng(26)
        model, data = random_problem(rng, n=3)
        policy = MeasurementPolicy(
            12, 1.0, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        mset = sample_measurement_set(policy, data, rng)
        assert mset.size == 12

    def test_invalid_box_rejected(self):
        with pytest.raises(InvalidBoxError):
            MeasurementPolicy(4, 0.5, np.array([[1.0, 1.0]]))

    @pytest.mark.parametrize("total_size", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_total_size_rejected(self, total_size):
        """2.5 once passed and made the first draw raise a bare TypeError;
        True passed and drew one point."""
        with pytest.raises(ValueError, match="integer"):
            MeasurementPolicy(total_size, 0.5, np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_points_raise_a_package_error(self, bad):
        with pytest.raises(NonFiniteValueError):
            measurement_set_from_points(np.array([[0.0], [bad]]))

    def test_numpy_integer_total_size_accepted(self):
        _, data = random_problem(np.random.default_rng(62), n=5)
        policy = MeasurementPolicy(np.int64(3), 0.5, np.array([[0.0, 1.0]]))
        assert sample_measurement_set(policy, data, np.random.default_rng(0)).size == 3

    @pytest.mark.parametrize(
        "box",
        [[0.0, np.inf], [-np.inf, 0.0], [np.nan, 1.0], [0.0, np.nan], [-1e308, 1e308]],
        ids=["infinite-hi", "infinite-lo", "nan-lo", "nan-hi", "overflowing-width"],
    )
    def test_box_without_finite_width_rejected(self, box):
        """Each of these boxes once passed and made the first draw raise a
        bare OverflowError."""
        with pytest.raises(InvalidBoxError):
            MeasurementPolicy(10, 0.5, np.array([box]))

    def test_widest_finite_box_samples(self):
        _, data = random_problem(np.random.default_rng(61), n=5)
        wide = MeasurementPolicy(10, 0.5, np.array([[-0.5e308, 0.5e308]]))
        points = sample_measurement_set(wide, data, np.random.default_rng(0)).points
        assert np.all(np.isfinite(points))


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

    @pytest.mark.parametrize("size", [7.5, 7.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_minibatch_size_rejected(self, size):
        """7.5 once passed and made the first step raise a bare TypeError;
        True passed and trained on batches of one row."""
        model, data = random_problem(np.random.default_rng(63), n=10)
        with pytest.raises(ValueError, match="integer"):
            Objective(Exact(), model, data, minibatch_size=size)

    @pytest.mark.parametrize("size", [0, 0.0, False], ids=["int", "float", "bool"])
    def test_zero_minibatch_size_rejected(self, size):
        """0, 0.0 and False once built a full-batch objective."""
        model, data = random_problem(np.random.default_rng(63), n=10)
        with pytest.raises(ValueError, match="batch size"):
            Objective(Exact(), model, data, minibatch_size=size)

    @pytest.mark.parametrize("data_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", [RandA, Ssge])
    def test_box_of_another_dimension_rejected(self, kind, data_fraction):
        """A 2-D box on 1-D data once built; its first step then raised a
        bare ValueError (0.5), a typed error (0) or nothing at all (1)."""
        model, data = random_problem(np.random.default_rng(64), n=10)
        policy = MeasurementPolicy(4, data_fraction, np.array([[-2.0, 2.0], [-2.0, 2.0]]))
        with pytest.raises(DimensionMismatchError, match="box has dimension 2, data has 1"):
            Objective(kind(policy), model, data)

    @pytest.mark.parametrize("kind_name", ["rand_a", "ssge"])
    def test_resampling_kinds_draw_a_fresh_set_every_call(self, kind_name):
        from fvi_bench.ssge import SsgeConfig, kl_gradient_estimate

        rng = np.random.default_rng(28)
        model, data = random_problem(rng, k=4, n=8)
        state = random_state(rng, Family.FULL, 4)
        policy = MeasurementPolicy(
            3, 0.5, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        config = SsgeConfig(num_samples=20)
        kind = RandA(policy) if kind_name == "rand_a" else Ssge(policy, config)
        objective = Objective(kind, model, data)
        call_rng, replay = np.random.default_rng(7), np.random.default_rng(7)
        reported, replayed = [], []
        for _ in range(2):
            reported.append(objective.value_and_grad(state, call_rng).kl_term)
            # Replay the call's draws: the set, then (Ssge) the estimator's samples.
            marginal = MarginalKl(model, sample_measurement_set(policy, data, replay))
            replayed.append(marginal.value_and_grad(state)[0])
            if kind_name == "ssge":
                kl_gradient_estimate(state, marginal, config, replay)
        assert reported == replayed
        assert reported[0] != reported[1]

    def test_rows_dropped_reported_by_every_marginal_kind(self):
        rng = np.random.default_rng(28)
        model, data = random_problem(rng, k=4, n=8)
        state = random_state(rng, Family.FULL, 4)
        # Every training input is the same point, so each drawn set holds it 3 times.
        one_point = Dataset(np.repeat(data.inputs[:1], data.size, axis=0), data.targets)
        policy = MeasurementPolicy(
            3, 1.0, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        repeated = measurement_set_from_points(np.repeat(data.inputs[:1], 3, axis=0))
        kinds = [(Exact(), 0), (FixedA(repeated), 2), (RandA(policy), 2), (Ssge(policy), 2)]
        for kind, dropped in kinds:
            evaluation = Objective(kind, model, one_point).value_and_grad(
                state, np.random.default_rng(0)
            )
            assert evaluation.rows_dropped == dropped

    def test_resampling_underestimates_exact_kl(self):
        rng = np.random.default_rng(29)
        model, data = random_problem(rng, k=5, n=10)
        state = random_state(rng, Family.FULL, 5)
        policy = MeasurementPolicy(
            3, 0.5, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
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
            3, 0.5, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        ssge_obj = Objective(Ssge(policy, SsgeConfig(num_samples=50)), model, data)
        rand_obj = Objective(RandA(policy), model, data)
        ssge_eval = ssge_obj.value_and_grad(state, np.random.default_rng(5), 0)
        rand_eval = rand_obj.value_and_grad(state, np.random.default_rng(5), 0)
        assert ssge_eval.kl_term == pytest.approx(rand_eval.kl_term, rel=1e-12)
        assert not np.allclose(ssge_eval.grad, rand_eval.grad)

    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_ssge_step_forms_no_closed_form_kl_gradient(self, family, monkeypatch):
        from fvi_bench.ssge import SsgeConfig

        rng = np.random.default_rng(33)
        model, data = random_problem(rng, k=5, n=10)
        state = random_state(rng, family, 5)
        policy = MeasurementPolicy(
            3, 0.5, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        ssge = Objective(Ssge(policy, SsgeConfig(num_samples=20)), model, data)
        rand_a = Objective(RandA(policy), model, data)
        calls = []

        def counting(name, func):
            def counted(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)

            return counted

        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(
            MarginalKl, "value_and_grad", counting("value_and_grad", MarginalKl.value_and_grad)
        )
        for objective, expected in [(ssge, []), (rand_a, ["value_and_grad", "solve"])]:
            calls.clear()
            objective.value_and_grad(state, np.random.default_rng(0))
            assert calls == expected

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


# --- likelihood statistics and row selection ----------------------------------

REPORT_RTOL = 1e-9  # the tolerance of the benchmark oracle's report check (c)


def offset_problem(seed, *, k=30, n=400, offset=1e3):
    """RBF regression whose targets sit ``offset`` above a smooth function:
    the features can fit the offset, so at the posterior mean ||y||^2 is
    many orders of magnitude above ||y - Phi m||^2."""
    rng = np.random.default_rng(seed)
    fmap = RbfFeatureMap(np.linspace(-2, 2, k).reshape(-1, 1), np.array([0.3]))
    model = BlrModel(fmap, noise_variance=0.01)
    inputs = rng.uniform(-1.5, 1.5, (n, 1))
    targets = np.sin(3 * inputs[:, 0]) + 0.1 * rng.standard_normal(n) + offset
    return rng, model, Dataset(inputs, targets)


def direct_ell(state, model, phi, targets, scale_factor):
    """E_q[log likelihood] and its gradient from the residual y - Phi m."""
    noise = model.noise_variance
    residual = targets - phi @ state.mean
    gram = phi.T @ phi
    if state.is_full:
        half = gram @ state.scale
        trace, grad_scale = np.sum(state.scale * half), -np.tril(half) / noise
    else:
        trace = np.sum(np.diag(gram) * state.scale**2)
        grad_scale = -np.diag(gram) * state.scale / noise
    value = -0.5 * phi.shape[0] * math.log(2 * math.pi * noise) - 0.5 / noise * (
        residual @ residual + trace
    )
    grad = state.pack_grad(phi.T @ residual / noise, grad_scale)
    return scale_factor * value, scale_factor * grad


def assert_close(actual, expected, rtol):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


class TestLikelihoodStatistics:
    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    @pytest.mark.parametrize("minibatch_size", [None, 50])
    def test_no_cancellation_at_large_target_offset(self, family, minibatch_size):
        rng, model, data = offset_problem(36)
        phi = model.features(data.inputs)
        posterior_mean = exact_posterior(model, data).mean
        residual = data.targets - phi @ posterior_mean
        assert data.targets @ data.targets > 1e5 * (residual @ residual)
        state = random_state(rng, family, model.num_features)
        state = VariationalState(family, posterior_mean, 0.1 * state.scale)

        def evaluate(at):
            # A fresh objective per call restarts the minibatch schedule, so
            # every evaluation sees the same batch.
            objective = Objective(Exact(), model, data, minibatch_size)
            return objective.value_and_grad(at, np.random.default_rng(37))

        batch, scale_factor = np.arange(data.size), 1.0
        if minibatch_size:
            batch = MinibatchSchedule(data.size, minibatch_size).next_batch(
                np.random.default_rng(37)
            )
            scale_factor = data.size / minibatch_size
        ell, ell_grad = direct_ell(state, model, phi[batch], data.targets[batch], scale_factor)
        evaluation = evaluate(state)
        assert_close(evaluation.expected_ll, ell, REPORT_RTOL)
        assert_close(evaluation.grad, ell_grad - exact_kl(state, model)[1], REPORT_RTOL)

        # The benchmark oracle's directional-derivative check of the ELBO.
        params = state.params()
        direction = np.random.default_rng(38).standard_normal(params.size)
        direction /= np.linalg.norm(direction)
        step = 1e-5
        plus, minus = (
            evaluate(state.with_params(params + h * direction)).elbo_estimate
            for h in (step, -step)
        )
        analytic = float(evaluation.grad @ direction)
        assert abs((plus - minus) / (2 * step) - analytic) <= 1e-5 * max(1.0, abs(analytic))

    @pytest.mark.parametrize(
        "kind",
        [
            Exact(),
            FixedA(measurement_set_from_points(np.linspace(-1, 1, 3).reshape(-1, 1))),
            RandA(MeasurementPolicy(4, 0.5, np.array([[-2.0, 2.0]]))),
            Ssge(MeasurementPolicy(4, 0.5, np.array([[-2.0, 2.0]]))),
        ],
        ids=["exact", "fixed_a", "rand_a", "ssge"],
    )
    def test_full_batch_objective_keeps_no_per_row_array(self, kind):
        rng = np.random.default_rng(39)
        model, data = random_problem(rng, k=5, n=57)

        def own_row_arrays(objective):
            """Arrays reachable from the objective, other than the dataset's
            own, with one row per data point."""
            found, pending, seen = [], [vars(objective)], set()
            while pending:
                item = pending.pop()
                if id(item) in seen or item is data.inputs or item is data.targets:
                    continue
                seen.add(id(item))
                if isinstance(item, np.ndarray):
                    if item.ndim and item.shape[0] == data.size:
                        found.append(item.shape)
                elif isinstance(item, dict):
                    pending.extend(item.values())
                elif isinstance(item, (list, tuple)):
                    pending.extend(item)
                elif hasattr(item, "__dict__"):
                    pending.append(vars(item))
            return found

        full_batch = Objective(kind, model, data)
        full_batch.value_and_grad(random_state(rng, Family.FULL, 5), np.random.default_rng(40))
        assert own_row_arrays(full_batch) == []
        # The walk does find the feature matrix a minibatch objective keeps.
        assert own_row_arrays(Objective(kind, model, data, minibatch_size=10)) == [(57, 5)]


EVERY_KIND = [
    Exact(),
    FixedA(measurement_set_from_points(np.linspace(-1, 1, 3).reshape(-1, 1))),
    RandA(MeasurementPolicy(4, 0.5, np.array([[-2.0, 2.0]]))),
    Ssge(MeasurementPolicy(4, 0.5, np.array([[-2.0, 2.0]]))),
]


class TestSharedStatistics:
    """Full-batch objectives and the closed forms on one (model, data) pair
    share one set of likelihood statistics."""

    def test_one_feature_evaluation_of_the_data_per_pair(self):
        rng = np.random.default_rng(41)
        model, data = random_problem(rng, k=5, n=57)
        state = random_state(rng, Family.FULL, 5)
        rows_evaluated = []

        def counted(feature_map, inputs):
            rows_evaluated.append(np.shape(inputs)[0])
            return evaluate(feature_map, inputs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "evaluate", counted)
            objectives = [Objective(kind, model, data) for kind in EVERY_KIND * 2]
            minibatch_objectives = [Objective(kind, model, data, 10) for kind in EVERY_KIND]
            # The data once; FixedA's own measurement set once for its three objectives.
            assert rows_evaluated == [57, 3]
            exact_posterior(model, data)
            log_marginal_likelihood(model, data)
            expected_log_likelihood(state, model, data)
            expected_log_likelihood(state, model, data, minibatch=np.arange(10))
            fixed_a_optimal_mean(model, data, EVERY_KIND[1].measurement_set)
        # The closed forms evaluate only the measurement set of fixed_a_optimal_mean.
        assert rows_evaluated == [57, 3, 3]
        assert all(o._phi is minibatch_objectives[0]._phi for o in minibatch_objectives)
        assert all(objective._stats is objectives[0]._stats for objective in objectives)
        fixed = [o._fixed_marginal for o in objectives if isinstance(o.kind, FixedA)]
        assert len(fixed) == 2 and fixed[0] is fixed[1] is not None

    def test_new_model_or_new_dataset_gets_fresh_statistics(self):
        model, data = random_problem(np.random.default_rng(42), k=5, n=57)
        shared = Objective(Exact(), model, data)._stats
        same_arrays = Dataset(data.inputs, data.targets)
        new_model = BlrModel(model.feature_map, model.noise_variance)
        for other in (
            Objective(Exact(), model, same_arrays)._stats,
            Objective(Exact(), new_model, data)._stats,
        ):
            assert other is not shared
            np.testing.assert_array_equal(other.gram, shared.gram)
            np.testing.assert_array_equal(other.cross, shared.cross)

    def test_shared_arrays_are_read_only(self):
        model, data = random_problem(np.random.default_rng(43), k=5, n=57)
        stats = Objective(Exact(), model, data)._stats
        for array in (stats.gram, stats.cross, stats.anchor):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_dropped_model_frees_its_statistics(self):
        model, data = random_problem(np.random.default_rng(44), k=5, n=57)
        objective = Objective(Exact(), model, data)
        model_ref, stats_ref = weakref.ref(model), weakref.ref(objective._stats)
        assert model in blr._PAIR_CACHE
        del model, objective
        gc.collect()
        assert model_ref() is None and stats_ref() is None


class TestSharedFeatureMatrix:
    """Minibatch objectives on one (model, data) pair share one read-only
    feature matrix of the data."""

    def test_one_feature_evaluation_of_the_data_per_pair(self):
        model, data = random_problem(np.random.default_rng(45), k=5, n=57)
        rows_evaluated = []

        def counted(feature_map, inputs):
            rows_evaluated.append(np.shape(inputs)[0])
            return evaluate(feature_map, inputs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "evaluate", counted)
            objectives = [
                Objective(kind, model, data, minibatch_size=10) for kind in EVERY_KIND * 2
            ]
        # The data once; FixedA's own measurement set once for both of its objectives.
        assert rows_evaluated == [57, 3]
        assert all(objective._phi is objectives[0]._phi for objective in objectives)
        fixed = [o._fixed_marginal for o in objectives if isinstance(o.kind, FixedA)]
        assert len(fixed) == 2 and fixed[0] is fixed[1] is not None
        with pytest.raises(ValueError):
            objectives[0]._phi[0, 0] = 0.0

    def test_new_model_or_new_dataset_gets_its_own_matrix(self):
        model, data = random_problem(np.random.default_rng(46), k=5, n=57)
        shared = Objective(Exact(), model, data, minibatch_size=10)._phi
        same_arrays = Dataset(data.inputs, data.targets)
        new_model = BlrModel(model.feature_map, model.noise_variance)
        for other in (
            Objective(Exact(), model, same_arrays, minibatch_size=10)._phi,
            Objective(Exact(), new_model, data, minibatch_size=10)._phi,
        ):
            assert other is not shared
            np.testing.assert_array_equal(other, shared)

    def test_dropped_model_frees_its_matrix(self):
        model, data = random_problem(np.random.default_rng(47), k=5, n=57)
        objectives = [Objective(kind, model, data, minibatch_size=10) for kind in EVERY_KIND]
        model_ref, phi_ref = weakref.ref(model), weakref.ref(objectives[0]._phi)
        marginal_ref = weakref.ref(objectives[1]._fixed_marginal)
        del model, objectives
        gc.collect()
        assert model_ref() is None and phi_ref() is None and marginal_ref() is None


def rows_for_case(seed, case):
    """Feature rows (m, k) of one row-selection case, and whether every row
    is comfortably independent (sigma_min far above RANK_RTOL * sigma_max)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 9))
    if case == "tall":
        return rng.standard_normal((int(rng.integers(k + 1, 2 * k + 3)), k)), False
    rows = rng.standard_normal((int(rng.integers(2, k + 1)), k))
    if case == "independent":
        return rows, True
    source, target = rng.choice(rows.shape[0], 2, replace=False)
    if case == "duplicate":
        rows[target] = rows[source]
        return rows, False
    # A row scaled from another, perturbed far above or far below the rank
    # tolerance 1e-8.
    delta = 1e-4 if case == "near_independent" else 1e-13
    scaled = float(rng.uniform(0.1, 10.0)) * rows[source]
    rows[target] = scaled * (1.0 + delta * rng.standard_normal(k))
    return rows, case == "near_independent"


class TestRowSelection:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["independent", "duplicate", "near_independent", "near_dependent", "tall"]),
    )
    def test_keeps_the_rows_pivoted_qr_selects(self, seed, case):
        rows, full_rank = rows_for_case(seed, case)
        inputs = np.arange(rows.shape[0], dtype=float).reshape(-1, 1)
        model = BlrModel(lambda x: rows[x[:, 0].astype(int)], 0.1, num_features=rows.shape[1])
        expected = rows[independent_rows(rows)]
        calls = []

        def counted(matrix):
            calls.append(matrix.shape)
            return independent_rows(matrix)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(variational, "independent_rows", counted)
            op = MarginalKl(model, measurement_set_from_points(inputs))
        np.testing.assert_array_equal(op.rows, expected)
        assert op.rows_dropped == rows.shape[0] - expected.shape[0]
        assert calls == ([] if full_rank else [rows.shape])


def svd_value_and_grad(state, basis):
    """Marginal KL and its gradient in the rotated coordinates of the SVD
    basis V^T, as the SVD form of `MarginalKl` evaluated them (oracle)."""
    shifted = basis @ state.mean
    rotated = basis @ state.scale if state.is_full else basis * state.scale
    cov = rotated @ rotated.T
    log_det = np.linalg.slogdet(cov)[1]
    value = 0.5 * (shifted @ shifted + np.sum(rotated**2) - basis.shape[0] - log_det)
    residual = rotated - np.linalg.solve(cov, rotated)
    if state.is_full:
        grad_scale = np.tril(basis.T @ residual)
    else:
        grad_scale = np.einsum("ai,ai->i", basis, residual)
    return value, state.pack_grad(basis.T @ shifted, grad_scale)


class TestQrForm:
    """`MarginalKl` from the triangle R of a QR of B^T against the SVD form
    B = U S V^T that it replaced, kept in `svd_form` as the oracle."""

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_matches_svd_form_on_workload_shaped_sets(self, shape, family):
        model, sets = workload_shaped_sets(shape, seed=37, count=3)
        rng = np.random.default_rng(38)
        calls = []

        def counted(matrix):
            calls.append(matrix.shape)
            return independent_rows(matrix)

        for mset in sets:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(variational, "independent_rows", counted)
                op = MarginalKl(model, mset)
            rows, (_, _, basis) = svd_form(model.features(mset.points))
            np.testing.assert_array_equal(op.rows, rows)
            state = random_state(rng, family, model.num_features)
            value, grad = op.value_and_grad(state)
            expected_value, expected_grad = svd_value_and_grad(state, basis)
            assert value == pytest.approx(expected_value, rel=1e-12)
            assert relative_error(grad, expected_grad) < 1e-12
        assert calls == []  # every set is certified and keeps every row

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    def test_transform_rows_are_orthonormal(self, shape):
        model, sets = workload_shaped_sets(shape, seed=39, count=3)
        for mset in sets:
            transform = MarginalKl(model, mset)._transform
            np.testing.assert_allclose(
                transform @ transform.T, np.eye(transform.shape[0]), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("lengthscale", ILL_CONDITIONED_LENGTHSCALES)
    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    def test_ill_conditioned_sets_agree_within_the_condition_number(self, lengthscale, family):
        # Both forms lose accuracy in proportion to the condition number of
        # the kept rows: against a 50-digit reference, the KL value of each
        # was off by at most 1.3e-17 times it on these sets.
        model, mset = ill_conditioned_set(lengthscale)
        op = MarginalKl(model, mset)
        rows, (_, singular, basis) = svd_form(model.features(mset.points))
        np.testing.assert_array_equal(op.rows, rows)
        assert op.rows_dropped == (1 if lengthscale == ILL_CONDITIONED_LENGTHSCALES[-1] else 0)
        tolerance = 1e-15 * singular[0] / singular[-1]
        state = random_state(np.random.default_rng(40), family, model.num_features)
        value, grad = op.value_and_grad(state)
        expected_value, expected_grad = svd_value_and_grad(state, basis)
        assert value == pytest.approx(expected_value, rel=tolerance)
        assert relative_error(grad, expected_grad) < tolerance

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0.0, 10.0))
    @example(seed=0, num_rows=8, log_condition=7.9)
    @example(seed=0, num_rows=2, log_condition=8.1)
    def test_certificate_implies_the_singular_ratio(self, seed, num_rows, log_condition):
        """A certified R means sigma_min / sigma_max > RANK_RTOL, so the SVD
        rule would keep every row too; and since the Frobenius bound is at
        most m times the condition number, every set with m * cond well
        below 1 / RANK_RTOL is certified."""
        rng = np.random.default_rng(seed)
        k = num_rows + int(rng.integers(0, 4))
        left = np.linalg.qr(rng.standard_normal((num_rows, num_rows)))[0]
        right = np.linalg.qr(rng.standard_normal((k, num_rows)))[0]
        rows = (left * np.logspace(0.0, -log_condition, num_rows)) @ right.T
        singular = np.linalg.svd(rows, compute_uv=False)
        ratio = singular[-1] / singular[0]
        certified = variational._certified_inverse_r(rows) is not None
        if certified:
            assert ratio > RANK_RTOL
        if num_rows / ratio < 0.5 / RANK_RTOL:
            assert certified
