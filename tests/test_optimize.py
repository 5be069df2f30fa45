"""Tests for the Adam loop and the central-difference gradient reference."""

import dataclasses

import numpy as np
import pytest

from conftest import max_gradient_error
from fvi_bench import gaussian, optimize
from fvi_bench.blr import BlrModel, Dataset, exact_posterior, log_marginal_likelihood
from fvi_bench.errors import DegenerateMarginalError, NonFiniteValueError
from fvi_bench.features import RbfFeatureMap
from fvi_bench.optimize import LOG_EVERY, AdamConfig, run
from fvi_bench.ssge import SsgeConfig
from fvi_bench.variational import (
    Exact,
    Family,
    FixedA,
    MeasurementPolicy,
    Objective,
    RandA,
    Ssge,
    VariationalState,
    fixed_a_optimal_mean,
    measurement_set_from_points,
)


def toy_problem(seed):
    """The 1D benchmark problem: 20 RBF features, two input clusters, known
    generating weights."""
    rng = np.random.default_rng(seed)
    fmap = RbfFeatureMap(np.linspace(-2, 2, 20).reshape(-1, 1), np.array([0.2]))
    model = BlrModel(fmap, noise_variance=0.01)
    inputs = np.concatenate(
        [rng.normal(-1.2, 0.3, 20), rng.normal(1.2, 0.3, 20)]
    ).reshape(-1, 1)
    weights = rng.standard_normal(20)
    targets = model.features(inputs) @ weights + 0.1 * rng.standard_normal(40)
    return model, Dataset(inputs, targets), weights


class TestFiniteDiffCheck:
    """The central-difference reference that every gradient test compares to."""

    def test_quadratic_gradient(self):
        point = np.random.default_rng(0).standard_normal(6)
        error = max_gradient_error(lambda x: (0.5 * float(x @ x), x.copy()), point, step=1e-6)
        assert error < 1e-9

    def test_detects_wrong_gradient(self):
        error = max_gradient_error(lambda x: (0.5 * float(x @ x), 2.0 * x), np.array([1.0, -2.0]))
        assert error > 0.1

    def test_small_coordinates_compare_absolutely(self):
        # Gradient 0 at the origin; an analytic error of 1e-3 there is measured
        # against 1, not against the near-zero true value.
        error = max_gradient_error(
            lambda x: (0.5 * float(x @ x), x + 1e-3), np.zeros(3), step=1e-6
        )
        assert error == pytest.approx(1e-3, rel=1e-6)


class TestAdamConfig:
    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning rate"):
            AdamConfig(rate, 10)

    def test_moment_constants_are_not_settings(self):
        config = AdamConfig(0.01, 10)
        assert (config.beta1, config.beta2, config.epsilon) == (0.9, 0.99, 1e-8)
        assert [f.name for f in dataclasses.fields(AdamConfig)] == [
            "learning_rate", "max_steps", "decay_tail_fraction"
        ]
        with pytest.raises(TypeError):
            AdamConfig(0.01, 10, epsilon=1e-6)

    @pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_counts_rejected(self, value):
        """max_steps=2.5 once passed and made `run` raise a bare TypeError,
        which lost the trace; True passed as 1."""
        with pytest.raises(ValueError, match="integer"):
            AdamConfig(0.1, value)


def out_of_place_adam(objective, initial, config, rng):
    """The textbook Adam loop, a new array for every moment and update."""
    params, state = initial.params(), initial
    first_moment, second_moment = np.zeros_like(params), np.zeros_like(params)
    for step in range(1, config.max_steps + 1):
        grad = objective.value_and_grad(state, rng, step).grad
        first_moment = config.beta1 * first_moment + (1.0 - config.beta1) * grad
        second_moment = config.beta2 * second_moment + (1.0 - config.beta2) * grad**2
        corrected_first = first_moment / (1.0 - config.beta1**step)
        corrected_second = second_moment / (1.0 - config.beta2**step)
        params = params + config.rate_at(step) * corrected_first / (
            np.sqrt(corrected_second) + config.epsilon
        )
        state = state.with_params(params)
    return state


class TestAdamRun:
    @pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
    @pytest.mark.parametrize("minibatch", [False, True], ids=["exact", "fixed_a_minibatch"])
    def test_in_place_moments_end_where_the_textbook_loop_ends(self, family, minibatch):
        """`run` updates its moments in place; every bit of the final state
        is the out-of-place loop's, through a decay tail and on minibatches."""
        model, data, _ = toy_problem(4)
        if minibatch:
            kind, batch_size = FixedA(measurement_set_from_points(np.linspace(-2, 2, 8))), 7
            config = AdamConfig(0.05, 120, decay_tail_fraction=0.0)
        else:
            kind, batch_size = Exact(), None
            config = AdamConfig(0.1, 300, decay_tail_fraction=0.3)
        objective = Objective(kind, model, data, batch_size)
        initial = VariationalState.prior_state(family, 20)
        final = run(objective, initial, config, np.random.default_rng(3)).final_state
        expected = out_of_place_adam(objective, initial, config, np.random.default_rng(3))
        assert final.mean.tobytes() == expected.mean.tobytes()
        assert final.scale.tobytes() == expected.scale.tobytes()

    def test_zero_learning_rate_keeps_state(self):
        model, data, _ = toy_problem(0)
        initial = VariationalState.prior_state(Family.FULL, 20)
        trace = run(
            Objective(Exact(), model, data),
            initial,
            AdamConfig(0.0, 200),
            np.random.default_rng(0),
        )
        np.testing.assert_array_equal(trace.final_state.params(), initial.params())
        elbos = [record.elbo_estimate for record in trace.records]
        assert len(set(elbos)) == 1

    def test_deterministic_given_seed(self):
        model, data, _ = toy_problem(1)
        cfg = AdamConfig(0.01, 300)
        initial = VariationalState.prior_state(Family.FULL, 20)
        a = run(Objective(Exact(), model, data), initial, cfg, np.random.default_rng(5))
        b = run(Objective(Exact(), model, data), initial, cfg, np.random.default_rng(5))
        assert np.array_equal(a.final_state.params(), b.final_state.params())

    def test_minibatch_run_deterministic_given_seed(self):
        """A minibatch objective once kept its epoch position across runs, so
        a second run from the same seed took other batches."""
        fmap = RbfFeatureMap(np.linspace(-2, 2, 5).reshape(-1, 1), np.array([0.5]))
        model = BlrModel(fmap, noise_variance=0.1)
        rng = np.random.default_rng(9)
        data = Dataset(rng.uniform(-2, 2, (30, 1)), rng.standard_normal(30))
        config = AdamConfig(0.1, 3, decay_tail_fraction=0.0)
        initial = VariationalState.prior_state(Family.FFG, 5)
        reused = Objective(Exact(), model, data, 7)
        finals = [
            run(objective, initial, config, np.random.default_rng(1)).final_state.params()
            for objective in (reused, reused, Objective(Exact(), model, data, 7))
        ]
        np.testing.assert_array_equal(finals[1], finals[0])
        np.testing.assert_array_equal(finals[2], finals[0])

    def test_step_count_honored(self):
        model, data, _ = toy_problem(2)
        trace = run(
            Objective(Exact(), model, data),
            VariationalState.prior_state(Family.FFG, 20),
            AdamConfig(0.01, 137),
            np.random.default_rng(0),
        )
        assert trace.steps_run == 137
        assert trace.records[-1].step == 137

    def test_trace_records_spacing(self):
        model, data, _ = toy_problem(3)
        trace = run(
            Objective(Exact(), model, data),
            VariationalState.prior_state(Family.FFG, 20),
            AdamConfig(0.01, 200),
            np.random.default_rng(0),
        )
        assert [record.step for record in trace.records] == [1, 50, 100, 150, 200]

    @pytest.mark.parametrize(
        "elbo, grad", [(1.0, np.nan), (np.nan, 1.0)], ids=["nan_gradient", "nan_elbo"]
    )
    def test_nonfinite_gradient_aborts_with_trace(self, elbo, grad):
        """A run that diverges raises one error type, whichever value is NaN;
        a NaN ELBO with a finite gradient once raised a gradient error."""

        class ExplodingObjective:
            def value_and_grad(self, state, rng, step):
                from fvi_bench.variational import ObjectiveEval

                if step >= 3:
                    return ObjectiveEval(elbo, 0.0, 0.0, np.full(40, grad))
                return ObjectiveEval(1.0, 1.0, 0.0, np.ones(40))

        with pytest.raises(NonFiniteValueError, match="step 3") as err:
            run(
                ExplodingObjective(),
                VariationalState.prior_state(Family.FFG, 20),
                AdamConfig(0.01, 10),
                np.random.default_rng(0),
            )
        assert err.value.trace is not None
        assert err.value.trace.steps_run == 2

    def test_package_error_mid_run_keeps_trace(self):
        class DegenerateAfterSecondRecord:
            def value_and_grad(self, state, rng, step):
                from fvi_bench.variational import ObjectiveEval

                if step > LOG_EVERY + 1:
                    raise DegenerateMarginalError("all measurement rows dependent")
                return ObjectiveEval(1.0, 1.0, 0.0, np.ones(40))

        initial = VariationalState.prior_state(Family.FFG, 20)
        with pytest.raises(DegenerateMarginalError) as err:
            run(
                DegenerateAfterSecondRecord(),
                initial,
                AdamConfig(0.01, 4 * LOG_EVERY),
                np.random.default_rng(0),
            )
        trace = err.value.trace
        assert trace.steps_run == LOG_EVERY + 1
        assert [record.step for record in trace.records] == [1, LOG_EVERY]
        assert trace.final_state is not None
        assert not np.array_equal(trace.final_state.params(), initial.params())

    @pytest.mark.parametrize("kind_name", ["rand_a", "ssge"])
    def test_diverging_scale_ends_in_a_package_error_with_trace(self, kind_name):
        # At this rate a few Adam steps push a log-scale out of exp's range.
        model, data, _ = toy_problem(0)
        policy = MeasurementPolicy(
            10, 0.5, np.column_stack([data.inputs.min(0), data.inputs.max(0)])
        )
        kind = RandA(policy) if kind_name == "rand_a" else Ssge(policy, SsgeConfig(50))
        objective = Objective(kind, model, data)
        initial = VariationalState.prior_state(Family.FULL, 20)
        config = AdamConfig(300.0, 50, decay_tail_fraction=0.0)
        with pytest.raises(NonFiniteValueError) as err:
            run(objective, initial, config, np.random.default_rng(0))
        trace = err.value.trace
        assert trace.steps_run >= 1
        # The final state is the last valid one: a run stopped after as many
        # steps ends on the same parameters.
        replay = run(
            objective,
            initial,
            AdamConfig(300.0, trace.steps_run, decay_tail_fraction=0.0),
            np.random.default_rng(0),
        )
        assert np.array_equal(trace.final_state.params(), replay.final_state.params())

    def test_rows_dropped_recorded(self):
        model, data, _ = toy_problem(0)
        point = model.feature_map.centers[:1]
        repeated = measurement_set_from_points(
            np.vstack([point, point, model.feature_map.centers[5:8]])
        )
        trace = run(
            Objective(FixedA(repeated), model, data),
            VariationalState.prior_state(Family.FULL, 20),
            AdamConfig(0.01, 100),
            np.random.default_rng(0),
        )
        assert [record.rows_dropped for record in trace.records] == [1, 1, 1]
        assert sum(record.rows_dropped for record in trace.records) == 3

    def test_learning_rate_schedule_shape(self):
        cfg = AdamConfig(0.01, 1000, decay_tail_fraction=0.5)
        assert cfg.rate_at(1) == 0.01
        assert cfg.rate_at(500) == 0.01
        assert cfg.rate_at(1000) == pytest.approx(0.01 * 1e-6)
        constant = AdamConfig(0.01, 1000, decay_tail_fraction=0.0)
        assert constant.rate_at(999) == 0.01


class TestConvergenceOracles:
    def test_exact_full_reaches_conjugate_posterior(self):
        model, data, _ = toy_problem(0)
        post = exact_posterior(model, data)
        trace = run(
            Objective(Exact(), model, data),
            VariationalState.prior_state(Family.FULL, 20),
            AdamConfig(0.01, 5000),
            np.random.default_rng(0),
        )
        assert gaussian.kl_divergence(trace.final_state.to_gaussian(), post) < 1e-6

    def test_fixed_a_full_reaches_closed_form_mean(self):
        model, data, _ = toy_problem(0)
        witness = measurement_set_from_points(model.feature_map.centers)
        target = fixed_a_optimal_mean(model, data, witness)
        trace = run(
            Objective(FixedA(witness), model, data),
            VariationalState.prior_state(Family.FULL, 20),
            AdamConfig(0.01, 5000),
            np.random.default_rng(0),
        )
        assert float(np.abs(trace.final_state.mean - target).max()) < 1e-3

    def test_fixed_a_ffg_mean_matches_family_independent_oracle(self):
        # The stationarity condition for the mean does not involve the
        # covariance parameterization, so the same closed form applies.
        rng = np.random.default_rng(6)
        model = BlrModel(lambda x: x, noise_variance=0.2, num_features=4)
        data = Dataset(rng.standard_normal((12, 4)), rng.standard_normal(12))
        mset = measurement_set_from_points(rng.standard_normal((3, 4)))
        target = fixed_a_optimal_mean(model, data, mset)
        trace = run(
            Objective(FixedA(mset), model, data),
            VariationalState.prior_state(Family.FFG, 4),
            AdamConfig(0.01, 5000),
            np.random.default_rng(0),
        )
        assert float(np.abs(trace.final_state.mean - target).max()) < 1e-4

    def test_elbo_mostly_nondecreasing_after_warmup(self, monkeypatch):
        # Adam need not raise the ELBO at every step, but after warm-up it
        # never falls far below its running maximum (at most 0.023 on toy
        # seeds 0-7, against a starting gap of thousands), and the run ends
        # at the log evidence (within 2e-12 on those seeds). Every 10th step
        # is recorded, so the check sees about 490 of them.
        monkeypatch.setattr(optimize, "LOG_EVERY", 10)
        model, data, _ = toy_problem(5)
        trace = run(
            Objective(Exact(), model, data),
            VariationalState.prior_state(Family.FULL, 20),
            AdamConfig(0.01, 5000),
            np.random.default_rng(0),
        )
        elbos = np.array([r.elbo_estimate for r in trace.records if r.step >= 100])
        assert float(np.max(np.maximum.accumulate(elbos) - elbos)) <= 0.05
        log_evidence = log_marginal_likelihood(model, data)
        assert abs(log_evidence - elbos[-1]) <= 1e-9 * max(1.0, abs(log_evidence))
