"""Tests of the benchmark itself: generators, oracle checks, tracing, output."""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from fvi_bench import optimize
from fvi_bench.optimize import run
from fvi_bench.variational import VariationalState
from perfbench import harness, oracle, tracing, workloads
from perfbench import run as bench

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def short(name: str, steps: int) -> workloads.Spec:
    spec = workloads.SPECS[name]
    return dataclasses.replace(spec, adam=dataclasses.replace(spec.adam, max_steps=steps))


@pytest.fixture
def short_budgets(monkeypatch):
    """Every workload with a few steps, so that one run takes seconds.

    Three steps cannot reach the closed-form optima, so check (d) is off;
    every other check applies unchanged.
    """
    specs = {
        name: dataclasses.replace(short(name, 3), converges=False) for name in workloads.SPECS
    }
    monkeypatch.setattr(workloads, "SPECS", specs)
    monkeypatch.setattr(harness, "SETUP_MIN_REPS", 1)


@pytest.fixture(scope="module")
def toy():
    generated = workloads.generate("toy1d", 0)
    setup = workloads.build(generated)
    return generated, setup, oracle.reference(generated, setup.model)


def train(generated, setup, run_name, steps=None):
    training_run = next(r for r in setup.runs if r.name == run_name)
    initial = VariationalState.prior_state(training_run.family, setup.model.num_features)
    adam = generated.spec.adam
    if steps is not None:
        adam = dataclasses.replace(adam, max_steps=steps)
    trace = run(training_run.objective, initial, adam, np.random.default_rng(0))
    return training_run, trace.final_state


def check_state(generated, setup, ref, training_run, state, steps_run=None):
    steps_run = generated.spec.adam.max_steps if steps_run is None else steps_run
    return oracle.check_run(training_run, state, steps_run, generated, setup.model, ref)


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(workloads.SPECS))
    def test_same_seed_same_inputs(self, name):
        a, b = workloads.generate(name, 3), workloads.generate(name, 3)
        for field in ("train", "test"):
            np.testing.assert_array_equal(getattr(a, field).inputs, getattr(b, field).inputs)
            np.testing.assert_array_equal(getattr(a, field).targets, getattr(b, field).targets)
        assert a.fixed_sets.keys() == b.fixed_sets.keys()
        for key in a.fixed_sets:
            np.testing.assert_array_equal(a.fixed_sets[key], b.fixed_sets[key])

    @pytest.mark.parametrize("name", sorted(workloads.SPECS))
    def test_other_seed_other_inputs(self, name):
        a, b = workloads.generate(name, 3), workloads.generate(name, 4)
        assert not np.array_equal(a.train.targets, b.train.targets)

    @pytest.mark.parametrize("name", sorted(workloads.SPECS))
    def test_sizes_match_spec(self, name):
        generated = workloads.generate(name, 0)
        spec = generated.spec
        assert generated.train.inputs.shape == (spec.n, spec.d)
        assert generated.test.inputs.shape == (spec.n_test, spec.d)

    def test_runs_cover_every_kind_and_family(self, toy):
        _, setup, _ = toy
        assert {r.label for r in setup.runs} == set(workloads.KIND_LABELS)
        assert len({r.name for r in setup.runs}) == len(setup.runs) == 10


class TestOracle:
    def test_converged_runs_pass(self, toy):
        generated, setup, ref = toy
        for name in ("exact/full", "fixed_a.centres/full", "rand_a/ffg"):
            training_run, state = train(generated, setup, name)
            check = check_state(generated, setup, ref, training_run, state)
            assert not check.failures, check.failures

    def test_shifted_mean_rejected(self, toy):
        generated, setup, ref = toy
        for name in ("exact/full", "fixed_a.centres/full"):
            training_run, state = train(generated, setup, name)
            shifted = VariationalState(state.family, state.mean + 0.05, state.scale)
            check = check_state(generated, setup, ref, training_run, shifted)
            assert any(f.startswith("(d)") for f in check.failures), check.failures

    def test_scaled_covariance_rejected(self, toy):
        generated, setup, ref = toy
        training_run, state = train(generated, setup, "exact/full")
        scaled = VariationalState(state.family, state.mean, 1.1 * state.scale)
        check = check_state(generated, setup, ref, training_run, scaled)
        assert any(f.startswith("(d)") for f in check.failures), check.failures

    def test_non_finite_state_rejected(self, toy):
        generated, setup, ref = toy
        training_run, state = train(generated, setup, "rand_a/full")
        broken = VariationalState(state.family, np.full(state.dim, np.nan), state.scale)
        check = check_state(generated, setup, ref, training_run, broken)
        assert check.failures == ("(a) non-finite final parameters",)

    def test_misreported_terms_and_gradient_rejected(self, toy):
        generated, setup, ref = toy
        training_run, state = train(generated, setup, "fixed_a.centres/full")
        state = VariationalState(state.family, state.mean + 0.05, state.scale)  # a large gradient

        class Misreporting:
            def value_and_grad(self, state, rng, step=0):
                honest = training_run.objective.value_and_grad(state, rng, step)
                return dataclasses.replace(
                    honest, expected_ll=honest.expected_ll + 1e-6, grad=1.01 * honest.grad
                )

        lying = dataclasses.replace(training_run, objective=Misreporting())
        failures = check_state(generated, setup, ref, lying, state).failures
        assert any(f.startswith("(c) reported ELL") for f in failures), failures
        assert any(f.startswith("(e)") for f in failures), failures

    @pytest.mark.parametrize("name", ["tabular-full", "tabular-minibatch"])
    def test_truncated_run_rejected(self, name):
        """A run that stops early fails on a tabular workload, where (d) does not apply."""
        generated = workloads.generate(name, 0)
        setup = workloads.build(generated)
        ref = oracle.reference(generated, setup.model)
        budget = generated.spec.adam.max_steps
        training_run, state = train(generated, setup, "exact/full")
        assert not check_state(generated, setup, ref, training_run, state).failures
        # Stopped at a fifth of the budget, whether it says so or not.
        _, early = train(generated, setup, "exact/full", steps=budget // 5)
        failures = check_state(generated, setup, ref, training_run, early, budget // 5).failures
        assert any(f.startswith("(f)") for f in failures), failures
        failures = check_state(generated, setup, ref, training_run, early).failures
        assert any(f.startswith("(g)") for f in failures), failures
        # The initial state handed back as if trained.
        prior = VariationalState.prior_state(training_run.family, setup.model.num_features)
        failures = check_state(generated, setup, ref, training_run, prior).failures
        assert any(f.startswith("(g)") for f in failures), failures

    def test_factor_kl_matches_dense_kl_when_well_conditioned(self, toy):
        generated, setup, ref = toy
        _, state = train(generated, setup, "exact/ffg")
        dense = oracle.gaussian.kl_divergence(state.to_gaussian(), ref.posterior)
        assert oracle.kl_to_posterior(state, ref) == pytest.approx(dense, rel=1e-9)


class TestTracing:
    def test_traced_parameters_identical(self):
        generated = workloads.generate("tabular-minibatch", 1)
        generated = dataclasses.replace(generated, spec=short("tabular-minibatch", 5))
        setup = workloads.build(generated)
        plain = harness.train(generated, setup, oracle.reference(generated, setup.model))
        tracer = tracing.Tracer()
        with tracer.installed():
            setup = workloads.build(generated)
            ref = oracle.reference(generated, setup.model)
            traced = harness.train(generated, setup, ref, tracer=tracer)
        for a, b in zip(plain, traced):
            assert a["params"].tobytes() == b["params"].tobytes(), a["run"]
        metrics = tracing.per_layer_metrics(tracer)
        assert metrics["variational.step_calls"][0] == 5 * len(setup.runs)
        assert metrics["optimize.run_calls"][0] == len(setup.runs)
        assert metrics["variational.step_self_ms"][0] > 0.0

    def test_wrappers_removed_on_exit(self):
        originals = {
            (id(owner), attr): getattr(owner, attr)
            for targets in tracing.WRAPPED.values()
            for owner, attr in targets
        }
        with tracing.Tracer().installed():
            pass
        for targets in tracing.WRAPPED.values():
            for owner, attr in targets:
                assert getattr(owner, attr) is originals[(id(owner), attr)]

    def test_self_time_excludes_children(self):
        parent = tracing.Span("a", "train", 0.0, 10.0)
        parent.children = [
            tracing.Span("b", "train", 1.0, 4.0),
            tracing.Span("c", "train", 5.0, 7.0),
        ]
        assert parent.self_time == pytest.approx(5.0)


def result_line(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert bench.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.usefixtures("short_budgets")
class TestShortRuns:
    @pytest.mark.parametrize("name", sorted(workloads.SPECS))
    @pytest.mark.parametrize("trace", [0, 1])
    def test_every_metric_reported(self, name, trace):
        result = result_line(
            ["--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", str(trace)]
        )
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        runs = len(workloads.build(workloads.generate(name, 5)).runs)
        assert result["attempted"] >= runs * (2 if trace else 1)
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.usefixtures("short_budgets")
def test_library_that_stops_early_fails_every_run(monkeypatch):
    real_run = optimize.run

    def stops_early(objective, initial, config, rng):
        return real_run(objective, initial, dataclasses.replace(config, max_steps=1), rng)

    monkeypatch.setattr(optimize, "run", stops_early)
    argv = ["--workload", "tabular-minibatch", "--seed", "0", "--seconds", "0.1", "--trace", "0"]
    result = result_line(argv)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero without a result."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "tabular-full", "--seed", "0", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
