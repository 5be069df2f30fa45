"""Timed training runs, each checked against the oracle.

The load is a closed loop: one process trains one run at a time.  A task is
either one set-up of the workload or one training run (an objective kind on
one family; on toy1d FixedA has two measurement sets, so two runs per
family).  The untraced measurement always starts next the task that has taken
the least (weighted) time so far, so the repetitions of every task are spread
over the whole window in units of one run, and a kind's time is the sum over
its runs of each run's mean time.

Why the mean and not the median: on a shared 2-vCPU machine the same run
takes one of two speeds (about 1.6x apart) in phases that last from one to
about fifteen seconds.  The median of a run's repetitions then lands on
whichever speed held for most of its window and jumps between the two from
run to run; the mean moves only with the share of time spent at each speed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import time
from typing import Callable

import numpy as np

from fvi_bench import optimize
from fvi_bench.variational import VariationalState

from . import oracle, tracing, workloads
from .workloads import Generated, Setup

SETUP = "setup"
# Set-up runs at least this often, even past the end of the window; every
# training run at least once.
SETUP_MIN_REPS = 3
# The share of the window that set-up takes, where SETUP_MIN_REPS of it do
# not already take more (k-means on tabular-full).
SETUP_SHARE = 0.2

Metrics = dict[str, tuple[float, str]]


def environment() -> dict:
    """Thread settings as found (None when unset), CPUs and library builds."""
    import scipy

    def blas_build(module) -> dict:
        blas = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}

    return {
        **{
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_build(np),
        "scipy_blas": blas_build(scipy),
    }


def train(
    generated: Generated,
    setup: Setup,
    ref: oracle.Reference,
    names: tuple[str, ...] | None = None,
    tracer: tracing.Tracer | None = None,
    checked: dict | None = None,
) -> list[dict]:
    """Train the named runs (every run when `names` is None) and check each.

    `checked` maps (run, steps run, digest of the final parameters) to earlier
    checks: a repetition that ends bit for bit where a checked one ended has
    the same oracle outcome, so on deterministic full-batch runs the oracle's
    cost is paid once and the window holds more training.
    """
    outcomes = []
    checked = {} if checked is None else checked
    for index, run in enumerate(setup.runs):
        if names is not None and run.name not in names:
            continue
        initial = VariationalState.prior_state(run.family, setup.model.num_features)
        rng = np.random.default_rng([generated.seed, 2, index])
        if tracer is not None:
            tracer.phase = "train"
        start = time.perf_counter()
        try:
            # Looked up on the module so that a traced run can wrap it.
            trace = optimize.run(run.objective, initial, generated.spec.adam, rng)
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.phase = "oracle"
            params = trace.final_state.params()
            key = (run.name, trace.steps_run, hashlib.sha256(params.tobytes()).digest())
            if key not in checked:
                checked[key] = oracle.check_run(
                    run, trace.final_state, trace.steps_run, generated, setup.model, ref
                )
            check = checked[key]
        except Exception as exc:  # a run or check that raises is one failed operation
            failure = f"(a) raised {type(exc).__name__}: {exc}"
            outcomes.append(
                {
                    "run": run.name,
                    "seconds": time.perf_counter() - start,
                    "failures": [failure],
                    "params": None,
                }
            )
            continue
        outcomes.append(
            {
                "run": run.name,
                "seconds": seconds,
                "failures": list(check.failures),
                "steps_run": trace.steps_run,
                "kl_to_posterior": check.kl_to_posterior,
                "kl_ratio_to_prior": check.kl_ratio_to_prior,
                "kl_to_posterior_dense": check.kl_to_posterior_dense,
                "elbo_minus_log_evidence": check.elbo_minus_log_evidence,
                "nlpd": check.nlpd,
                "params": params,
            }
        )
    return outcomes


def measure(generated: Generated, seconds: float) -> tuple[Metrics, list[dict]]:
    """The untraced run: end-to-end metrics (means over repetitions) and every outcome.

    Final parameters are dropped as soon as a run is checked, so that peak
    memory does not grow with the number of repetitions in the window.
    """
    samples: dict[str, list[float]] = {SETUP: []}
    weights: dict[str, float] = {}
    outcomes: list[dict] = []
    checked: dict = {}
    setup = ref = None
    deadline = time.perf_counter() + seconds
    while True:
        if setup is None:
            task = SETUP
        elif time.perf_counter() < deadline:
            task = min(samples, key=lambda t: weights.get(t, 1.0) * sum(samples[t]))
        else:
            below = [t for t, done in samples.items() if not done]
            if len(samples[SETUP]) < SETUP_MIN_REPS:
                below.append(SETUP)
            if not below:
                break
            task = below[0]
        if task == SETUP:
            setup = None  # release the previous set-up before timing the next
            start = time.perf_counter()
            setup = workloads.build(generated)
            samples[SETUP].append(time.perf_counter() - start)
            if ref is None:
                ref = oracle.reference(generated, setup.model)
                samples.update({run.name: [] for run in setup.runs})
                # Each run's total time matches set-up's weighted total.
                weights[SETUP] = (1.0 / SETUP_SHARE - 1.0) / len(setup.runs)
            continue
        done = train(generated, setup, ref, (task,), checked=checked)
        for outcome in done:
            samples[task].append(outcome["seconds"])
            del outcome["params"]
        outcomes += [{"task": task, **outcome} for outcome in done]

    metrics: Metrics = {"setup_s": (statistics.fmean(samples[SETUP]), "s")}
    for label in workloads.KIND_LABELS:
        total = sum(
            statistics.fmean(samples[run.name]) for run in setup.runs if run.label == label
        )
        metrics[f"train_s.{label}"] = (total, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, outcomes


def _rounds_until(deadline: float, round_fn: Callable[[], list[dict]]) -> list[list[dict]]:
    """Repeat rounds (at least one) while the next is expected to end by the deadline."""
    rounds = []
    while True:
        start = time.perf_counter()
        rounds.append(round_fn())
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return rounds


def _same_params(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is b
    return a.tobytes() == b.tobytes()


def measure_traced(generated: Generated, seconds: float) -> tuple[Metrics, list[dict], list]:
    """One untraced round of every run, then traced set-up and rounds.

    Returns the per-layer metrics, every outcome and the span records.
    """
    deadline = time.perf_counter() + seconds
    setup = workloads.build(generated)
    untraced = train(generated, setup, oracle.reference(generated, setup.model))
    setup = None
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.phase = "setup"
        setup = workloads.build(generated)
        tracer.phase = "oracle"
        ref = oracle.reference(generated, setup.model)
        traced = _rounds_until(deadline, lambda: train(generated, setup, ref, tracer=tracer))
    # The wrappers must be transparent: the first traced round repeats the
    # untraced one bit for bit.
    for plain, wrapped in zip(untraced, traced[0]):
        if not _same_params(plain["params"], wrapped["params"]):
            wrapped["failures"].append("traced final parameters differ from the untraced run")
    metrics = tracing.per_layer_metrics(tracer)
    overhead = sum(o["seconds"] for o in traced[0]) / sum(o["seconds"] for o in untraced)
    metrics["trace.overhead"] = (overhead, "ratio")
    outcomes = [{"task": "untraced", **o} for o in untraced]
    for index, round_outcomes in enumerate(traced):
        outcomes += [{"task": f"traced.{index}", **o} for o in round_outcomes]
    for outcome in outcomes:
        del outcome["params"]
    return metrics, outcomes, tracer.to_records()
