"""Closed-form oracle checks on the final state of every training run.

Bayesian linear regression has a conjugate posterior and a closed-form log
evidence, so each run is checked against quantities computed without the
training code:

(a) the final parameters are finite (a run that raises fails before this);
(b) log evidence - (ELL - weight-space KL) equals KL(q || exact posterior),
    an identity that holds for any q and ties the objective terms to the
    oracle.  The KL is taken from q's own scale factor: `kl_divergence`
    factorizes the dense covariance L L^T, which squares the condition number
    of L and misses the identity by ~1e-4 relative on toy1d's FixedA m<k
    runs, so its value is recorded but not gated;
(c) for Exact and FixedA, the ELL and KL that the Objective reports equal
    `expected_log_likelihood` and `exact_kl` / `marginal_kl` recomputed
    through the public functions;
(d) where the step budget reaches them, Exact/full ends at the conjugate
    posterior and FixedA/full at the centres ends at `fixed_a_optimal_mean`;
(e) except for Ssge, whose gradient is a stochastic estimate, the reported
    gradient matches a central difference of the reported ELBO along a
    random direction, with the same measurement set and minibatch;
(f) the run took every step of the workload's budget;
(g) training got as far as its budget leads.  Let r be KL(q || exact
    posterior) over its value at the prior, where every run starts.  The
    oracle finds the r that the budget reaches with its own Adam loop on the
    full-batch weight-space ELBO (what an Exact run does, without
    `optimize.run`), and each run must make at least half that progress on
    a log scale: r <= sqrt(r_reference), or r <= the workload's
    `kl_ratio_floor`.  With (f) this rejects a run that stops early or hands
    back a state short of where its budget leads, also where (d) does not
    apply.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from fvi_bench import blr, gaussian
from fvi_bench.blr import BlrModel, Dataset
from fvi_bench.variational import (
    Exact,
    Family,
    FixedA,
    MinibatchSchedule,
    Objective,
    Ssge,
    VariationalState,
    exact_kl,
    expected_log_likelihood,
    fixed_a_optimal_mean,
    marginal_kl,
    measurement_set_from_points,
)

from .workloads import FAMILIES, Generated, TrainingRun

IDENTITY_RTOL = 1e-9  # (b); agrees to ~1e-14 relative in practice
REPORT_RTOL = 1e-9  # (c)
POSTERIOR_KL_TOL = 1e-4  # (d), KL(q || exact posterior) of Exact/full
FIXED_A_MEAN_TOL = 1e-3  # (d), max abs error of the FixedA/full mean
GRADIENT_RTOL = 1e-5  # (e), relative to max(1, |gradient|)
FD_STEP = 1e-5
CHECK_SEED = 20_201_118  # rng of the re-evaluations; independent of the workload seed
CONVERGED_FIXED_SET = "centres"


@dataclass(frozen=True)
class Reference:
    """Closed-form quantities of one workload, computed once."""

    posterior: gaussian.GaussianDist
    posterior_factor: np.ndarray  # lower Cholesky factor of the posterior covariance
    log_evidence: float
    fixed_a_mean: np.ndarray | None  # stationary FixedA mean at the centres
    prior_kl: float  # KL(prior || exact posterior), where every run starts
    # Family -> KL(q || exact posterior) / prior_kl after the oracle's own
    # Adam loop on the full-batch weight-space ELBO, for the workload's budget.
    reference_kl_ratio: dict[Family, float]


def reference(generated: Generated, model: BlrModel) -> Reference:
    fixed_a_mean = None
    if generated.spec.converges and CONVERGED_FIXED_SET in generated.fixed_sets:
        fixed_a_mean = fixed_a_optimal_mean(
            model,
            generated.train,
            measurement_set_from_points(generated.fixed_sets[CONVERGED_FIXED_SET]),
        )
    posterior = blr.exact_posterior(model, generated.train)
    ref = Reference(
        posterior,
        gaussian.cholesky_psd(posterior.cov, what="posterior covariance").matrix,
        blr.log_marginal_likelihood(model, generated.train),
        fixed_a_mean,
        prior_kl=np.nan,
        reference_kl_ratio={},
    )
    prior_kl = kl_to_posterior(VariationalState.prior_state(Family.FULL, model.num_features), ref)
    ratios = {
        family: kl_to_posterior(_adam_on_elbo(generated, model, family), ref) / prior_kl
        for family in FAMILIES
    }
    return replace(ref, prior_kl=prior_kl, reference_kl_ratio=ratios)


def _adam_on_elbo(generated: Generated, model: BlrModel, family: Family) -> VariationalState:
    """The workload's Adam budget on the full-batch weight-space ELBO, from the prior."""
    adam = generated.spec.adam
    state = VariationalState.prior_state(family, model.num_features)
    params = state.params()
    first, second = np.zeros_like(params), np.zeros_like(params)
    for step in range(1, adam.max_steps + 1):
        _, ell_grad = expected_log_likelihood(state, model, generated.train)
        _, kl_grad = exact_kl(state, model)
        grad = ell_grad - kl_grad
        first = adam.beta1 * first + (1.0 - adam.beta1) * grad
        second = adam.beta2 * second + (1.0 - adam.beta2) * grad**2
        corrected = first / (1.0 - adam.beta1**step)
        normalizer = np.sqrt(second / (1.0 - adam.beta2**step)) + adam.epsilon
        params = params + adam.rate_at(step) * corrected / normalizer
        state = state.with_params(params)
    return state


def kl_to_posterior(state: VariationalState, ref: Reference) -> float:
    """KL(q || exact posterior) from q's scale factor, never forming L L^T."""
    factor = ref.posterior_factor
    scale = state.scale if state.is_full else np.diag(state.scale)
    half = solve_triangular(factor, scale, lower=True)
    delta = solve_triangular(factor, state.mean - ref.posterior.mean, lower=True)
    log_det_ratio = np.sum(np.log(np.diag(factor))) - np.sum(np.log(np.abs(np.diag(scale))))
    return 0.5 * float(np.sum(half**2) + delta @ delta - state.dim + 2.0 * log_det_ratio)


@dataclass(frozen=True)
class RunCheck:
    """Accuracy of one run's final state, and the checks it missed."""

    failures: tuple[str, ...]
    kl_to_posterior: float
    kl_ratio_to_prior: float  # KL(q || posterior) / KL(prior || posterior)
    kl_to_posterior_dense: float  # gaussian.kl_divergence on the dense covariance
    elbo_minus_log_evidence: float
    nlpd: float


def _close(a: float, b: float, rtol: float, *scale: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b), *(abs(s) for s in scale))


def _evaluate(run: TrainingRun, model: BlrModel, data: Dataset, minibatch: int | None, state):
    """The run's objective at `state`, with the check's own rng.

    A fresh Objective restarts the minibatch schedule, so its first batch is
    reproducible from the check seed; full-batch runs reuse their objective.
    """
    objective = run.objective if minibatch is None else Objective(run.kind, model, data, minibatch)
    return objective.value_and_grad(state, np.random.default_rng(CHECK_SEED))


def check_run(
    run: TrainingRun,
    final_state: VariationalState,
    steps_run: int,
    generated: Generated,
    model: BlrModel,
    ref: Reference,
) -> RunCheck:
    spec = generated.spec
    data, minibatch = generated.train, spec.minibatch_size
    failures: list[str] = []
    if steps_run != spec.adam.max_steps:
        failures.append(f"(f) ran {steps_run} of {spec.adam.max_steps} steps")
    if not np.all(np.isfinite(final_state.params())):
        failures.append("(a) non-finite final parameters")
        return RunCheck(tuple(failures), np.nan, np.nan, np.nan, np.nan, np.nan)
    q = final_state.to_gaussian()
    kl_post = kl_to_posterior(final_state, ref)
    kl_ratio = kl_post / ref.prior_kl
    kl_ratio_limit = max(np.sqrt(ref.reference_kl_ratio[final_state.family]), spec.kl_ratio_floor)
    if not kl_ratio <= kl_ratio_limit:
        failures.append(
            f"(g) KL(q || posterior) is {kl_ratio:.3g} of the prior's, above {kl_ratio_limit:.3g}"
        )
    ell, _ = expected_log_likelihood(final_state, model, data)
    kl_weights, _ = exact_kl(final_state, model)
    elbo_gap = ell - kl_weights - ref.log_evidence
    if not _close(-elbo_gap, kl_post, IDENTITY_RTOL, ref.log_evidence, ell):
        failures.append(
            f"(b) log evidence - ELBO = {-elbo_gap!r} but KL(q || posterior) = {kl_post!r}"
        )

    evaluation = _evaluate(run, model, data, minibatch, final_state)
    if isinstance(run.kind, (Exact, FixedA)):
        ell_ref = ell
        if minibatch is not None:
            batch = MinibatchSchedule(data.size, minibatch).next_batch(
                np.random.default_rng(CHECK_SEED)
            )
            ell_ref, _ = expected_log_likelihood(final_state, model, data, batch)
        if isinstance(run.kind, Exact):
            kl_ref = kl_weights
        else:
            kl_ref, _ = marginal_kl(final_state, model, run.kind.measurement_set)
        if not _close(evaluation.expected_ll, ell_ref, REPORT_RTOL):
            failures.append(f"(c) reported ELL {evaluation.expected_ll!r} != {ell_ref!r}")
        if not _close(evaluation.kl_term, kl_ref, REPORT_RTOL, ell_ref):
            failures.append(f"(c) reported KL {evaluation.kl_term!r} != {kl_ref!r}")

    if spec.converges and final_state.family is Family.FULL:
        if isinstance(run.kind, Exact) and not kl_post < POSTERIOR_KL_TOL:
            failures.append(f"(d) KL(q || posterior) = {kl_post:.3g} >= {POSTERIOR_KL_TOL:g}")
        if run.name.startswith(f"fixed_a.{CONVERGED_FIXED_SET}/"):
            error = float(np.max(np.abs(final_state.mean - ref.fixed_a_mean)))
            if not error < FIXED_A_MEAN_TOL:
                failures.append(f"(d) FixedA mean error {error:.3g} >= {FIXED_A_MEAN_TOL:g}")

    if not isinstance(run.kind, Ssge):
        params = final_state.params()
        direction = np.random.default_rng(CHECK_SEED).standard_normal(params.size)
        direction /= np.linalg.norm(direction)
        plus, minus = (
            _evaluate(run, model, data, minibatch, final_state.with_params(params + h * direction))
            for h in (FD_STEP, -FD_STEP)
        )
        numeric = (plus.elbo_estimate - minus.elbo_estimate) / (2.0 * FD_STEP)
        analytic = float(evaluation.grad @ direction)
        grad_scale = max(1.0, float(np.linalg.norm(evaluation.grad)))
        if abs(numeric - analytic) > GRADIENT_RTOL * grad_scale:
            failures.append(f"(e) directional derivative {numeric!r} != gradient {analytic!r}")

    return RunCheck(
        tuple(failures),
        kl_post,
        kl_ratio,
        gaussian.kl_divergence(q, ref.posterior),
        elbo_gap,
        blr.nlpd(model, q, generated.test),
    )
