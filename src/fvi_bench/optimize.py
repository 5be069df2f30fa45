"""Adam ascent on variational parameters, plus a finite-difference checker.

The optimizer is deliberately plain: bias-corrected Adam with a constant
learning rate on the unconstrained parameter vector, no schedules and no
implicit early stopping (an explicit gradient-norm tolerance can be opted
into).  A run is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import FviBenchError, NonFiniteGradientError
from .variational import Objective, ObjectiveEval, VariationalState


@dataclass(frozen=True)
class AdamConfig:
    """Adam settings.

    The base learning rate holds for the first ``1 - decay_tail_fraction``
    of the run; the remaining steps decay it geometrically down to
    ``final_lr_factor`` times the base.  The tail exists because constant-rate
    Adam orbits a deterministic optimum at a distance proportional to the
    rate, which is orders of magnitude above the closed-form oracle
    tolerances this suite checks against; set ``decay_tail_fraction=0`` for a
    constant rate.  ``beta2`` defaults to 0.99 rather than the textbook 0.999
    so the second moment tracks the shrinking gradients through the decay
    tail; with the longer memory the normalizer goes stale and freezes the
    iterate well away from the optimum.
    """

    learning_rate: float
    max_steps: int
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-8
    decay_tail_fraction: float = 0.5
    final_lr_factor: float = 1e-6
    log_every: int = 50
    tolerance_grad_norm: float | None = None

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if not 0.0 <= self.decay_tail_fraction <= 1.0:
            raise ValueError("decay_tail_fraction must be in [0, 1]")
        if not 0.0 < self.final_lr_factor <= 1.0:
            raise ValueError("final_lr_factor must be in (0, 1]")

    def rate_at(self, step: int) -> float:
        """Learning rate for a given 1-based step."""
        tail = int(self.max_steps * self.decay_tail_fraction)
        start = self.max_steps - tail
        if step <= start or tail == 0 or self.final_lr_factor == 1.0:
            return self.learning_rate
        progress = (step - start) / tail
        return self.learning_rate * self.final_lr_factor**progress


@dataclass(frozen=True)
class TraceRecord:
    step: int
    elbo_estimate: float
    kl_term: float
    expected_ll_term: float
    grad_norm: float
    rows_dropped: int  # dependent measurement rows dropped at this step


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    final_state: VariationalState | None = None
    steps_run: int = 0

    def summary(self) -> dict:
        last = self.records[-1] if self.records else None
        return {
            "steps_run": self.steps_run,
            "records": len(self.records),
            "final_elbo_estimate": last.elbo_estimate if last else None,
            "final_kl_term": last.kl_term if last else None,
            "final_expected_ll": last.expected_ll_term if last else None,
            "final_grad_norm": last.grad_norm if last else None,
            "rows_dropped": sum(r.rows_dropped for r in self.records),
        }


def run(
    objective: Objective,
    initial: VariationalState,
    config: AdamConfig,
    rng: np.random.Generator,
) -> TrainTrace:
    """Adam-ascend the objective from the initial state.

    Raises:
        NonFiniteGradientError: a NaN/Inf gradient appeared.
        FviBenchError: any package error raised by a step (for example
            ``DegenerateMarginalError``).  Every such error carries the trace
            accumulated so far as ``trace``, ending at the last good state.
    """
    params = initial.params()
    state = initial
    first_moment = np.zeros_like(params)
    second_moment = np.zeros_like(params)
    trace = TrainTrace()

    def record(step: int, evaluation: ObjectiveEval, grad_norm: float):
        trace.records.append(
            TraceRecord(
                step,
                evaluation.elbo_estimate,
                evaluation.kl_term,
                evaluation.expected_ll,
                grad_norm,
                evaluation.rows_dropped,
            )
        )

    try:
        for step in range(1, config.max_steps + 1):
            evaluation = objective.value_and_grad(state, rng, step)
            grad = evaluation.grad
            if not np.all(np.isfinite(grad)) or not np.isfinite(evaluation.elbo_estimate):
                raise NonFiniteGradientError(f"non-finite gradient or objective at step {step}")
            grad_norm = float(np.linalg.norm(grad))
            if step % config.log_every == 0 or step == config.max_steps or step == 1:
                record(step, evaluation, grad_norm)
            first_moment = config.beta1 * first_moment + (1.0 - config.beta1) * grad
            second_moment = config.beta2 * second_moment + (1.0 - config.beta2) * grad**2
            corrected_first = first_moment / (1.0 - config.beta1**step)
            corrected_second = second_moment / (1.0 - config.beta2**step)
            params = params + config.rate_at(step) * corrected_first / (
                np.sqrt(corrected_second) + config.epsilon
            )
            state = state.with_params(params)
            trace.steps_run = step
            if config.tolerance_grad_norm is not None and grad_norm < config.tolerance_grad_norm:
                break
    except FviBenchError as error:
        trace.final_state = state
        error.trace = trace
        raise
    trace.final_state = state
    return trace


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    rel_errors: np.ndarray
    analytic: np.ndarray
    numeric: np.ndarray


def finite_diff_check(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    step: float = 1e-5,
) -> GradientCheckReport:
    """Central finite differences against the analytic gradient.

    The callable must be deterministic; stochastic objectives need to be
    wrapped with a frozen seed by the caller.  Relative error per coordinate
    uses max(|analytic|, |numeric|, 1) as the denominator so near-zero
    coordinates are compared absolutely.
    """
    point = np.asarray(point, dtype=float)
    _, analytic = value_and_grad(point)
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.empty_like(analytic)
    for i in range(point.size):
        bumped = point.copy()
        bumped[i] += step
        plus, _ = value_and_grad(bumped)
        bumped[i] -= 2.0 * step
        minus, _ = value_and_grad(bumped)
        numeric[i] = (plus - minus) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    rel_errors = np.abs(numeric - analytic) / denom
    return GradientCheckReport(float(rel_errors.max()), rel_errors, analytic, numeric)
