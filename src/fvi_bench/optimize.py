"""Adam ascent on variational parameters.

The optimizer is deliberately plain: bias-corrected Adam on the
unconstrained parameter vector, on the learning-rate schedule of
`AdamConfig`, and no early stopping: every run takes its whole step
budget.  A run is deterministic given its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FviBenchError, NonFiniteGradientError, require_count
from .variational import Objective, ObjectiveEval, VariationalState

FINAL_LR_FACTOR = 1e-6  # the decay tail ends at this multiple of the base rate
LOG_EVERY = 50  # a run records steps 1, LOG_EVERY, 2 LOG_EVERY, ... and its last


@dataclass(frozen=True)
class AdamConfig:
    """Adam settings.

    The base learning rate holds for the first ``1 - decay_tail_fraction``
    of the run; the remaining steps decay it geometrically down to
    ``FINAL_LR_FACTOR`` times the base.  The tail exists because constant-rate
    Adam orbits a deterministic optimum at a distance proportional to the
    rate, which is orders of magnitude above the closed-form oracle
    tolerances this suite checks against; set ``decay_tail_fraction=0`` for a
    constant rate.  ``beta1``, ``beta2`` and ``epsilon`` are class constants,
    not settings.  ``beta2`` is 0.99 rather than the textbook 0.999 so the
    second moment tracks the shrinking gradients through the decay tail; with
    the longer memory the normalizer goes stale and freezes the iterate well
    away from the optimum.
    """

    beta1 = 0.9
    beta2 = 0.99
    epsilon = 1e-8

    learning_rate: float
    max_steps: int
    decay_tail_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < math.inf:  # NaN fails too
            raise ValueError("learning rate must be finite and >= 0")
        require_count("max_steps", self.max_steps, 0)
        if not 0.0 <= self.decay_tail_fraction <= 1.0:
            raise ValueError("decay_tail_fraction must be in [0, 1]")

    def rate_at(self, step: int) -> float:
        """Learning rate for a given 1-based step."""
        tail = int(self.max_steps * self.decay_tail_fraction)
        start = self.max_steps - tail
        if step <= start or tail == 0:
            return self.learning_rate
        progress = (step - start) / tail
        return self.learning_rate * FINAL_LR_FACTOR**progress


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
            if step % LOG_EVERY == 0 or step == config.max_steps or step == 1:
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
    except FviBenchError as error:
        trace.final_state = state
        error.trace = trace
        raise
    trace.final_state = state
    return trace
