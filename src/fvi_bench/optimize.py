"""Adam ascent on variational parameters.

The optimizer is deliberately plain: bias-corrected Adam on the
unconstrained parameter vector, on the learning-rate schedule of
`AdamConfig`, and no early stopping: every run takes its whole step
budget.  A run is deterministic given its seed.  Its trace records the
ELBO estimate, the KL term and the rows dropped, the paper's diagnostics.

Adam's two moments live in buffers allocated once per run and are updated
in place, rounded as the textbook expression rounds them.  The parameter
vector is new at every step: the state built from it holds a view of it,
and the last good state must outlive a step that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FviBenchError, NonFiniteValueError, require_count
from .variational import Objective, VariationalState

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
        if isinstance(self.learning_rate, bool) or not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning rate must be finite and >= 0")  # NaN fails too
        require_count("max_steps", self.max_steps, 0)
        if isinstance(self.decay_tail_fraction, bool) or not 0.0 <= self.decay_tail_fraction <= 1.0:
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

    The moments are updated in place; ``params`` is a new array at every
    step, because the state `VariationalState.with_params` returns holds a
    view of it.

    Raises:
        NonFiniteValueError: a step's gradient or ELBO estimate is NaN or
            Inf, or an updated parameter leaves the range of its exp.
        FviBenchError: any package error raised by a step (for example
            ``DegenerateMarginalError``).  Every such error carries the trace
            accumulated so far as ``trace``, ending at the last good state.
    """
    params = initial.params()
    state = initial
    first_moment = np.zeros_like(params)
    second_moment = np.zeros_like(params)
    scratch = np.empty_like(params)
    update = np.empty_like(params)
    trace = TrainTrace()
    try:
        for step in range(1, config.max_steps + 1):
            evaluation = objective.value_and_grad(state, rng, step)
            grad = evaluation.grad
            if not np.all(np.isfinite(grad)) or not np.isfinite(evaluation.elbo_estimate):
                raise NonFiniteValueError(f"non-finite gradient or objective at step {step}")
            if step % LOG_EVERY == 0 or step == config.max_steps or step == 1:
                trace.records.append(
                    TraceRecord(
                        step, evaluation.elbo_estimate, evaluation.kl_term, evaluation.rows_dropped
                    )
                )
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, then
            # params + rate m_hat / (sqrt(v_hat) + eps), rounded as written.
            first_moment *= config.beta1
            first_moment += np.multiply(1.0 - config.beta1, grad, out=scratch)
            second_moment *= config.beta2
            np.multiply(grad, grad, out=scratch)
            second_moment += np.multiply(1.0 - config.beta2, scratch, out=scratch)
            np.divide(second_moment, 1.0 - config.beta2**step, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += config.epsilon
            np.divide(first_moment, 1.0 - config.beta1**step, out=update)
            np.multiply(config.rate_at(step), update, out=update)
            update /= scratch
            params = params + update  # a new array: the state's mean is a view of it
            state = state.with_params(params)
            trace.steps_run = step
    except FviBenchError as error:
        error.trace = trace
        raise
    finally:
        trace.final_state = state
    return trace
