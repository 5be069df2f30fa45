"""The paper's ill-posedness results, forms (a) and (b), as gated tests.

A parametric q on k features, pushed to m measurement points A, has a
marginal Q_A of rank at most k.  Against a non-degenerate prior marginal
P_A, KL(Q_A || P_A) is therefore finite for m <= k and +inf for m > k.

The setting is toy1d's: 20 RBF features with centres linspace(-2, 2, 20)
and lengthscale 0.2 under the prior N(0, I).  As the centre density rho
grows, their prior covariance phi(x) . phi(x') tends to the GP kernel
rho sqrt(pi) ell exp(-(x - x')^2 / (4 ell^2)); at rho = 19/4 that kernel is
the non-degenerate prior.  On m equally spaced points of [-2, 2] its Gram
matrix has condition number 6e3 at m = 21 and stays below 1e8 up to m = 29,
so P_A is numerically full rank in the whole window where Q_A is singular.

Form (b): FixedA at m < k points has no maximizer.  The marginal KL sees
q's covariance only through B Sigma B^T for the m feature rows B, so
variance along the null space of B costs no KL, and the expected
log-likelihood keeps rewarding less of it.  On this file's data, Adam runs
of 1500 and 6000 steps at toy1d's settings show the supremum is not
attained: the longer run has the higher ELBO, smaller scales and a q
further from the exact posterior.
"""

import functools
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conftest import standard_gaussian
from fvi_bench import optimize
from fvi_bench.blr import BlrModel, Dataset, exact_posterior
from fvi_bench.features import RbfFeatureMap
from fvi_bench.gaussian import GaussianDist, kl_divergence
from fvi_bench.optimize import AdamConfig
from fvi_bench.variational import (
    Family,
    FixedA,
    MeasurementSet,
    Objective,
    VariationalState,
)

CENTERS = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)
LENGTHSCALE = 0.2
DENSITY = 19.0 / 4.0  # centres per unit length
NOISE_VARIANCE = 0.01


def gp_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The infinite-feature limit of the RBF features' prior covariance."""
    gap = a.reshape(-1, 1) - b.reshape(1, -1)
    return (
        DENSITY * math.sqrt(math.pi) * LENGTHSCALE * np.exp(-(gap**2) / (4.0 * LENGTHSCALE**2))
    )


def toy_problem() -> tuple[BlrModel, Dataset, dict[str, GaussianDist]]:
    """The model, 40 points in two clusters at -1.2 and 1.2, as in the
    paper's 1-D problem, and q as the prior and as the exact posterior."""
    model = BlrModel(RbfFeatureMap(CENTERS, np.array([LENGTHSCALE])), NOISE_VARIANCE)
    rng = np.random.default_rng(0)
    inputs = np.concatenate([rng.normal(-1.2, 0.3, 20), rng.normal(1.2, 0.3, 20)]).reshape(-1, 1)
    weights = rng.standard_normal(CENTERS.shape[0])
    targets = model.features(inputs) @ weights
    targets = targets + math.sqrt(NOISE_VARIANCE) * rng.standard_normal(targets.size)
    data = Dataset(inputs, targets)
    prior = standard_gaussian(CENTERS.shape[0])
    return model, data, {"prior": prior, "posterior": exact_posterior(model, data)}


MODEL, DATA, WEIGHT_DISTS = toy_problem()


def function_space_kl(q: GaussianDist, num_points: int) -> float:
    """KL(Q_A || P_A) at ``num_points`` equally spaced points on [-2, 2]."""
    points = np.linspace(-2.0, 2.0, num_points)
    rows = MODEL.features(points.reshape(-1, 1))
    q_marginal = GaussianDist(rows @ q.mean, rows @ q.cov @ rows.T)
    p_marginal = GaussianDist(np.zeros(num_points), gp_kernel(points, points))
    return kl_divergence(q_marginal, p_marginal)


@pytest.mark.parametrize("q_name", ["prior", "posterior"])
@pytest.mark.parametrize("num_points", [5, 10, 15, 20])
def test_finite_up_to_the_parameter_count(q_name, num_points):
    assert math.isfinite(function_space_kl(WEIGHT_DISTS[q_name], num_points))


@pytest.mark.parametrize("q_name", ["prior", "posterior"])
@pytest.mark.parametrize("num_points", [21, 25, 29])
def test_infinite_beyond_the_parameter_count(q_name, num_points):
    """A q on 20 weights is singular at more than 20 points, while the
    prior's Gram matrix stays numerically full rank.  A jitter ladder on q's
    factor once turned this into 43.7, 66.2 and 88.3 for the posterior."""
    points = np.linspace(-2.0, 2.0, num_points)
    assert np.linalg.cond(gp_kernel(points, points)) < 1e8
    assert function_space_kl(WEIGHT_DISTS[q_name], num_points) == math.inf


# --- form (b): FixedA with fewer measurement points than features -------------

FORM_B_POINTS = np.linspace(-2.0, 2.0, 10)  # m = 10 < k = 20
FORM_B_OBJECTIVE = Objective(FixedA(MeasurementSet(FORM_B_POINTS)), MODEL, DATA)


@functools.lru_cache(maxsize=None)
def fixed_a_final_state(family: Family, max_steps: int) -> VariationalState:
    """The final state of FixedA at the 10 points, toy1d's Adam settings."""
    config = AdamConfig(learning_rate=0.1, max_steps=max_steps, decay_tail_fraction=0.3)
    initial = VariationalState.prior_state(family, MODEL.num_features)
    trace = optimize.run(FORM_B_OBJECTIVE, initial, config, np.random.default_rng([0, 2, 0]))
    return trace.final_state


def smallest_scale(state: VariationalState) -> float:
    return float(np.min(np.diag(state.scale) if state.is_full else state.scale))


@pytest.mark.parametrize("family", [Family.FULL, Family.FFG])
def test_fixed_a_scales_keep_falling(family):
    """A longer run reaches a higher ELBO with smaller scales.  Measured
    between 1500 and 6000 steps: ELBO 18.94 -> 20.04 and smallest scale
    5e-3 -> 1.5e-6 (ffg), ELBO 26.42 -> 27.93 and 1.8e-3 -> 3.8e-8 (full)."""
    short, long = fixed_a_final_state(family, 1500), fixed_a_final_state(family, 6000)
    rng = np.random.default_rng(0)  # unused: a FixedA full-batch step draws nothing
    elbo_short, elbo_long = (
        FORM_B_OBJECTIVE.value_and_grad(state, rng).elbo_estimate for state in (short, long)
    )
    assert elbo_long > elbo_short
    assert smallest_scale(long) < 1e-2 * smallest_scale(short)


def kl_from_factor(q: VariationalState, p: GaussianDist) -> float:
    """KL(q || p) for a full-family q, read off its factor L, never off
    L L^T: the log-determinant sums log L_ii, so a q whose L L^T is
    numerically singular keeps the finite KL it has in exact arithmetic."""
    p_lower = np.linalg.cholesky(p.cov)
    whitened_scale = solve_triangular(p_lower, q.scale, lower=True)
    whitened_shift = solve_triangular(p_lower, q.mean - p.mean, lower=True)
    log_det_ratio = 2.0 * float(
        np.sum(np.log(np.diag(p_lower))) - np.sum(np.log(np.diag(q.scale)))
    )
    trace = float(np.sum(whitened_scale**2))
    return 0.5 * (trace + float(whitened_shift @ whitened_shift) - q.dim + log_det_ratio)


def test_fixed_a_drifts_away_from_the_posterior():
    """The same runs move q away from the exact posterior: KL(q || post) went
    651.7 -> 5218.7 for ffg, and 910.1 -> 6154.8 for the full family, taken
    from q's factor (the dense KL of the full family is +inf at 6000 steps,
    its L L^T being numerically singular)."""
    posterior = WEIGHT_DISTS["posterior"]
    short, long = (fixed_a_final_state(Family.FFG, steps) for steps in (1500, 6000))
    kl_short = kl_divergence(short.to_gaussian(), posterior)
    kl_long = kl_divergence(long.to_gaussian(), posterior)
    assert math.isfinite(kl_short) and kl_long >= 1.5 * kl_short
    short, long = (fixed_a_final_state(Family.FULL, steps) for steps in (1500, 6000))
    kl_short, kl_long = (kl_from_factor(state, posterior) for state in (short, long))
    # Where the dense KL is still finite, the two forms agree.
    assert kl_short == pytest.approx(kl_divergence(short.to_gaussian(), posterior), rel=1e-4)
    assert math.isfinite(kl_long) and kl_long >= 1.5 * kl_short
