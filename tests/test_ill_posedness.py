"""The paper's first ill-posedness result, form (a), as a gated test.

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
"""

import math

import numpy as np
import pytest

from fvi_bench.blr import BlrModel, Dataset, exact_posterior
from fvi_bench.features import RbfFeatureMap
from fvi_bench.gaussian import GaussianDist, kl_divergence

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


def toy_model_and_posterior() -> tuple[BlrModel, dict[str, GaussianDist]]:
    """The model, and q as the prior and as the exact posterior on 40 points
    in two clusters at -1.2 and 1.2, as in the paper's 1-D problem."""
    model = BlrModel(RbfFeatureMap(CENTERS, np.array([LENGTHSCALE])), NOISE_VARIANCE)
    rng = np.random.default_rng(0)
    inputs = np.concatenate([rng.normal(-1.2, 0.3, 20), rng.normal(1.2, 0.3, 20)]).reshape(-1, 1)
    weights = rng.standard_normal(CENTERS.shape[0])
    targets = model.features(inputs) @ weights
    targets = targets + math.sqrt(NOISE_VARIANCE) * rng.standard_normal(targets.size)
    return model, {
        "prior": model.prior,
        "posterior": exact_posterior(model, Dataset(inputs, targets)),
    }


MODEL, WEIGHT_DISTS = toy_model_and_posterior()


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
