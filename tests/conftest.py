import numpy as np

from fvi_bench import gaussian
from fvi_bench.blr import BlrModel, Dataset
from fvi_bench.features import RANK_RTOL, RbfFeatureMap, fit_rbf_featurizer, independent_rows
from fvi_bench.variational import (
    MeasurementPolicy,
    box_from_inputs,
    measurement_set_from_points,
    sample_measurement_set,
)


def random_spd_matrix(rng: np.random.Generator, n: int, *, min_eig: float = 0.1) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues >= min_eig."""
    a = rng.standard_normal((n, n))
    return a @ a.T + min_eig * np.eye(n)


def random_full_gaussian(rng: np.random.Generator, n: int) -> gaussian.GaussianDist:
    return gaussian.full_gaussian(rng.standard_normal(n), random_spd_matrix(rng, n))


def random_diagonal_gaussian(rng: np.random.Generator, n: int) -> gaussian.GaussianDist:
    return gaussian.diagonal_gaussian(rng.standard_normal(n), rng.uniform(0.2, 3.0, n))


# --- measurement sets for the QR form of `MarginalKl` -------------------------

# (rows m, features k, input dimension d) of the RandA and Ssge measurement
# sets of the two tabular benchmark workloads.
WORKLOAD_SHAPES = [(100, 200, 8), (50, 100, 4)]

# Lengthscales of 20 RBF features on [-2, 2] at which 12 evenly spaced points
# on [-2, 2] have feature rows of condition number 1.1e2, 4.2e5, 6.7e7 and
# 5.3e8; at the last the pivoted QR drops one row and the 11 kept have 2.1e7.
ILL_CONDITIONED_LENGTHSCALES = [0.388, 0.716, 0.936, 1.036]


def workload_shaped_sets(shape, seed: int, count: int):
    """A model on k RBF features fitted to uniform inputs in d dimensions, and
    `count` measurement sets of m points drawn as RandA draws them."""
    m, k, d = shape
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(size=(5 * k, d))
    model = BlrModel(fit_rbf_featurizer(inputs, k, rng=rng), noise_variance=0.01)
    data = Dataset(inputs, np.zeros(inputs.shape[0]))
    policy = MeasurementPolicy(m, 0.5, box_from_inputs(inputs))
    return model, [sample_measurement_set(policy, data, rng) for _ in range(count)]


def ill_conditioned_set(lengthscale: float):
    """A 1-D model on 20 RBF features and 12 evenly spaced measurement points."""
    fmap = RbfFeatureMap(np.linspace(-2.0, 2.0, 20).reshape(-1, 1), np.array([lengthscale]))
    points = np.linspace(-2.0, 2.0, 12).reshape(-1, 1)
    return BlrModel(fmap, noise_variance=0.1), measurement_set_from_points(points)


def svd_form(rows: np.ndarray):
    """The retained rows and their SVD (U, S, V^T), as the SVD form of
    `MarginalKl` chose and factorized them; the oracle of its QR form.  All
    rows are kept when m <= k and sigma_min > RANK_RTOL * sigma_max, and
    otherwise the rows that `independent_rows` selects."""
    svd = np.linalg.svd(rows, full_matrices=False) if rows.shape[0] <= rows.shape[1] else None
    if svd is None or not svd[1][-1] > RANK_RTOL * svd[1][0]:
        rows = rows[independent_rows(rows)]
        svd = np.linalg.svd(rows, full_matrices=False)
    return rows, svd


def relative_error(estimate, exact) -> float:
    return float(np.linalg.norm(estimate - exact) / np.linalg.norm(exact))
