"""Feature maps for the linear-in-features regression model.

`RbfFeatureMap` computes radial basis function features (unnormalized
Gaussians, one per center, with a shared per-dimension lengthscale);
`evaluate` returns them as an (n, k) array.  The module also has a
k-means + median-heuristic featurizer for tabular data and
`independent_rows`, the numerical rank of a feature matrix: when it keeps k
of the candidate inputs' feature rows, those k inputs witness that distinct
weights give distinct functions.

The featurizer's k-means gives scipy's `kmeans2(minit="++")` centers bit for
bit, at less cost.  Its k-means++ seeding draws scipy's random numbers in
O(n k d) instead of O(n k^2 d), and stops once every input row is a seed.
Its Lloyd passes do scipy's arithmetic: -2 X C^T by one matrix product, then
+ |x|^2, then + |c|^2, each norm summed one column at a time; a row's label
is its first minimum, and a new center is the row-order sum of its rows
over their count.  For d >= 5 scipy's `vq` makes the same dgemm call (on the
BLAS scipy bundles); for d <= 4 it sums (x - c)^2 directly, which can differ
only at a near tie and matches on every input tested.  Unlike scipy, the
loop forms the distances ``_LLOYD_BLOCK_ROWS`` rows at a time, so each block
stays in cache.  On 20000 x 8 inputs and 200 centers it took 100-130 ms,
against 130-220 ms for `kmeans2` and 170-230 ms for the same loop
unblocked (2-vCPU x86-64 host, shared).  It also keeps the featurizer off
scipy's BLAS, whose idle threads would otherwise spin against numpy's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as _scipy_qr
from scipy.spatial.distance import cdist, pdist

from .errors import DimensionMismatchError, NonFiniteValueError, require_count

RANK_RTOL = 1e-8  # singular values below RANK_RTOL * sigma_max count as zero
LENGTHSCALE_MAX_POINTS = 1000  # median heuristic subsample size
LLOYD_ITERATIONS = 10  # k-means refinement passes, scipy's `kmeans2` default
_LLOYD_BLOCK_ROWS = 256  # rows per distance block: (256, k) stays in cache


@dataclass(frozen=True)
class RbfFeatureMap:
    """x -> exp(-0.5 * sum_d ((x_d - c_d) / ell_d)^2), one feature per center."""

    centers: np.ndarray  # (k, d)
    lengthscales: np.ndarray  # (d,), shared across centers

    def __post_init__(self):
        # Own read-only copies: models and cached statistics assume a fixed map.
        centers = np.atleast_2d(np.array(self.centers, dtype=float))
        lengthscales = np.array(self.lengthscales, dtype=float).reshape(-1)
        if centers.shape[0] < 1 or centers.shape[1] < 1:
            raise ValueError("need at least one center and one input dimension")
        if lengthscales.shape[0] != centers.shape[1]:
            raise DimensionMismatchError(
                f"lengthscales must have length {centers.shape[1]}, got {lengthscales.shape[0]}"
            )
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(lengthscales))):
            raise NonFiniteValueError("centers and lengthscales must be finite")
        if np.any(lengthscales <= 0.0):
            raise ValueError("lengthscales must be strictly positive")
        centers.flags.writeable = lengthscales.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "lengthscales", lengthscales)

    @property
    def num_features(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return evaluate(self, inputs)


def _as_rows(inputs: np.ndarray) -> np.ndarray:
    """Inputs as an (n, d) float array; 1-D inputs are one column."""
    inputs = np.asarray(inputs, dtype=float)
    return inputs.reshape(-1, 1) if inputs.ndim < 2 else inputs


def evaluate(feature_map: RbfFeatureMap, inputs: np.ndarray) -> np.ndarray:
    """The RBF features at each input row, (n, k): [i, j] is feature j at row i."""
    inputs = _as_rows(inputs)
    if inputs.shape[1] != feature_map.input_dim:
        raise DimensionMismatchError(
            f"inputs have dimension {inputs.shape[1]}, centers have {feature_map.input_dim}"
        )
    scaled_x = inputs / feature_map.lengthscales
    scaled_c = feature_map.centers / feature_map.lengthscales
    values = squared_distances(scaled_x, scaled_c)
    values *= -0.5
    return np.exp(values, out=values)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, (n_a, n_b),
    with roundoff-level negatives clipped to zero.

    |a|^2 - 2 a.b + |b|^2, formed in place in the one (n_a, n_b) buffer.
    Scaling a before the product keeps numpy from taking a @ a.T to the
    symmetric BLAS kernel, whose rounding differs, when b is a.
    """
    out = (-2.0 * a) @ b.T
    out += np.sum(a**2, axis=1)[:, None]
    out += np.sum(b**2, axis=1)
    return np.maximum(out, 0.0, out=out)


def independent_rows(matrix: np.ndarray) -> np.ndarray:
    """Indices of a maximal linearly independent subset of rows (pivoted QR),
    in ascending order."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return np.arange(0)
    _, r, pivots = _scipy_qr(matrix.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return np.arange(0)
    rank = int(np.sum(diag > RANK_RTOL * diag[0]))
    return np.sort(pivots[:rank])


def median_heuristic_lengthscales(
    inputs: np.ndarray, *, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Per-dimension median absolute pairwise difference; 1.0 for constant dims.

    Above ``LENGTHSCALE_MAX_POINTS`` rows, the pairs of a random subsample.
    The median is `np.median`'s, from one partition of each dimension's pair
    differences, all written into one buffer: a fit allocates it once.
    """
    inputs = _as_rows(inputs)
    if not np.all(np.isfinite(inputs)):
        raise NonFiniteValueError("median heuristic inputs contain NaN or Inf")
    n = inputs.shape[0]
    if n > LENGTHSCALE_MAX_POINTS:
        rng = rng or np.random.default_rng(0)
        inputs = inputs[rng.choice(n, size=LENGTHSCALE_MAX_POINTS, replace=False)]
    scales, pairs = np.ones(inputs.shape[1]), np.empty(len(inputs) * (len(inputs) - 1) // 2)
    for dim in range(inputs.shape[1]):
        diffs = pdist(inputs[:, dim : dim + 1], "cityblock", out=pairs)
        if diffs.size == 0:
            continue
        median = _median_in_place(diffs)
        if median > 0.0:
            scales[dim] = median
    return scales


def _median_in_place(values: np.ndarray) -> float:
    """`np.median` of a non-empty 1-D array from one partition, which
    reorders the array."""
    half = values.size // 2
    values.partition(half)
    if values.size % 2:
        return float(values[half])
    return float((values[:half].max() + values[half]) / 2)


def _kmeans_pp_seeds(
    inputs: np.ndarray, num_centers: int, rng: np.random.Generator
) -> np.ndarray:
    """Up to num_centers k-means++ seeds (Arthur & Vassilvitskii, 2007).

    Draws as scipy's `kmeans2(minit="++")` does: `integers(n)`, then one
    `uniform()` per seed against the normalized cumsum of each row's squared
    distance to its nearest seed, kept here as a running minimum.  Stops when
    those distances are all zero: one seed per distinct row.
    """
    seeds = [inputs[rng.integers(inputs.shape[0])]]
    nearest = cdist(seeds[0][None, :], inputs, "sqeuclidean")[0]
    while len(seeds) < num_centers:
        total = nearest.sum()
        if total == 0.0:
            break
        cumulative = (nearest / total).cumsum()
        seeds.append(inputs[int(np.searchsorted(cumulative, rng.uniform()))])
        np.minimum(nearest, cdist(seeds[-1][None, :], inputs, "sqeuclidean")[0], out=nearest)
    return np.array(seeds)


def _lloyd(inputs: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``LLOYD_ITERATIONS`` Lloyd passes from the given centers, as scipy's
    `kmeans2(inputs, centers, minit="matrix")` computes them (see the module
    docstring).  An empty cluster keeps its center, with a warning."""
    inputs = np.ascontiguousarray(inputs)
    n, dim = inputs.shape
    num_centers = centers.shape[0]
    row_norms = _column_sum_of_squares(inputs)
    labels = np.empty(n, dtype=np.intp)
    block = np.empty((min(n, _LLOYD_BLOCK_ROWS), num_centers))
    for _ in range(LLOYD_ITERATIONS):
        scaled = -2.0 * centers
        center_norms = _column_sum_of_squares(centers)
        for start in range(0, n, _LLOYD_BLOCK_ROWS):
            stop = min(start + _LLOYD_BLOCK_ROWS, n)
            dist = block[: stop - start]
            np.matmul(inputs[start:stop], scaled.T, out=dist)
            dist += row_norms[start:stop, None]
            dist += center_norms
            dist.argmin(axis=1, out=labels[start:stop])
        # bincount adds the weights in row order, as scipy's cluster means do.
        counts = np.bincount(labels, minlength=num_centers)
        sums = np.column_stack(
            [np.bincount(labels, weights=inputs[:, j], minlength=num_centers) for j in range(dim)]
        )
        empty = counts == 0
        if empty.any():
            warnings.warn(
                "k-means left a cluster empty; it keeps its previous center", stacklevel=3
            )
            sums[empty] = centers[empty]
            counts[empty] = 1
        centers = sums / counts[:, None]
    return centers


def _column_sum_of_squares(rows: np.ndarray) -> np.ndarray:
    """sum_j rows[:, j]^2, added one column at a time in column order."""
    total = rows[:, 0] ** 2
    for j in range(1, rows.shape[1]):
        total += rows[:, j] ** 2
    return total


def fit_rbf_featurizer(
    inputs: np.ndarray, num_centers: int = 100, rng: np.random.Generator | None = None
) -> RbfFeatureMap:
    """RBF featurizer for tabular data: k-means centers on the inputs plus
    per-dimension median-heuristic lengthscales.  1-D inputs are one column."""
    inputs = _as_rows(inputs)
    if not np.all(np.isfinite(inputs)):
        raise NonFiniteValueError("featurizer inputs contain NaN or Inf")
    require_count("num_centers", num_centers, 1)
    rng = rng or np.random.default_rng(0)
    seeds = _kmeans_pp_seeds(inputs, min(num_centers, inputs.shape[0]), rng)
    centers = _lloyd(inputs, seeds)
    return RbfFeatureMap(centers, median_heuristic_lengthscales(inputs, rng=rng))
