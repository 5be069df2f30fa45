"""Feature maps for the linear-in-features regression model.

`RbfFeatureMap` computes radial basis function features (unnormalized
Gaussians, one per center, with a shared per-dimension lengthscale);
`evaluate` returns them as an (n, k) array.  The module also has a
featurizer for tabular data, distinct input rows as centers and each
input dimension's standard deviation as its lengthscale, and
`independent_rows`, the numerical rank of a feature matrix: when it keeps k
of the candidate inputs' feature rows, those k inputs witness that distinct
weights give distinct functions.

`_as_rows` is the package's one reading of outside rows (1-D is one column);
`RbfFeatureMap`, `blr.Dataset` and `variational.MeasurementSet` keep
`_owned_rows`, a read-only copy, so caches keyed on them stay valid.
`_strict_lower` is the one cached strict-lower-triangle mask: `variational`
packs the full family's factor with it and `ssge` takes its kernel's pairs.

The featurizer's centers are distinct input rows drawn uniformly, the
landmarks of Williams & Seeger (NeurIPS 2001, the Nystrom method).  The
benchmark scores approximations against the exact posterior of the features
it is given, so no claim rests on how the centers or the lengthscales are
chosen; k-means fits the data better, at about three times the set-up cost.
The lengthscales are the columns' standard deviations: one pass over the
inputs, the same scale as the median pairwise gap on uniform inputs (0.289
against 0.293 on [0, 1]), and, unlike a median over a subsample of pairs,
independent of the rng.  The distinct rows come from one sort of 1-D keys,
each row's bytes with -0.0 read as 0.0, so the draw sees them in byte order;
a row-wise `np.unique(axis=0)` took twice as long.  `evaluate` works in row
blocks that stay in cache, not in six passes over the whole (n, k) array,
with the same bits (20000 x 200 on a 2-vCPU Xeon: 19-27 -> 17-19 ms).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as _scipy_qr

from .errors import DimensionMismatchError, NonFiniteValueError, require_count

RANK_RTOL = 1e-8  # singular values below RANK_RTOL * sigma_max count as zero
# Rows per block of `evaluate`: 512 x 200 features is 800 KB, inside the
# 2 MB per-core L2 cache of the Xeon it was timed on.  Blocks of 128 to 4096
# rows gave the tabular benchmark's 20000 x 200 features bit for bit as one
# buffer does, and 512 to 1024 were the fastest.
_BLOCK_ROWS = 512


@dataclass(frozen=True, eq=False)
class RbfFeatureMap:
    """x -> exp(-0.5 * sum_d ((x_d - c_d) / ell_d)^2), one feature per center."""

    centers: np.ndarray  # (k, d)
    lengthscales: np.ndarray  # (d,), shared across centers

    def __post_init__(self):
        # Own read-only copies: models and cached statistics assume a fixed map.
        centers = _owned_rows(self.centers, "centers")
        lengthscales = np.array(self.lengthscales, dtype=float).reshape(-1)
        if lengthscales.shape[0] != centers.shape[1]:
            raise DimensionMismatchError(
                f"lengthscales must have length {centers.shape[1]}, got {lengthscales.shape[0]}"
            )
        if not np.all(np.isfinite(lengthscales)):
            raise NonFiniteValueError("lengthscales must be finite")
        if np.any(lengthscales <= 0.0):
            raise ValueError("lengthscales must be strictly positive")
        lengthscales.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "lengthscales", lengthscales)
        # What `evaluate` reads on every call, formed once: centers / ell.
        scaled_centers = centers / lengthscales
        scaled_centers.flags.writeable = False
        object.__setattr__(self, "_scaled_centers", scaled_centers)

    @property
    def num_features(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return evaluate(self, inputs)


def _as_rows(array: np.ndarray) -> np.ndarray:
    """An outside array as C-ordered (n, d) float rows; 1-D is one column.
    The package reads every row array it is given through this function, so
    no result depends on the caller's memory layout."""
    array = np.asarray(array, dtype=float, order="C")
    if array.ndim > 2:
        raise DimensionMismatchError(f"expected (n, d) rows, got shape {array.shape}")
    return array.reshape(-1, 1) if array.ndim < 2 else array


def _owned_rows(array: np.ndarray, what: str) -> np.ndarray:
    """A read-only copy of `_as_rows(array)` with at least one row and one
    column, all finite: the rows a value keeps, which no caller can change."""
    rows = _as_rows(np.array(array, dtype=float, order="C"))
    if rows.shape[0] < 1 or rows.shape[1] < 1:
        raise ValueError(f"{what} are empty: need at least one row and one column")
    if not np.all(np.isfinite(rows)):
        raise NonFiniteValueError(f"{what} contain NaN or Inf")
    rows.flags.writeable = False
    return rows


def evaluate(feature_map: RbfFeatureMap, inputs: np.ndarray) -> np.ndarray:
    """The RBF features at each input row, (n, k): [i, j] is feature j at row i.

    Computed in place in the output, in near-equal blocks of at most
    `_BLOCK_ROWS` rows.  No block has one row when there are more: numpy
    takes a one-row product to a matrix-vector kernel, whose rounding differs.
    """
    inputs = _as_rows(inputs)
    if inputs.shape[1] != feature_map.input_dim:
        raise DimensionMismatchError(
            f"inputs have dimension {inputs.shape[1]}, centers have {feature_map.input_dim}"
        )
    scaled_x = inputs / feature_map.lengthscales
    scaled_c = feature_map._scaled_centers
    n = scaled_x.shape[0]
    values = np.empty((n, scaled_c.shape[0]))
    num_blocks = -(-n // _BLOCK_ROWS)
    for i in range(num_blocks):
        rows = slice(i * n // num_blocks, (i + 1) * n // num_blocks)
        block = _squared_distances_into(scaled_x[rows], scaled_c, values[rows])
        block *= -0.5
        np.exp(block, out=block)
    return values


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, (n_a, n_b),
    with roundoff-level negatives clipped to zero.

    |a|^2 - 2 a.b + |b|^2, formed in place in the one (n_a, n_b) buffer.
    Scaling a before the product keeps numpy from taking a @ a.T to the
    symmetric BLAS kernel, whose rounding differs, when b is a.
    """
    return _squared_distances_into(a, b, np.empty((a.shape[0], b.shape[0])))


def _squared_distances_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`squared_distances(a, b)` written into `out`, which it returns."""
    np.matmul(-2.0 * a, b.T, out=out)
    out += np.sum(a**2, axis=1)[:, None]
    out += np.sum(b**2, axis=1)
    return np.maximum(out, 0.0, out=out)


@functools.lru_cache(maxsize=16)
def _strict_lower(k: int) -> np.ndarray:
    """Read-only (k, k) boolean mask of the strict lower triangle, built once
    per k.  A boolean mask selects entries in row-major order, which is the
    order of ``np.tril_indices(k, -1)``."""
    mask = np.tri(k, k, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


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


def fit_rbf_featurizer(
    inputs: np.ndarray, num_centers: int = 100, rng: np.random.Generator | None = None
) -> RbfFeatureMap:
    """RBF featurizer for tabular data: min(num_centers, distinct rows)
    centers drawn uniformly, without replacement, from the distinct input
    rows, and as each dimension's lengthscale the population standard
    deviation of its input column, 1.0 where that is 0 (a constant column,
    or one row).  The rng draws only the centers.  1-D inputs are one column.

    The distinct rows are taken in the order of their bytes, with -0.0
    folded into 0.0, so rows equal as floats count once; `rng.choice` draws
    the centers from them in that order.

    The deviation is taken of the column over its largest magnitude and
    scaled back, so no finite input overflows.
    """
    inputs = _owned_rows(inputs, "featurizer inputs")
    require_count("num_centers", num_centers, 1)
    rng = rng or np.random.default_rng(0)
    # Each C-ordered row as one key of its d * 8 bytes, -0.0 read as 0.0: finite
    # rows have equal bytes exactly when they are equal as floats.
    rows = inputs + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    distinct = np.unique(keys).view(float).reshape(-1, rows.shape[1])
    centers = rng.choice(distinct, min(num_centers, distinct.shape[0]), replace=False)
    magnitude = np.abs(inputs).max(axis=0)
    magnitude[magnitude == 0.0] = 1.0
    deviation = magnitude * np.std(inputs / magnitude, axis=0)
    return RbfFeatureMap(centers, np.where(deviation > 0.0, deviation, 1.0))
