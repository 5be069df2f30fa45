"""Feature maps for the linear-in-features regression model.

`RbfFeatureMap` computes radial basis function features (unnormalized
Gaussians, one per center, with a shared per-dimension lengthscale);
`evaluate` returns them as an (n, k) array.  The module also has a
featurizer for tabular data, distinct input rows as centers plus the median
heuristic, whose median forms no pair differences, and `independent_rows`,
the numerical rank of a feature matrix: when it keeps k of the candidate
inputs' feature rows, those k inputs witness that distinct weights give
distinct functions.

`_as_rows` is the package's one reading of outside rows (1-D is one column);
`RbfFeatureMap`, `blr.Dataset` and `variational.MeasurementSet` keep
`_owned_rows`, a read-only copy, so caches keyed on them stay valid.
`_strict_lower` is the one cached strict-lower-triangle mask: `variational`
packs the full family's factor with it and `ssge` takes its kernel's pairs.

The featurizer's centers are distinct input rows drawn uniformly, the
landmarks of Williams & Seeger (NeurIPS 2001, the Nystrom method).  The
benchmark scores approximations against the exact posterior of the features
it is given, so no claim rests on how the centers are chosen; k-means fits
the data better, at about three times the set-up cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as _scipy_qr

from .errors import DimensionMismatchError, NonFiniteValueError, require_count

RANK_RTOL = 1e-8  # singular values below RANK_RTOL * sigma_max count as zero
LENGTHSCALE_MAX_POINTS = 1000  # median heuristic subsample size
_BRACKET_SAMPLE = 100  # about this many sorted values bracket the median gap
_BRACKET_MARGIN = 0.02  # the bracket spans the sample's gap quantiles 0.5 -/+ this


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

    @property
    def num_features(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return evaluate(self, inputs)


def _as_rows(array: np.ndarray) -> np.ndarray:
    """An outside array as (n, d) float rows; 1-D is one column.  The package
    reads every row array it is given through this function."""
    array = np.asarray(array, dtype=float)
    if array.ndim > 2:
        raise DimensionMismatchError(f"expected (n, d) rows, got shape {array.shape}")
    return array.reshape(-1, 1) if array.ndim < 2 else array


def _owned_rows(array: np.ndarray, what: str) -> np.ndarray:
    """A read-only copy of `_as_rows(array)` with at least one row and one
    column, all finite: the rows a value keeps, which no caller can change."""
    rows = _as_rows(np.array(array, dtype=float))
    if rows.shape[0] < 1 or rows.shape[1] < 1:
        raise ValueError(f"{what} are empty: need at least one row and one column")
    if not np.all(np.isfinite(rows)):
        raise NonFiniteValueError(f"{what} contain NaN or Inf")
    rows.flags.writeable = False
    return rows


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


def median_heuristic_lengthscales(
    inputs: np.ndarray, *, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Per-dimension median absolute pairwise difference; 1.0 for constant dims.

    Above ``LENGTHSCALE_MAX_POINTS`` rows, the pairs of a random subsample.
    The median is `np.median`'s of the differences, bit for bit, selected
    from each sorted column by `_median_pair_gap`.
    """
    inputs = _owned_rows(inputs, "median heuristic inputs")
    n = inputs.shape[0]
    if n > LENGTHSCALE_MAX_POINTS:
        rng = rng or np.random.default_rng(0)
        inputs = inputs[rng.choice(n, size=LENGTHSCALE_MAX_POINTS, replace=False)]
    medians = np.array([_median_pair_gap(col) if col.size > 1 else 0.0 for col in inputs.T])
    return np.where(medians > 0.0, medians, 1.0)


@np.errstate(over="ignore")
def _median_pair_gap(column: np.ndarray) -> float:
    """`np.median` of |x_a - x_b|, a < b, over two or more finite values.

    The sorted column's gaps x_j - x_i, j > i, are |x_a - x_b| bit for bit
    (``+ 0.0`` maps -0.0 to 0.0) and do not decrease in j.  A strided
    sample's gaps bracket the median; `searchsorted` of x + lo and x + hi
    cuts out a band of each row, and only the band is formed.  The keys
    round, so its middle gaps count only if no gap left of the band is
    larger and none right of it smaller; else the band is the whole triangle.
    A gap that overflows is +inf, as in `pdist`, and so is the median then.
    """
    x = np.sort(column) + 0.0
    count = x.size * (x.size - 1) // 2
    ranks = np.array([(count - 1) // 2, count // 2])  # np.median's middle one or two
    sample = x[:: -(-x.size // _BRACKET_SAMPLE)]
    sample_gaps = np.sort((sample - sample[:, None])[np.triu_indices(sample.size, 1)])
    mid, margin = sample_gaps.size // 2, int(_BRACKET_MARGIN * sample_gaps.size) + 1
    bracket = sample_gaps[[max(mid - margin, 0), min(mid + margin, sample_gaps.size - 1)]]
    rows, padded = np.arange(x.size), np.append(x, np.inf)
    for lo, hi in (bracket, (-np.inf, np.inf)):
        start = np.maximum(np.searchsorted(x, x + lo, "left"), rows + 1)
        stop = np.maximum(np.searchsorted(x, x + hi, "right"), start)
        counts = stop - start
        within = ranks - int(np.sum(start - rows - 1))  # ranks inside the band
        if within[0] < 0 or within[1] >= counts.sum():
            continue
        first_gaps = (padded[start] - x)[counts > 0]
        if first_gaps.min() == (x[stop - 1] - x)[counts > 0].max():
            low = high = first_gaps[0]  # the band holds one value, often a tie
        else:
            offsets = np.repeat(start - (np.cumsum(counts) - counts), counts)
            offsets += np.arange(offsets.size)  # the band's j, row by row
            band = x[offsets] - np.repeat(x, counts)
            band.partition(within[1])  # numpy's partition at two ranks is 4x slower
            low, high = band[: within[0] + 1].max(), band[within[1]]
        if (x[start - 1] - x).max() <= low and high <= (padded[stop] - x).min():
            return float(low) if count % 2 else float((low + high) / 2)
    raise AssertionError("the whole triangle always holds the median")


def fit_rbf_featurizer(
    inputs: np.ndarray, num_centers: int = 100, rng: np.random.Generator | None = None
) -> RbfFeatureMap:
    """RBF featurizer for tabular data: min(num_centers, distinct rows)
    centers drawn uniformly, without replacement, from the distinct input
    rows, then per-dimension median-heuristic lengthscales on the same rng.
    1-D inputs are one column."""
    inputs = _owned_rows(inputs, "featurizer inputs")
    require_count("num_centers", num_centers, 1)
    rng = rng or np.random.default_rng(0)
    distinct = np.unique(inputs, axis=0)
    centers = rng.choice(distinct, min(num_centers, distinct.shape[0]), replace=False)
    return RbfFeatureMap(centers, median_heuristic_lengthscales(inputs, rng=rng))
