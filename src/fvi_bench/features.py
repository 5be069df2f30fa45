"""Feature maps for the linear-in-features regression model.

Features are computed or looked up.  `RbfFeatureMap` computes radial basis
function features (unnormalized Gaussians, one per center, with a shared
per-dimension lengthscale); `evaluate` returns them as an (n, k) array.
`PrecomputedFeatureMap` is a stored (inputs, values) table of features made
elsewhere; `load_features` and `save_features` read and write it as CSV.
The module also has a k-means + median-heuristic featurizer for tabular data
and a numerical injectivity certificate: inputs whose feature vectors are
linearly independent, certifying that distinct weights give distinct functions.

The featurizer's k-means++ seeding costs O(n k d) and draws the same random
numbers as scipy's `kmeans2(minit="++")`, which costs O(n k^2 d), so centers
and lengthscales are bit for bit scipy's; unlike scipy, it stops seeding once
every input row is a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.cluster.vq import kmeans2
from scipy.linalg import qr as _scipy_qr
from scipy.spatial.distance import cdist, pdist

from .errors import (
    DimensionMismatchError,
    NonFiniteValueError,
    ParseError,
    UnknownInputError,
)

RANK_RTOL = 1e-8  # singular values below RANK_RTOL * sigma_max count as zero
LENGTHSCALE_MAX_POINTS = 1000  # median heuristic subsample size


@dataclass(frozen=True)
class RbfFeatureMap:
    """x -> exp(-0.5 * sum_d ((x_d - c_d) / ell_d)^2), one feature per center."""

    centers: np.ndarray  # (k, d)
    lengthscales: np.ndarray  # (d,), shared across centers

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        lengthscales = np.asarray(self.lengthscales, dtype=float).reshape(-1)
        if centers.shape[0] < 1 or centers.shape[1] < 1:
            raise ValueError("need at least one center and one input dimension")
        if lengthscales.shape[0] != centers.shape[1]:
            raise DimensionMismatchError(
                f"lengthscales must have length {centers.shape[1]}, got {lengthscales.shape[0]}"
            )
        if np.any(lengthscales <= 0.0):
            raise ValueError("lengthscales must be strictly positive")
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


@dataclass(frozen=True)
class InjectivityCertificate:
    certified_rank: int
    witness_subset: np.ndarray | None  # indices into the candidate points, or None


def injectivity_certificate(
    feature_map: RbfFeatureMap, candidate_points: np.ndarray
) -> InjectivityCertificate:
    """Numerical rank of the candidate feature matrix, plus a witness.

    If the rank equals the number of features k, returns k candidate indices
    whose feature vectors are linearly independent (greedy pivoted QR
    selection), certifying the weight-to-function map injective.
    """
    feat = evaluate(feature_map, candidate_points)
    singular_values = np.linalg.svd(feat, compute_uv=False)
    cutoff = RANK_RTOL * (singular_values[0] if singular_values.size else 0.0)
    rank = int(np.sum(singular_values > cutoff))
    if rank < feature_map.num_features:
        return InjectivityCertificate(rank, None)
    # Columns of feat.T are candidate feature vectors; pivoted QR picks a
    # well-conditioned spanning subset greedily.
    _, _, pivots = _scipy_qr(feat.T, mode="economic", pivoting=True)
    witness = np.sort(pivots[: feature_map.num_features])
    return InjectivityCertificate(rank, witness)


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


@dataclass(frozen=True)
class PrecomputedFeatureMap:
    """Feature map backed by a stored (inputs, values) table.

    Evaluation looks rows up by exact match against the stored inputs, which
    is the contract for externally computed features: they are only defined
    at the inputs they were computed for.
    """

    inputs: np.ndarray  # (n, d)
    values: np.ndarray  # (n, k)

    def __post_init__(self):
        # Keys are float row bytes: cast, and fold -0.0 to +0.0 like each query.
        inputs = np.asarray(self.inputs, dtype=float) + 0.0
        values = np.asarray(self.values, dtype=float)
        if inputs.ndim != 2 or values.ndim != 2 or inputs.shape[0] != values.shape[0]:
            raise DimensionMismatchError(
                f"inputs {inputs.shape} and values {values.shape} must be 2-D, equal row counts"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "values", values)

    @property
    def num_features(self) -> int:
        return self.values.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @cached_property
    def _index(self) -> dict[bytes, int]:
        """Stored input row (as bytes) -> its position, built on first lookup."""
        return {row.tobytes(): i for i, row in enumerate(np.ascontiguousarray(self.inputs))}

    def __call__(self, query: np.ndarray) -> np.ndarray:
        query = np.atleast_2d(np.asarray(query, dtype=float)) + 0.0
        if query.shape[1] != self.input_dim:
            raise DimensionMismatchError(
                f"query dimension {query.shape[1]} != stored {self.input_dim}"
            )
        index = self._index
        rows = np.empty(query.shape[0], dtype=int)
        for i, row in enumerate(np.ascontiguousarray(query)):
            key = row.tobytes()
            if key not in index:
                raise UnknownInputError(
                    f"input row {i} was not among the precomputed feature inputs"
                )
            rows[i] = index[key]
        return self.values[rows]


def _read_numeric_csv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(
                    f"{path}: expected {width} columns, got {len(cells)}", row=line_no
                )
            parsed = []
            for col_no, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: cell {cell!r} is not numeric", row=line_no, column=col_no
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteValueError(
            f"{path}: non-finite value at row {bad[0] + 1}, column {bad[1] + 1}"
        )
    return values


def save_features(
    table: PrecomputedFeatureMap, path: str | Path, inputs_path: str | Path | None = None
):
    """Write feature values (and inputs alongside) in the plain CSV schema."""
    path = Path(path)
    if inputs_path is None:
        inputs_path = path.with_suffix(".inputs.csv")
    np.savetxt(path, table.values, delimiter=",", fmt="%.17g")
    np.savetxt(inputs_path, table.inputs, delimiter=",", fmt="%.17g")


def load_features(
    path: str | Path, inputs_path: str | Path | None = None
) -> PrecomputedFeatureMap:
    """Load a feature table from CSV.

    The inputs CSV defaults to ``<path>.inputs.csv`` alongside; if absent,
    rows are indexed by position (inputs = row indices).
    """
    path = Path(path)
    values = _read_numeric_csv(path)
    if inputs_path is None:
        inputs_path = path.with_suffix(".inputs.csv")
    inputs_path = Path(inputs_path)
    if inputs_path.exists():
        inputs = _read_numeric_csv(inputs_path)
        if inputs.shape[0] != values.shape[0]:
            raise ParseError(
                f"{inputs_path}: {inputs.shape[0]} input rows for {values.shape[0]} feature rows"
            )
    else:
        inputs = np.arange(values.shape[0], dtype=float).reshape(-1, 1)
    return PrecomputedFeatureMap(inputs, values)


def median_heuristic_lengthscales(
    inputs: np.ndarray, *, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Per-dimension median absolute pairwise difference; 1.0 for constant dims.

    Above ``LENGTHSCALE_MAX_POINTS`` rows, the pairs of a random subsample.
    The median is the one `np.median` gives, taken from a single partition
    of each dimension's pair differences.
    """
    inputs = _as_rows(inputs)
    if not np.all(np.isfinite(inputs)):
        raise NonFiniteValueError("median heuristic inputs contain NaN or Inf")
    n = inputs.shape[0]
    if n > LENGTHSCALE_MAX_POINTS:
        rng = rng or np.random.default_rng(0)
        inputs = inputs[rng.choice(n, size=LENGTHSCALE_MAX_POINTS, replace=False)]
    scales = np.ones(inputs.shape[1])
    for dim in range(inputs.shape[1]):
        diffs = pdist(inputs[:, dim : dim + 1], "cityblock")
        if diffs.size == 0:
            continue
        half = diffs.size // 2
        diffs.partition(half)
        median = diffs[half] if diffs.size % 2 else (diffs[:half].max() + diffs[half]) / 2
        if median > 0.0:
            scales[dim] = median
    return scales


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


def fit_rbf_featurizer(
    inputs: np.ndarray, num_centers: int = 100, rng: np.random.Generator | None = None
) -> RbfFeatureMap:
    """RBF featurizer for tabular data: k-means centers on the inputs plus
    per-dimension median-heuristic lengthscales.  1-D inputs are one column."""
    inputs = _as_rows(inputs)
    if not np.all(np.isfinite(inputs)):
        raise NonFiniteValueError("featurizer inputs contain NaN or Inf")
    if num_centers < 1:
        raise ValueError(f"num_centers must be at least 1, got {num_centers}")
    rng = rng or np.random.default_rng(0)
    seeds = _kmeans_pp_seeds(inputs, min(num_centers, inputs.shape[0]), rng)
    centers, _ = kmeans2(inputs, seeds, minit="matrix")
    return RbfFeatureMap(centers, median_heuristic_lengthscales(inputs, rng=rng))
