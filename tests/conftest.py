import ast
import contextlib
from pathlib import Path

import numpy as np
import pytest

from fvi_bench import features, gaussian
from fvi_bench.blr import BlrModel, Dataset
from fvi_bench.features import RANK_RTOL, RbfFeatureMap, fit_rbf_featurizer, independent_rows
from fvi_bench.variational import (
    MeasurementPolicy,
    measurement_set_from_points,
    sample_measurement_set,
)


def random_spd_matrix(rng: np.random.Generator, n: int, *, min_eig: float = 0.1) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues >= min_eig."""
    a = rng.standard_normal((n, n))
    return a @ a.T + min_eig * np.eye(n)


def random_gaussian(rng: np.random.Generator, n: int) -> gaussian.GaussianDist:
    return gaussian.GaussianDist(rng.standard_normal(n), random_spd_matrix(rng, n))


def random_uncorrelated_gaussian(rng: np.random.Generator, n: int) -> gaussian.GaussianDist:
    """A random Gaussian whose dense covariance is diagonal."""
    return gaussian.GaussianDist(rng.standard_normal(n), np.diag(rng.uniform(0.2, 3.0, n)))


def standard_gaussian(n: int) -> gaussian.GaussianDist:
    """N(0, I) in n dimensions, the prior of every `BlrModel`."""
    return gaussian.GaussianDist(np.zeros(n), np.eye(n))


def whiten(model: BlrModel, prior: gaussian.GaussianDist, *datasets: Dataset) -> tuple:
    """The problem of ``model`` under the prior N(mu, L L^T), rewritten by hand
    as the package's N(0, I) problem in v = L^{-1} (w - mu): ``(model with
    features Phi L, L, *datasets with targets y - Phi mu)``.  A Gaussian
    N(m, S) over v is N(mu + L m, L S L^T) over w."""
    factor = np.linalg.cholesky(prior.cov)
    white = BlrModel(lambda x: model.features(x) @ factor, model.noise_variance, prior.dim)
    shifted = (
        Dataset(data.inputs, data.targets - model.features(data.inputs) @ prior.mean)
        for data in datasets
    )
    return (white, factor, *shifted)


@contextlib.contextmanager
def counted_rows():
    """The list of the row counts of the RBF feature evaluations made in the block."""
    rows, original = [], features.evaluate

    def counted(feature_map, inputs):
        rows.append(np.shape(inputs)[0])
        return original(feature_map, inputs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "evaluate", counted)
        yield rows


@contextlib.contextmanager
def counted_calls(*targets):
    """The list of the names called in the block, in order, of the
    ``(owner, name)`` targets: functions of a module or methods of a class."""
    calls = []

    def counting(name, func):
        def counted(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        for owner, name in targets:
            patch.setattr(owner, name, counting(name, getattr(owner, name)))
        yield calls


def callers_of(name: str) -> set[str]:
    """'module.qualname' of each function in `src/` that calls ``name``,
    whether as a bare name or as an attribute (``np.name``)."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and name in (
                getattr(child.func, "attr", None),
                getattr(child.func, "id", None),
            ):
                callers.add(scope)
            visit(child, inner)

    package = Path(__file__).resolve().parents[1] / "src" / "fvi_bench"
    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return callers


def max_gradient_error(value_and_grad, point: np.ndarray, step: float = 1e-5) -> float:
    """Largest error of the analytic gradient of ``value_and_grad`` at
    ``point`` against central differences of its value, each coordinate
    relative to max(|analytic|, |numeric|, 1) so that near-zero coordinates
    compare absolutely.  The callable must be deterministic."""
    analytic = np.asarray(value_and_grad(point)[1], dtype=float)
    numeric = np.empty_like(analytic)
    for i, bump in enumerate(step * np.eye(point.size)):
        plus, minus = value_and_grad(point + bump)[0], value_and_grad(point - bump)[0]
        numeric[i] = (plus - minus) / (2 * step)
    denominator = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(numeric - analytic) / denominator))


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
    policy = MeasurementPolicy(m, 0.5, np.column_stack([inputs.min(0), inputs.max(0)]))
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
