"""Bayesian linear regression in feature space.

Model: y = w . phi(x) + noise, noise ~ N(0, sigma^2), w ~ Gaussian prior
(standard normal by default).  The posterior over weights is conjugate and
computed exactly with k x k Cholesky solves; the log marginal likelihood uses
the Woodbury identity so no n x n matrix is ever formed.  These closed forms
take any Gaussian prior.  The variational objectives take only the standard
prior N(0, I): `whiten` rewrites a model with prior N(mu, L L^T) as that
standard-prior problem, in the weights v of w = mu + L v.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import gaussian
from .errors import DimensionMismatchError, NonFiniteValueError, ParseError
from .gaussian import CovKind, GaussianDist, cholesky_psd, full_gaussian, standard_gaussian

# A feature map is anything callable on an (n, d) array returning (n, k).
FeatureMapLike = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Dataset:
    """Training or test rows.  The dataset owns read-only copies of the
    arrays it is given, so statistics computed from it stay valid."""

    inputs: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,)

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs.reshape(-1, 1)
        targets = np.array(self.targets, dtype=float).reshape(-1)
        if inputs.shape[0] != targets.shape[0]:
            raise DimensionMismatchError(
                f"{inputs.shape[0]} input rows for {targets.shape[0]} targets"
            )
        if inputs.shape[0] < 1:
            raise ValueError("a dataset needs at least one row")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise NonFiniteValueError("dataset contains non-finite values")
        inputs.flags.writeable = targets.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def size(self) -> int:
        return self.targets.shape[0]


def load_dataset(path: str | Path) -> Dataset:
    """CSV with the target in the last column; '#' lines are comments."""
    from .features import _read_numeric_csv

    values = _read_numeric_csv(Path(path))
    if values.shape[1] < 2:
        raise ParseError(f"{path}: need at least one input column plus the target")
    return Dataset(values[:, :-1], values[:, -1])


@dataclass(frozen=True, eq=False)
class BlrModel:
    """Feature map + noise variance + Gaussian weight prior.

    The feature map must be a fixed function: the full-batch objectives on
    one model and one dataset share the likelihood statistics computed from
    its features.  A model compares and hashes by identity.
    """

    feature_map: FeatureMapLike
    noise_variance: float
    prior: GaussianDist | None = None
    num_features: int = 0

    def __post_init__(self):
        if self.noise_variance <= 0.0:
            raise ValueError("noise variance must be positive")
        k = self.num_features
        if k == 0:
            k = getattr(self.feature_map, "num_features", 0)
        prior = self.prior
        if prior is None:
            if k == 0:
                raise ValueError("cannot infer feature count; pass num_features or a prior")
            prior = standard_gaussian(k)
        elif k and prior.dim != k:
            raise DimensionMismatchError(
                f"prior dimension {prior.dim} != feature count {k}"
            )
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "num_features", prior.dim)

    def features(self, inputs: np.ndarray) -> np.ndarray:
        phi = np.asarray(self.feature_map(inputs), dtype=float)
        if phi.ndim == 1:
            phi = phi.reshape(-1, 1)
        if phi.shape[1] != self.num_features:
            raise DimensionMismatchError(
                f"feature map produced {phi.shape[1]} columns, expected {self.num_features}"
            )
        return phi

    def has_standard_prior(self) -> bool:
        if np.any(self.prior.mean != 0.0):
            return False
        if self.prior.kind is CovKind.DIAGONAL:
            return bool(np.all(self.prior.cov == 1.0))
        return bool(np.array_equal(self.prior.cov, np.eye(self.prior.dim)))


@dataclass(frozen=True)
class WhitenedFeatureMap:
    """x -> phi(x) L, the features of ``original`` in the weights v of
    w = mu + L v, where N(mu, L L^T) is the original prior."""

    original: BlrModel
    factor: np.ndarray  # (k, k) lower Cholesky factor L of the original prior covariance

    @property
    def num_features(self) -> int:
        return self.factor.shape[1]

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.original.features(inputs) @ self.factor


def whiten(model: BlrModel, *datasets: Dataset) -> tuple:
    """The same problem under the standard prior: ``(model, *datasets)``.

    With prior N(mu, L L^T) the weights are w = mu + L v, v ~ N(0, I).  The
    returned model has features Phi L and the prior N(0, I); each returned
    dataset has targets y - Phi mu.  The likelihood, the evidence, the
    predictive and both weight- and function-space KLs are unchanged by the
    map.  A model that already has the standard prior is returned as is.
    """
    if model.has_standard_prior():
        return (model, *datasets)
    factor = cholesky_psd(model.prior.cov_matrix(), what="prior covariance").matrix
    whitened = BlrModel(WhitenedFeatureMap(model, factor), model.noise_variance)
    shifted = (
        Dataset(data.inputs, data.targets - model.features(data.inputs) @ model.prior.mean)
        for data in datasets
    )
    return (whitened, *shifted)


def exact_posterior(model: BlrModel, data: Dataset) -> GaussianDist:
    """Conjugate posterior over weights, full covariance kind."""
    phi = model.features(data.inputs)
    prior_chol = cholesky_psd(model.prior.cov_matrix(), what="prior covariance")
    prior_precision = cho_solve((prior_chol.matrix, True), np.eye(model.num_features))
    precision = prior_precision + phi.T @ phi / model.noise_variance
    post_chol = cholesky_psd(precision, what="posterior precision")
    cov = cho_solve((post_chol.matrix, True), np.eye(model.num_features))
    rhs = prior_precision @ model.prior.mean + phi.T @ data.targets / model.noise_variance
    mean = cho_solve((post_chol.matrix, True), rhs)
    return full_gaussian(mean, 0.5 * (cov + cov.T))


def predictive(
    model: BlrModel, weights_dist: GaussianDist, test_inputs: np.ndarray
) -> tuple[GaussianDist, GaussianDist]:
    """Joint predictive over outputs at the test inputs.

    Returns (noiseless, noisy): the pushforward of the weight distribution
    through the test feature matrix, and the same plus sigma^2 I.
    """
    phi = model.features(np.asarray(test_inputs, dtype=float))
    noiseless = gaussian.pushforward_linear(weights_dist, phi)
    noisy = full_gaussian(
        noiseless.mean, noiseless.cov + model.noise_variance * np.eye(phi.shape[0])
    )
    return noiseless, noisy


def predictive_marginals(
    model: BlrModel, weights_dist: GaussianDist, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point predictive means and noiseless variances, O(n k^2)."""
    phi = model.features(np.asarray(inputs, dtype=float))
    means = phi @ weights_dist.mean
    if weights_dist.kind is CovKind.DIAGONAL:
        variances = np.einsum("ij,j,ij->i", phi, weights_dist.cov, phi)
    else:
        variances = np.einsum("ij,jk,ik->i", phi, weights_dist.cov, phi)
    return means, np.maximum(variances, 0.0)


def nlpd(model: BlrModel, weights_dist: GaussianDist, test_data: Dataset) -> float:
    """Mean negative log predictive density per point (marginal, noisy)."""
    means, variances = predictive_marginals(model, weights_dist, test_data.inputs)
    total_var = variances + model.noise_variance
    log_probs = -0.5 * (
        np.log(2.0 * np.pi * total_var) + (test_data.targets - means) ** 2 / total_var
    )
    return float(-np.mean(log_probs))


def log_marginal_likelihood(model: BlrModel, data: Dataset) -> float:
    """log density of the targets under the prior predictive.

    Evaluated in weight space via the Woodbury identity, so the cost is
    O(n k^2 + k^3) rather than O(n^3).
    """
    phi = model.features(data.inputs)
    n, k = phi.shape
    sigma2 = model.noise_variance
    prior_chol = cholesky_psd(model.prior.cov_matrix(), what="prior covariance").matrix
    residual = data.targets - phi @ model.prior.mean
    # C = sigma^2 Sigma0^{-1} + Phi^T Phi
    prior_precision = cho_solve((prior_chol, True), np.eye(k))
    inner = sigma2 * prior_precision + phi.T @ phi
    inner_chol = cholesky_psd(inner, what="Woodbury inner matrix").matrix
    phi_t_r = phi.T @ residual
    solved = solve_triangular(inner_chol, phi_t_r, lower=True)
    quad = (residual @ residual - solved @ solved) / sigma2
    log_det = (
        (n - k) * np.log(sigma2)
        + 2.0 * float(np.sum(np.log(np.diag(prior_chol))))
        + 2.0 * float(np.sum(np.log(np.diag(inner_chol))))
    )
    return float(-0.5 * (n * np.log(2.0 * np.pi) + log_det + quad))
