"""Bayesian linear regression in feature space.

Model: y = w . phi(x) + noise, noise ~ N(0, sigma^2), w ~ N(mu, Sigma), the
prior a `GaussianDist` (N(0, I) by default).  A general Gaussian prior is
handled in one place, `whiten`, which rewrites a model with prior
N(mu, L L^T) as the standard-prior problem in the weights v of w = mu + L v.
The closed forms solve only that problem, and the variational objectives
take only the standard prior N(0, I), which a model detects once, at
construction.

One place forms a dataset's likelihood statistics, `_full_batch_stats`:
Phi^T Phi and the residual about the exact N(0, I) posterior mean, from the
one Phi that `_per_pair` keeps for a (model, dataset) pair while the model
lives, and shares with the objectives and closed forms on that pair.  From
them the posterior and the log evidence cost O(k^3) each.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve

from .errors import DimensionMismatchError, NonFiniteValueError, require_count
from .gaussian import GaussianDist, cholesky_psd, standard_gaussian

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
    _standard_prior: bool = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.noise_variance < np.inf:  # NaN fails too
            raise ValueError("noise variance must be finite and positive")
        require_count("num_features", self.num_features, 0)
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
        # The prior's arrays are read-only, so this answer cannot go stale.
        standard = not prior.mean.any() and np.array_equal(prior.cov, np.eye(prior.dim))
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "num_features", prior.dim)
        object.__setattr__(self, "_standard_prior", standard)

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
        """Whether the prior is exactly N(0, I), decided at construction."""
        return self._standard_prior


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
    factor = cholesky_psd(model.prior.cov, what="prior covariance").matrix
    whitened = BlrModel(WhitenedFeatureMap(model, factor), model.noise_variance)
    shifted = (
        Dataset(data.inputs, data.targets - model.features(data.inputs) @ model.prior.mean)
        for data in datasets
    )
    return (whitened, *shifted)


@dataclass(frozen=True)
class _LikelihoodStats:
    """Sufficient statistics of the Gaussian likelihood of rows (Phi, y), taken
    about an anchor mean a.  With r = y - Phi a and d = m - a, any mean m has

        ||y - Phi m||^2 = r^T r - 2 d^T Phi^T r + d^T Phi^T Phi d
        Phi^T (y - Phi m) = Phi^T r - Phi^T Phi d,

    and no evaluation touches the rows again.  An anchor near the fitted
    mean keeps the expansion from cancelling when ||y|| >> ||y - Phi m||.
    """

    gram: np.ndarray  # Phi^T Phi, (k, k)
    cross: np.ndarray  # Phi^T r, (k,)
    residual_sq: float  # r^T r
    size: int  # number of rows
    anchor: np.ndarray  # a, (k,)


def _likelihood_stats(
    phi: np.ndarray, targets: np.ndarray, anchor: np.ndarray, gram: np.ndarray | None = None
) -> _LikelihoodStats:
    residual = targets - phi @ anchor
    return _LikelihoodStats(
        phi.T @ phi if gram is None else gram,
        phi.T @ residual,
        float(residual @ residual),
        phi.shape[0],
        anchor,
    )


# Model -> (weak reference to the dataset, {builder: its shared result}).
# An entry lives as long as its model; it serves only the same dataset object.
_PAIR_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _per_pair(build, model: BlrModel, data: Dataset):
    """``build(model, data)``, formed once per (model, data) pair and shared."""
    entry = _PAIR_CACHE.get(model)
    if entry is None or entry[0]() is not data:
        entry = _PAIR_CACHE[model] = (weakref.ref(data), {})
    if build not in entry[1]:
        entry[1][build] = build(model, data)
    return entry[1][build]


def _full_batch_stats(model: BlrModel, data: Dataset) -> _LikelihoodStats:
    """Statistics of all rows, anchored at the exact posterior mean under the
    N(0, I) prior, whatever the model's: `exact_posterior` returns this anchor
    as its mean, and any anchor serves the expected log-likelihood."""
    phi = _per_pair(_feature_matrix, model, data)
    gram = phi.T @ phi
    posterior_mean = np.linalg.solve(
        gram + model.noise_variance * np.eye(model.num_features), phi.T @ data.targets
    )
    stats = _likelihood_stats(phi, data.targets, posterior_mean, gram)
    for array in (stats.gram, stats.cross, stats.anchor):
        array.flags.writeable = False
    return stats


def _feature_matrix(model: BlrModel, data: Dataset) -> np.ndarray:
    """Phi of all rows, (n, k), as a read-only view: the map's own array stays writable."""
    phi = model.features(data.inputs).view()
    phi.flags.writeable = False
    return phi


def exact_posterior(model: BlrModel, data: Dataset) -> GaussianDist:
    """Conjugate posterior over weights.

    The whitened weights v (see `whiten`) have as mean m_v the anchor of the
    pair's statistics and as covariance sigma^2 (sigma^2 I + Phi^T Phi)^{-1},
    from one Cholesky; a general prior maps back through w = mu + L v, to
    mean mu + L m_v and covariance L Sigma_v L^T, symmetrized explicitly.
    """
    white, white_data = whiten(model, data)
    stats = _per_pair(_full_batch_stats, white, white_data)
    sigma2, eye = model.noise_variance, np.eye(white.num_features)
    inner = cholesky_psd(sigma2 * eye + stats.gram, what="scaled posterior precision").matrix
    mean, cov = stats.anchor, sigma2 * cho_solve((inner, True), eye)
    if white is not model:
        factor = white.feature_map.factor
        mean = model.prior.mean + factor @ mean
        cov = factor @ cov @ factor.T
    return GaussianDist(mean, 0.5 * (cov + cov.T))


def predictive_marginals(
    model: BlrModel, weights_dist: GaussianDist, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point predictive means and noiseless variances, O(n k^2)."""
    phi = model.features(np.asarray(inputs, dtype=float))
    means = phi @ weights_dist.mean
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

    Read off the whitened problem's statistics, anchored at its posterior
    mean m, in O(k^3) where the dense form costs O(n^3):

        y^T (sigma^2 I + Phi Phi^T)^{-1} y = ||y - Phi m||^2 / sigma^2 + ||m||^2,
        det(sigma^2 I_n + Phi Phi^T) = sigma^(2 (n - k)) det(sigma^2 I_k + Phi^T Phi).
    """
    white, white_data = whiten(model, data)
    stats = _per_pair(_full_batch_stats, white, white_data)
    n, k, sigma2 = stats.size, white.num_features, model.noise_variance
    inner = cholesky_psd(sigma2 * np.eye(k) + stats.gram, what="scaled posterior precision").matrix
    quad = stats.residual_sq / sigma2 + float(stats.anchor @ stats.anchor)
    log_det = (n - k) * np.log(sigma2) + 2.0 * float(np.sum(np.log(np.diag(inner))))
    return float(-0.5 * (n * np.log(2.0 * np.pi) + log_det + quad))
