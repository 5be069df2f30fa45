"""Bayesian linear regression in feature space.

Model: y = w . phi(x) + noise, noise ~ N(0, sigma^2), w ~ N(0, I).  The
package has this one prior.  Another Gaussian prior N(mu, L L^T) is the same
problem in the weights v = L^{-1} (w - mu) ~ N(0, I): a caller gives the
model the features Phi L and the data the targets y - Phi mu, and maps a
Gaussian N(m, S) over v back to N(mu + L m, L S L^T) over w.  The
likelihood, the evidence, the predictive and both weight- and function-space
KLs are unchanged by that map.

One place forms a dataset's likelihood statistics, `_full_batch_stats`:
Phi^T Phi, the Cholesky factor of sigma^2 I + Phi^T Phi and the residual
about the exact posterior mean, from the one Phi that `_per_pair` keeps for
a (model, dataset) pair while both live.  The full-batch objectives and the
closed forms on that pair share them; the posterior and the log evidence
factorize nothing.  A minibatch forms no statistics: its ELL reads the
batch's rows of that Phi.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve

from .errors import DimensionMismatchError, NonFiniteValueError, require_count
from .features import _as_rows, _owned_rows
from .gaussian import GaussianDist, cholesky_psd

# A feature map is anything callable on an (n, d) array returning (n, k).
FeatureMapLike = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Training or test rows.  The dataset owns read-only copies of the
    arrays it is given, so statistics computed from it stay valid; 1-D
    inputs are one column.  A dataset compares and hashes by identity."""

    inputs: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,)

    def __post_init__(self):
        inputs = _owned_rows(self.inputs, "dataset inputs")
        targets = np.array(self.targets, dtype=float).reshape(-1)
        if inputs.shape[0] != targets.shape[0]:
            raise DimensionMismatchError(
                f"{inputs.shape[0]} input rows for {targets.shape[0]} targets"
            )
        if not np.all(np.isfinite(targets)):
            raise NonFiniteValueError("dataset targets contain NaN or Inf")
        targets.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def size(self) -> int:
        return self.targets.shape[0]


@dataclass(frozen=True, eq=False)
class BlrModel:
    """Feature map + noise variance; the weight prior is N(0, I).

    The feature count is ``num_features``, or else the map's own
    ``num_features``.  The feature map must be a fixed function: the
    full-batch objectives on one model and one dataset share the likelihood
    statistics computed from its features.  A model compares and hashes by
    identity.
    """

    feature_map: FeatureMapLike
    noise_variance: float
    num_features: int = 0

    def __post_init__(self):
        if isinstance(self.noise_variance, bool) or not 0.0 < self.noise_variance < np.inf:
            raise ValueError("noise variance must be finite and positive")  # NaN fails too
        require_count("num_features", self.num_features, 0)
        k = self.num_features or getattr(self.feature_map, "num_features", 0)
        if k == 0:
            raise ValueError("cannot infer feature count; pass num_features")
        object.__setattr__(self, "num_features", int(k))

    def features(self, inputs: np.ndarray) -> np.ndarray:
        phi = _as_rows(self.feature_map(inputs))
        if phi.shape[1] != self.num_features:
            raise DimensionMismatchError(
                f"feature map produced {phi.shape[1]} columns, expected {self.num_features}"
            )
        if not np.isfinite(phi).all():
            raise NonFiniteValueError("feature map produced NaN or Inf")
        return phi


@dataclass(frozen=True, eq=False)
class _LikelihoodStats:
    """Sufficient statistics of the Gaussian likelihood of a dataset's rows
    (Phi, y), taken about an anchor mean a.  With r = y - Phi a and d = m - a,
    any mean m has

        ||y - Phi m||^2 = r^T r - 2 d^T Phi^T r + d^T Phi^T Phi d
        Phi^T (y - Phi m) = Phi^T r - Phi^T Phi d,

    and no evaluation touches the rows again.  The anchor is the exact
    posterior mean, which keeps the expansion from cancelling when
    ||y|| >> ||y - Phi m||; the factor is the one that solves for it.
    """

    gram: np.ndarray  # Phi^T Phi, (k, k)
    cross: np.ndarray  # Phi^T r, (k,)
    residual_sq: float  # r^T r
    size: int  # number of rows
    anchor: np.ndarray  # a, (k,)
    factor: np.ndarray  # L with L L^T = sigma^2 I + Phi^T Phi, (k, k)


# Model -> dataset or measurement set -> {builder: its shared result}, keyed
# weakly and by identity: an entry lives while both of its keys do.  A result
# that referred to either would keep it alive, so results refer to neither.
_PAIR_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _per_pair(build, model: BlrModel, key):
    """``build(model, key)`` for a dataset or measurement set ``key``, once per pair, shared.
    A hit allocates nothing: ``setdefault`` runs only for a missing or empty entry."""
    by_key = _PAIR_CACHE.get(model) or _PAIR_CACHE.setdefault(model, weakref.WeakKeyDictionary())
    results = by_key.get(key) or by_key.setdefault(key, {})
    if build not in results:
        results[build] = build(model, key)
    return results[build]


def _full_batch_stats(model: BlrModel, data: Dataset) -> _LikelihoodStats:
    """Statistics of all rows with the pair's one factorization, the Cholesky factor of
    sigma^2 I + Phi^T Phi (`SingularReferenceError` unless positive definite), anchored
    at the exact posterior mean it solves for; any anchor serves the ELL."""
    phi = _per_pair(_feature_matrix, model, data)
    gram = phi.T @ phi
    eye = np.eye(model.num_features)
    factor = cholesky_psd(model.noise_variance * eye + gram, what="sigma^2 I + Phi^T Phi").matrix
    anchor = cho_solve((factor, True), phi.T @ data.targets)
    residual = data.targets - phi @ anchor
    stats = _LikelihoodStats(
        gram, phi.T @ residual, float(residual @ residual), phi.shape[0], anchor, factor
    )
    for array in (stats.gram, stats.cross, stats.anchor, stats.factor):
        array.flags.writeable = False
    return stats


def _feature_matrix(model: BlrModel, data: Dataset) -> np.ndarray:
    """Phi of all rows, (n, k), as a read-only view: the map's own array stays writable."""
    phi = model.features(data.inputs).view()
    phi.flags.writeable = False
    return phi


def exact_posterior(model: BlrModel, data: Dataset) -> GaussianDist:
    """Conjugate posterior over weights: the pair's anchor as mean, and as covariance
    sigma^2 (sigma^2 I + Phi^T Phi)^{-1} from their Cholesky factor, symmetrized explicitly."""
    stats = _per_pair(_full_batch_stats, model, data)
    cov = model.noise_variance * cho_solve((stats.factor, True), np.eye(model.num_features))
    return GaussianDist(stats.anchor, 0.5 * (cov + cov.T))


def predictive_marginals(
    model: BlrModel, weights_dist: GaussianDist, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point predictive means and noiseless variances, O(n k^2): the
    variances are the row sums of (Phi Sigma) * Phi, one BLAS product."""
    if weights_dist.dim != model.num_features:
        raise DimensionMismatchError(
            f"weight distribution has dimension {weights_dist.dim}, "
            f"model has {model.num_features} features"
        )
    phi = model.features(_as_rows(inputs))
    means = phi @ weights_dist.mean
    variances = np.einsum("ij,ij->i", phi @ weights_dist.cov, phi)
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

    Read off the pair's statistics, anchored at the posterior mean m, and their
    Cholesky factor of sigma^2 I_k + Phi^T Phi, in O(k) where the dense form costs O(n^3):

        y^T (sigma^2 I + Phi Phi^T)^{-1} y = ||y - Phi m||^2 / sigma^2 + ||m||^2,
        det(sigma^2 I_n + Phi Phi^T) = sigma^(2 (n - k)) det(sigma^2 I_k + Phi^T Phi).
    """
    stats = _per_pair(_full_batch_stats, model, data)
    n, k, sigma2 = stats.size, model.num_features, model.noise_variance
    quad = stats.residual_sq / sigma2 + float(stats.anchor @ stats.anchor)
    log_det = (n - k) * np.log(sigma2) + 2.0 * float(np.sum(np.log(np.diag(stats.factor))))
    return float(-0.5 * (n * np.log(2.0 * np.pi) + log_det + quad))
