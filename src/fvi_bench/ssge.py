"""Spectral score estimation for implicit distributions.

Given samples of a distribution, estimates the score (gradient of the log
density) by expanding it in the Nystrom eigenfunctions of an RBF kernel Gram
matrix over the samples (Shi, Sun & Zhu, ICML 2018).  Used here to estimate
the gradient of the marginal KL term when the variational marginal is
treated as implicit (the functional VI of Sun et al., ICLR 2019): the
approximate-posterior score comes from the estimator, while the prior
marginal is Gaussian and its score comes in closed form from the prepared
`MarginalKl`, which takes the standard prior N(0, I) (see `blr.whiten`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DegenerateKernelError, DimensionMismatchError
from .features import squared_distances
# Unused here; kept because perfbench/tracing.py wraps these two names on this module.
from .features import independent_rows  # noqa: F401
from .gaussian import cholesky_psd  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover
    from .variational import MarginalKl, VariationalState

# Eigenvalues below EIGEN_RTOL * lambda_max are discarded before the
# retention rule; keeps the 1/lambda factors bounded.
EIGEN_RTOL = 1e-10


@dataclass(frozen=True)
class SsgeConfig:
    """Estimator settings.

    ``num_eigen=None`` selects the eigenpair count automatically as the
    smallest J whose eigenvalues cover ``eigen_threshold`` of the total mass;
    ``bandwidth=None`` uses the median pairwise distance between samples.
    """

    num_samples: int = 100
    num_eigen: int | None = None
    eigen_threshold: float = 0.99
    bandwidth: float | None = None
    estimate_prior_score: bool = False

    def __post_init__(self):
        if self.num_samples < 2:
            raise ValueError("need at least 2 samples")
        if not 0.0 < self.eigen_threshold <= 1.0:
            raise ValueError("eigen_threshold must be in (0, 1]")
        if self.num_eigen is not None and not 1 <= self.num_eigen <= self.num_samples:
            raise ValueError("num_eigen must be in [1, num_samples]")
        if self.bandwidth is not None and self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class ScoreEstimate:
    """Fitted spectral expansion of the score, evaluable at arbitrary points."""

    eigenvalues: np.ndarray  # (J,), descending, strictly positive
    beta: np.ndarray  # (J, m)
    basis_samples: np.ndarray  # (M, m)
    eigvecs: np.ndarray  # (M, J)
    bandwidth_used: float

    def eigenfunctions(self, points: np.ndarray) -> np.ndarray:
        """Nystrom eigenfunction values, shape (N, J)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.basis_samples.shape[1]:
            raise DimensionMismatchError(
                f"points have dimension {points.shape[1]}, "
                f"basis has {self.basis_samples.shape[1]}"
            )
        gram = _rbf_kernel(points, self.basis_samples, self.bandwidth_used)
        m_samples = self.basis_samples.shape[0]
        return gram @ self.eigvecs * (np.sqrt(m_samples) / self.eigenvalues)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Estimated score at each point, shape (N, m)."""
        return self.eigenfunctions(points) @ self.beta


def _rbf_kernel(a: np.ndarray, b: np.ndarray, bandwidth: float) -> np.ndarray:
    return np.exp(-0.5 * squared_distances(a, b) / bandwidth**2)


def median_bandwidth(samples: np.ndarray) -> float:
    """Median of the distinct pairwise distances."""
    distances = pdist(samples)
    return float(np.median(distances))


def fit_score(samples: np.ndarray, config: SsgeConfig) -> ScoreEstimate:
    """Fit the spectral score expansion to the given (M, m) samples."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit a score estimate")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    m_samples = samples.shape[0]
    if config.bandwidth is not None:
        bandwidth = config.bandwidth
    else:
        bandwidth = median_bandwidth(samples)
        if bandwidth == 0.0:
            raise DegenerateKernelError(
                "all pairwise sample distances are zero; bandwidth undefined"
            )
    gram = _rbf_kernel(samples, samples, bandwidth)
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    keep = eigvals > EIGEN_RTOL * eigvals[0]
    eigvals, eigvecs = eigvals[keep], eigvecs[:, keep]
    if config.num_eigen is not None:
        top = min(config.num_eigen, eigvals.size)
    else:
        ratios = np.cumsum(eigvals) / np.sum(eigvals)
        top = int(np.searchsorted(ratios, config.eigen_threshold - 1e-15) + 1)
        top = min(top, eigvals.size)
    eigvals, eigvecs = eigvals[:top], eigvecs[:, :top]
    # beta_j = -(1/M) sum_i grad_x psi_j(x_i); for the RBF kernel the inner
    # kernel gradients collapse to column sums of K against the samples.
    col_sums = gram.sum(axis=0)
    summed_grads = -(gram @ samples - samples * col_sums[:, None]) / bandwidth**2
    beta = -(eigvecs.T @ summed_grads) / (np.sqrt(m_samples) * eigvals[:, None])
    return ScoreEstimate(eigvals, beta, samples, eigvecs, bandwidth)


def kl_gradient_estimate(
    state: "VariationalState",
    marginal: "MarginalKl",
    config: SsgeConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Reparameterized gradient of the marginal KL with an estimated score.

    Draws ``config.num_samples`` function values at the retained rows of the
    prepared marginal through the reparameterization, replaces the
    intractable variational-marginal score with the spectral estimate, uses
    the exact Gaussian score of the prior marginal (or, for ablation, an
    estimated one), and averages the path derivative back to the state
    parameters.  Returns a gradient in the state's unconstrained parameter
    layout.
    """
    rows = marginal.rows
    eps = rng.standard_normal((config.num_samples, state.dim))
    weights = state.mean + state.apply_scale(eps)
    values = weights @ rows.T  # (M, m)
    q_score = fit_score(values, config)(values)
    if config.estimate_prior_score:
        prior_values = rng.standard_normal((config.num_samples, state.dim)) @ rows.T
        p_score = fit_score(prior_values, config)(values)
    else:
        p_score = marginal.prior_score(values)
    diff = q_score - p_score  # (M, m), the integrand's df term
    per_sample_mean_grad = diff @ rows  # (M, k)
    grad_mean = per_sample_mean_grad.mean(axis=0)
    if state.is_full:
        grad_scale = np.tril(per_sample_mean_grad.T @ eps / config.num_samples)
    else:
        grad_scale = np.mean(per_sample_mean_grad * eps, axis=0)
    return state.pack_grad(grad_mean, grad_scale)
