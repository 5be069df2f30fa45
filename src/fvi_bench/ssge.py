"""Spectral score estimation for implicit distributions.

Given samples of a distribution, estimates the score (gradient of the log
density) by expanding it in the Nystrom eigenfunctions of an RBF kernel Gram
matrix over the samples (Shi, Sun & Zhu, ICML 2018).  Used here to estimate
the gradient of the marginal KL term when the variational marginal is
treated as implicit (the functional VI of Sun et al., ICLR 2019): the
approximate-posterior score comes from the estimator, while the prior
marginal is Gaussian and its score comes in closed form from the prepared
`MarginalKl`, which takes the standard prior N(0, I) (see `blr.whiten`).
The estimate is the whole KL gradient of a `variational.Ssge` step, which
takes only the KL value from the closed form.  One kernel matrix of the
samples serves the fit and the scores at those samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DegenerateKernelError, DimensionMismatchError, NonFiniteValueError
from .features import squared_distances
# Unused here; kept because perfbench/tracing.py wraps these two names on this module.
from .features import independent_rows  # noqa: F401
from .gaussian import cholesky_psd  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover
    from .variational import MarginalKl, VariationalState

# Eigenvalues below EIGEN_RTOL * lambda_max are discarded before the
# retention rule; keeps the 1/lambda factors bounded.
EIGEN_RTOL = 1e-10
EIGEN_MASS = 0.99  # J is the fewest leading eigenvalues holding this share of the total


@dataclass(frozen=True)
class SsgeConfig:
    """Estimator settings.

    The kernel bandwidth is always the median pairwise distance between the
    samples, and the eigenpair count J always follows ``EIGEN_MASS``.

    ``estimate_prior_score=True`` is an ablation that estimates the prior
    score from prior samples as well.  It subtracts two independently fitted
    estimates and is biased: its gradient is 0.2-0.4 away from the
    closed-form marginal-KL gradient (relative error of the mean over many
    draws), and the bias does not shrink as ``num_samples`` grows.
    """

    num_samples: int = 100
    estimate_prior_score: bool = False

    def __post_init__(self):
        if self.num_samples < 2:
            raise ValueError("need at least 2 samples")


@dataclass(frozen=True)
class ScoreEstimate:
    """Fitted spectral expansion of the score, evaluable at arbitrary points.

    ``sample_scores`` is the score at the fitted samples themselves, formed
    from the fit's own kernel matrix; it equals ``self(basis_samples)`` bit
    for bit.
    """

    eigenvalues: np.ndarray  # (J,), descending, strictly positive
    beta: np.ndarray  # (J, m)
    basis_samples: np.ndarray  # (M, m)
    eigvecs: np.ndarray  # (M, J)
    bandwidth_used: float
    sample_scores: np.ndarray  # (M, m)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Estimated score at each point, shape (N, m)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.basis_samples.shape[1]:
            raise DimensionMismatchError(
                f"points have dimension {points.shape[1]}, "
                f"basis has {self.basis_samples.shape[1]}"
            )
        gram = _rbf_kernel(points, self.basis_samples, self.bandwidth_used)
        return _expansion(gram, self.eigvecs, self.eigenvalues, self.beta)


def _rbf_kernel(a: np.ndarray, b: np.ndarray, bandwidth: float) -> np.ndarray:
    return np.exp(-0.5 * squared_distances(a, b) / bandwidth**2)


def _expansion(
    gram: np.ndarray, eigvecs: np.ndarray, eigenvalues: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Score at N points from their (N, M) kernel against the M samples: the
    Nystrom eigenfunction values (N, J) times beta."""
    return (gram @ eigvecs * (np.sqrt(gram.shape[1]) / eigenvalues)) @ beta


def fit_score(samples: np.ndarray) -> ScoreEstimate:
    """Fit the spectral score expansion to the given (M, m) samples."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit a score estimate")
    if not np.all(np.isfinite(samples)):
        raise NonFiniteValueError("score samples contain NaN or Inf")
    m_samples = samples.shape[0]
    bandwidth = float(np.median(pdist(samples)))  # median of the distinct pairwise distances
    if bandwidth == 0.0:
        raise DegenerateKernelError(
            "all pairwise sample distances are zero; bandwidth undefined"
        )
    gram = _rbf_kernel(samples, samples, bandwidth)
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    keep = eigvals > EIGEN_RTOL * eigvals[0]
    eigvals, eigvecs = eigvals[keep], eigvecs[:, keep]
    ratios = np.cumsum(eigvals) / np.sum(eigvals)
    top = int(np.searchsorted(ratios, EIGEN_MASS - 1e-15) + 1)
    top = min(top, eigvals.size)
    eigvals, eigvecs = eigvals[:top], eigvecs[:, :top]
    # beta_j = -(1/M) sum_i grad_x psi_j(x_i); for the RBF kernel the inner
    # kernel gradients collapse to column sums of K against the samples.
    col_sums = gram.sum(axis=0)
    summed_grads = -(gram @ samples - samples * col_sums[:, None]) / bandwidth**2
    beta = -(eigvecs.T @ summed_grads) / (np.sqrt(m_samples) * eigvals[:, None])
    sample_scores = _expansion(gram, eigvecs, eigvals, beta)
    return ScoreEstimate(eigvals, beta, samples, eigvecs, bandwidth, sample_scores)


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
    q_score = fit_score(values).sample_scores
    if config.estimate_prior_score:
        prior_values = rng.standard_normal((config.num_samples, state.dim)) @ rows.T
        p_score = fit_score(prior_values)(values)
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
