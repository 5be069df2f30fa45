"""Spectral score estimation for implicit distributions.

Given samples of a distribution, estimates the score (gradient of the log
density) by expanding it in the Nystrom eigenfunctions of an RBF kernel Gram
matrix over the samples (Shi, Sun & Zhu, ICML 2018).  One squared-distance
matrix of the samples gives the kernel bandwidth, the median of its own
pairwise distances, and the kernel matrix, which serves the fit and the
scores at those samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    DimensionMismatchError,
    NonFiniteValueError,
    require_count,
)
from .features import _as_rows, _strict_lower, squared_distances
# Unused here; kept because perfbench/tracing.py wraps these two names on this module.
from .features import independent_rows  # noqa: F401
from .gaussian import cholesky_psd  # noqa: F401

EIGEN_MASS = 0.99  # J is the fewest leading eigenvalues holding this share of the total
# A squared median distance <= DISTANCE_RTOL * max ||x||^2 is within the roundoff
# of the expanded squared distances, about 2 (m + 2) eps max ||x||^2 in dimension m.
DISTANCE_RTOL = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class SsgeConfig:
    """Estimator settings.

    The kernel bandwidth is always the median pairwise distance between the
    samples, taken from the kernel's own squared distances, and the
    eigenpair count J always follows ``EIGEN_MASS``.
    """

    num_samples: int = 100

    def __post_init__(self):
        require_count("num_samples", self.num_samples, 2)


@dataclass(frozen=True, eq=False)
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
        points = _as_rows(points)
        if points.shape[1] != self.basis_samples.shape[1]:
            raise DimensionMismatchError(
                f"points have dimension {points.shape[1]}, "
                f"basis has {self.basis_samples.shape[1]}"
            )
        gram = _rbf_kernel(squared_distances(points, self.basis_samples), self.bandwidth_used)
        return _expansion(gram, self.eigvecs, self.eigenvalues, self.beta)


def _rbf_kernel(squared: np.ndarray, bandwidth: float) -> np.ndarray:
    return np.exp(-0.5 * squared / bandwidth**2)


def _expansion(
    gram: np.ndarray, eigvecs: np.ndarray, eigenvalues: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Score at N points from their (N, M) kernel against the M samples: the
    Nystrom eigenfunction values (N, J) times beta."""
    return (gram @ eigvecs * (np.sqrt(gram.shape[1]) / eigenvalues)) @ beta


def fit_score(samples: np.ndarray) -> ScoreEstimate:
    """Fit the spectral score expansion to the given (M, m) samples.

    The bandwidth is `np.median` of the pairwise distances, the square roots
    of `squared_distances(samples, samples)` at pairs i > j (the expanded
    matrix is not bit-symmetric), and the kernel is `_rbf_kernel` of the
    same matrix.  Raises `DegenerateKernelError` when the squared median is
    at most ``DISTANCE_RTOL`` times the largest squared sample norm: the
    expanded form gives equal rows a roundoff-sized distance, not zero, so a
    zero test alone misses samples that are all or mostly copies of one row.
    """
    samples = _as_rows(samples)
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit a score estimate")
    if not np.all(np.isfinite(samples)):
        raise NonFiniteValueError("score samples contain NaN or Inf")
    m_samples = samples.shape[0]
    squared = squared_distances(samples, samples)
    dist = np.sqrt(squared[_strict_lower(m_samples)])
    dist.partition(dist.size // 2)  # np.median's rule, found 6x faster in place
    bandwidth = float((dist[: (dist.size + 1) // 2].max() + dist[dist.size // 2]) / 2)
    if bandwidth**2 <= DISTANCE_RTOL * float(np.einsum("ij,ij->i", samples, samples).max()):
        raise DegenerateKernelError(
            "the median distance of the samples is within roundoff of zero; bandwidth undefined"
        )
    gram = _rbf_kernel(squared, bandwidth)
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    # The unit diagonal makes the total M, and the eigenvalues from the J-th on hold
    # over 1 - EIGEN_MASS of it, so the J kept ones all exceed about 1 - EIGEN_MASS.
    ratios = np.cumsum(eigvals) / np.sum(eigvals)
    top = int(np.searchsorted(ratios, EIGEN_MASS - 1e-15) + 1)
    # Column-major: numpy's products with the reversed view are slower and round differently.
    eigvals, eigvecs = eigvals[:top], np.asfortranarray(eigvecs[:, :top])
    # beta_j = -(1/M) sum_i grad_x psi_j(x_i); for the RBF kernel the inner
    # kernel gradients collapse to column sums of K against the samples.
    col_sums = gram.sum(axis=0)
    summed_grads = -(gram @ samples - samples * col_sums[:, None]) / bandwidth**2
    beta = -(eigvecs.T @ summed_grads) / (np.sqrt(m_samples) * eigvals[:, None])
    sample_scores = _expansion(gram, eigvecs, eigvals, beta)
    return ScoreEstimate(eigvals, beta, samples, eigvecs, bandwidth, sample_scores)

