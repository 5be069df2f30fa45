"""Multivariate Gaussian value type and closed-form operations.

The distribution is stored as a mean vector plus a dense symmetric positive
semidefinite covariance matrix.  All operations are pure.  A factorization
is one plain Cholesky, never of a matrix with an added diagonal: a matrix
that must be positive definite and is not raises `SingularReferenceError`,
and a degenerate q makes KL(q || p) infinite, as it is in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky as _scipy_cholesky
from scipy.linalg import solve_triangular

from .errors import DimensionMismatchError, NonFiniteValueError, SingularReferenceError
from .features import RANK_RTOL


@dataclass(frozen=True)
class GaussianDist:
    """Gaussian with a mean vector and an ``(n, n)`` symmetric PSD covariance.

    The distribution owns read-only copies of its arrays, so a property
    decided once from them (such as a model's standard prior) stays true.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise DimensionMismatchError(f"covariance must be ({n}, {n}), got {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise NonFiniteValueError("mean and covariance must be finite")
        scale = max(1.0, float(np.abs(cov).max()) if cov.size else 1.0)
        if float(np.abs(cov - cov.T).max()) > 1e-10 * scale:
            raise ValueError("covariance is not symmetric within 1e-10")
        cov = 0.5 * (cov + cov.T)
        diag = np.diag(cov)
        if diag.size and float(diag.min()) < -1e-10 * max(1.0, float(np.abs(diag).max())):
            raise ValueError("covariance has a negative diagonal entry")
        mean.flags.writeable = cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def standard_gaussian(n: int) -> GaussianDist:
    return GaussianDist(np.zeros(n), np.eye(n))


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular Cholesky factor of a positive definite matrix."""

    matrix: np.ndarray
    # Always 0.0: no diagonal is ever added.  Kept while the benchmark's
    # tracing still reads it for its `gaussian.jitter_retries` count.
    jitter_used = 0.0


def cholesky_psd(cov: np.ndarray, *, what: str = "covariance") -> CholeskyFactor:
    """Cholesky factor of ``cov``; raises `SingularReferenceError` naming
    it as ``what`` if ``cov`` is not numerically positive definite."""
    try:
        return CholeskyFactor(_scipy_cholesky(cov, lower=True))
    except np.linalg.LinAlgError:
        raise SingularReferenceError(
            f"{what} is not positive definite: its Cholesky factorization failed"
        ) from None


def _check_same_dim(q: GaussianDist, p: GaussianDist):
    if q.dim != p.dim:
        raise DimensionMismatchError(f"dimension mismatch: {q.dim} vs {p.dim}")


def kl_divergence(q: GaussianDist, p: GaussianDist) -> float:
    """KL(q || p) in closed form by Cholesky solves; ``math.inf`` when q is
    degenerate, as for a q with fewer parameters than points (the paper's
    first result).  q's covariance C = L L^T counts as degenerate when the
    factorization fails or a pivot has L_ii^2 <= ``RANK_RTOL`` * C_ii.  With
    B the leading block of C through row and column i, L_ii^2 =
    1 / (B^{-1})_ii >= lambda_min(B) >= lambda_min(C) by interlacing, and
    C_ii <= lambda_max(C), so only a C of eigenvalue ratio <= ``RANK_RTOL``
    is flagged.  A singular p raises `SingularReferenceError`.
    """
    _check_same_dim(q, p)
    n = q.dim
    lp = cholesky_psd(p.cov, what="reference covariance").matrix
    try:
        lq = cholesky_psd(q.cov, what="approximate covariance").matrix
    except SingularReferenceError:
        return math.inf
    if np.any(np.diag(lq) ** 2 <= RANK_RTOL * np.diag(q.cov)):
        return math.inf
    half_rotated = solve_triangular(lp, lq, lower=True)
    trace_term = float(np.sum(half_rotated**2))
    white_delta = solve_triangular(lp, q.mean - p.mean, lower=True)
    mean_term = float(white_delta @ white_delta)
    log_det_term = 2.0 * float(
        np.sum(np.log(np.diag(lp))) - np.sum(np.log(np.diag(lq)))
    )
    return 0.5 * (trace_term + mean_term - n + log_det_term)
