"""Multivariate Gaussian value type and the closed-form KL divergence.

A distribution is a mean vector and a lower-triangular factor L of its
covariance L L^T, the form of a variational state and of the exact
posterior.  All operations are pure.  The KL reads both factors and never
forms L L^T to factorize it again, which would square the condition number
of L.  A factorization is one plain Cholesky, with no added diagonal: a
matrix that must be positive definite and is not raises
`SingularReferenceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatchError, NonFiniteValueError, SingularReferenceError
from .features import RANK_RTOL


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Gaussian N(mean, factor factor^T) with an ``(n, n)`` lower-triangular
    factor of non-negative diagonal; a zero on that diagonal makes it degenerate.

    The distribution owns read-only copies of its arrays, so a property
    decided once from them stays true.  It has at least one dimension.
    """

    mean: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        factor = np.array(self.factor, dtype=float)
        n = mean.shape[0]
        if n == 0:
            raise DimensionMismatchError("a Gaussian needs at least one dimension")
        if factor.shape != (n, n):
            raise DimensionMismatchError(f"factor must be ({n}, {n}), got {factor.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(factor).all()):
            raise NonFiniteValueError("mean and factor must be finite")
        if np.triu(factor, 1).any() or (np.diag(factor) < 0.0).any():
            raise ValueError("factor must be lower triangular with a non-negative diagonal")
        mean.flags.writeable = factor.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "factor", factor)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cov(self) -> np.ndarray:
        """The dense covariance factor factor^T, formed anew at each read."""
        return self.factor @ self.factor.T


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower-triangular Cholesky factor of a positive definite matrix."""

    matrix: np.ndarray
    # Always 0.0: no diagonal is ever added.  Kept while the benchmark's
    # tracing still reads it for its `gaussian.jitter_retries` count.
    jitter_used = 0.0


def cholesky_psd(cov: np.ndarray, *, what: str = "covariance") -> CholeskyFactor:
    """Cholesky factor of ``cov``; raises `SingularReferenceError` naming
    it as ``what`` if ``cov`` is not numerically positive definite, and
    `NonFiniteValueError` if it holds a NaN or inf, which numpy's passes on.

    numpy's factorization, not scipy's: set-up factorizes sigma^2 I + Phi^T Phi
    between numpy products, and scipy's own BLAS threads then contend with
    numpy's (a 200 x 200 factor took 41 ms instead of 0.6 ms on 2 vCPUs)."""
    if not np.isfinite(cov).all():
        raise NonFiniteValueError(f"{what} contains NaN or inf")
    try:
        return CholeskyFactor(np.linalg.cholesky(cov))
    except np.linalg.LinAlgError:
        raise SingularReferenceError(
            f"{what} is not positive definite: its Cholesky factorization failed"
        ) from None


def kl_divergence(q: GaussianDist, p: GaussianDist) -> float:
    """KL(q || p) in closed form from the two factors: two triangular solves
    by p's and the log-determinants off both diagonals.  ``math.inf`` when
    q's factor has a zero pivot, as for a q with fewer parameters than points
    (the paper's first result).  A singular p has no density and raises
    `SingularReferenceError`: its covariance C = L L^T counts as singular
    when a pivot has L_ii^2 <= ``RANK_RTOL`` * C_ii, C_ii being the squared
    norm of row i of L.  With B the leading block of C through row and column
    i, L_ii^2 = 1 / (B^{-1})_ii >= lambda_min(B) >= lambda_min(C) by
    interlacing, and C_ii <= lambda_max(C), so only a C of eigenvalue ratio
    <= ``RANK_RTOL`` is flagged.  No logarithm is taken of a zero pivot.
    """
    n = q.dim
    if p.dim != n:
        raise DimensionMismatchError(f"dimension mismatch: {n} vs {p.dim}")
    lp, lq = p.factor, q.factor
    if np.any(np.diag(lp) ** 2 <= RANK_RTOL * np.sum(lp**2, axis=1)):
        raise SingularReferenceError("reference covariance is numerically singular")
    if not np.all(np.diag(lq) > 0.0):
        return math.inf
    half_rotated = solve_triangular(lp, lq, lower=True)
    white_delta = solve_triangular(lp, q.mean - p.mean, lower=True)
    log_det_term = 2.0 * float(np.sum(np.log(np.diag(lp))) - np.sum(np.log(np.diag(lq))))
    return 0.5 * (float(np.sum(half_rotated**2) + white_delta @ white_delta) - n + log_det_term)
