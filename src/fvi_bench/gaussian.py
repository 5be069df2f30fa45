"""Multivariate Gaussian value type and closed-form operations.

The distribution is stored as a mean vector plus a dense symmetric positive
semidefinite covariance matrix.  All operations are pure; factorizations use
Cholesky with a bounded escalating jitter ladder (starting at 1e-10 times the
mean diagonal, escalating by 10x up to 1e-4 times the mean diagonal) so that
failure is explicit rather than silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky as _scipy_cholesky
from scipy.linalg import solve_triangular

from .errors import DimensionMismatchError, NonFiniteValueError, SingularReferenceError

# Relative ladder of jitter multipliers applied to mean(diag(cov)).
_JITTER_LADDER = tuple(10.0 ** e for e in range(-10, -3))


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
    """Lower-triangular factor with the jitter that was added to obtain it."""

    matrix: np.ndarray
    jitter_used: float


def cholesky_psd(cov: np.ndarray, *, what: str = "covariance") -> CholeskyFactor:
    """Cholesky-factorize ``cov``, escalating jitter until it succeeds.

    Raises:
        SingularReferenceError: no ladder entry makes the matrix factorizable.
    """
    cov = np.asarray(cov, dtype=float)
    base = float(np.mean(np.diag(cov))) if cov.size else 0.0
    jitters = [0.0] + [base * mult for mult in _JITTER_LADDER if base > 0.0]
    eye = np.eye(cov.shape[0])
    for jitter in jitters:
        try:
            lower = _scipy_cholesky(cov + jitter * eye, lower=True)
        except np.linalg.LinAlgError:
            continue
        return CholeskyFactor(lower, jitter)
    raise SingularReferenceError(
        f"{what} is singular: Cholesky failed up to jitter {jitters[-1]:g}"
    )


def _check_same_dim(q: GaussianDist, p: GaussianDist):
    if q.dim != p.dim:
        raise DimensionMismatchError(f"dimension mismatch: {q.dim} vs {p.dim}")


def kl_divergence(q: GaussianDist, p: GaussianDist) -> float:
    """KL(q || p) in closed form; ``p`` must be full rank within jitter.

    Uses Cholesky solves and log-determinants throughout, never explicit
    inverses.
    """
    _check_same_dim(q, p)
    n = q.dim
    factor_p = cholesky_psd(p.cov, what="reference covariance")
    factor_q = cholesky_psd(q.cov, what="approximate covariance")
    lp, lq = factor_p.matrix, factor_q.matrix
    half_rotated = solve_triangular(lp, lq, lower=True)
    trace_term = float(np.sum(half_rotated**2))
    white_delta = solve_triangular(lp, q.mean - p.mean, lower=True)
    mean_term = float(white_delta @ white_delta)
    log_det_term = 2.0 * float(
        np.sum(np.log(np.diag(lp))) - np.sum(np.log(np.diag(lq)))
    )
    return 0.5 * (trace_term + mean_term - n + log_det_term)
