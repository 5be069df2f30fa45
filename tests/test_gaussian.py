"""Tests for the Gaussian value type and its closed-form operations.

Derived expectations are checked against independent oracles: Monte Carlo
estimates built on numpy/scipy sampling and densities, and hand-computed
matrix products.
"""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import (
    random_gaussian,
    random_spd_matrix,
    random_uncorrelated_gaussian,
    standard_gaussian,
)
from fvi_bench import gaussian
from fvi_bench.errors import DimensionMismatchError, NonFiniteValueError, SingularReferenceError
from fvi_bench.gaussian import GaussianDist, kl_divergence


def mc_kl_oracle(q, p, num_samples, seed):
    """Monte Carlo KL estimate using scipy densities, independent of the
    implementation under test.  Returns (estimate, standard_error)."""
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(q.mean, q.cov, size=num_samples)
    log_q = stats.multivariate_normal.logpdf(draws, q.mean, q.cov)
    log_p = stats.multivariate_normal.logpdf(draws, p.mean, p.cov)
    diffs = log_q - log_p
    return float(np.mean(diffs)), float(np.std(diffs, ddof=1) / math.sqrt(num_samples))


def cholesky_succeeds(cov: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return False
    return True


class TestKlDivergence:
    def test_identical_standard_normals(self):
        q = standard_gaussian(2)
        assert kl_divergence(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_mean_unit_covariance(self):
        q = GaussianDist([1.0, 0.0], np.eye(2))
        p = GaussianDist([0.0, 0.0], np.eye(2))
        value = kl_divergence(q, p)
        assert value == pytest.approx(0.5, abs=1e-12)
        estimate, stderr = mc_kl_oracle(q, p, 10**6, seed=1)
        assert abs(estimate - value) < 3 * stderr

    def test_scaled_variance_1d(self):
        q = GaussianDist([0.0], [[2.0]])
        p = GaussianDist([0.0], [[1.0]])
        value = kl_divergence(q, p)
        assert value == pytest.approx((2.0 - 1.0 - math.log(2.0)) / 2.0, abs=1e-12)
        assert value == pytest.approx(0.15343, abs=5e-6)
        estimate, stderr = mc_kl_oracle(q, p, 10**6, seed=2)
        assert abs(estimate - value) < 3 * stderr

    def test_self_kl_zero_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            q = random_gaussian(rng, n)
            assert abs(kl_divergence(q, q)) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            q = random_gaussian(rng, n)
            p = random_gaussian(rng, n)
            assert kl_divergence(q, p) >= -1e-10

    def test_diagonal_covariances_match_the_closed_form(self):
        # KL of two diagonal Gaussians, O(n): with variance ratio r = q / p
        # and mean gap delta, 0.5 * sum(r + delta^2 / p - 1 - log r).
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            q = random_uncorrelated_gaussian(rng, n)
            p = random_uncorrelated_gaussian(rng, n)
            q_var, p_var = np.diag(q.cov), np.diag(p.cov)
            ratio = q_var / p_var
            delta = q.mean - p.mean
            expected = 0.5 * float(np.sum(ratio + delta**2 / p_var - 1.0 - np.log(ratio)))
            assert kl_divergence(q, p) == pytest.approx(expected, rel=1e-12)

    def test_invariance_under_invertible_maps(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            q = random_gaussian(rng, n)
            p = random_gaussian(rng, n)
            while True:
                m = rng.standard_normal((n, n))
                if abs(np.linalg.det(m)) > 1e-3:
                    break
            base = kl_divergence(q, p)
            mapped = kl_divergence(
                GaussianDist(m @ q.mean, m @ q.cov @ m.T),
                GaussianDist(m @ p.mean, m @ p.cov @ m.T),
            )
            assert mapped == pytest.approx(base, rel=1e-8)

    def test_monotone_under_marginalization(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            keep = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            projection = np.eye(n)[keep]
            q = random_gaussian(rng, n)
            p = random_gaussian(rng, n)
            assert kl_divergence(
                GaussianDist(projection @ q.mean, projection @ q.cov @ projection.T),
                GaussianDist(projection @ p.mean, projection @ p.cov @ projection.T),
            ) <= kl_divergence(q, p) + 1e-10

    def test_sample_log_density_consistency(self):
        rng = np.random.default_rng(7)
        q = random_gaussian(rng, 3)
        p = random_gaussian(rng, 3)
        eps = np.random.default_rng(8).standard_normal((10**5, 3))
        draws = q.mean + eps @ np.linalg.cholesky(q.cov).T
        log_q = stats.multivariate_normal.logpdf(draws, q.mean, q.cov)
        diffs = log_q - stats.multivariate_normal.logpdf(draws, p.mean, p.cov)
        stderr = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
        assert abs(float(np.mean(diffs)) - kl_divergence(q, p)) < 3 * stderr

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_divergence(standard_gaussian(2), standard_gaussian(3))

    def test_singular_reference_raises(self):
        q = standard_gaussian(2)
        p = GaussianDist([0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(SingularReferenceError):
            kl_divergence(q, p)

    def test_full_rank_q_against_rank_deficient_reference_raises(self):
        """A ladder that added jitter to p gave 7.5e9 here."""
        p = GaussianDist(np.zeros(3), np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(SingularReferenceError, match="reference covariance"):
            kl_divergence(standard_gaussian(3), p)


class TestDegenerateApproximation:
    """KL(q || p) = +inf when q is rank deficient and p has full rank: q puts
    all its mass on a subspace that p gives probability zero."""

    def test_rank_three_q_on_five_dimensions(self):
        """A jitter ladder on q's factor once gave 27.8 here."""
        basis = np.random.default_rng(17).standard_normal((5, 3))
        q = GaussianDist(np.zeros(5), basis @ basis.T)
        assert kl_divergence(q, standard_gaussian(5)) == math.inf

    def test_low_rank_sweep(self):
        """q = N(mu, B S S^T B^T) with B of shape (m, k), m > k, on many
        seeds.  Roundoff lets the Cholesky of such a matrix succeed on some
        seeds; the pivot test must flag those too."""
        factorized = 0
        for seed in range(300):
            rng = np.random.default_rng([18, seed])
            m = int(rng.integers(2, 13))
            k = int(rng.integers(1, m))
            basis = rng.standard_normal((m, k)) * rng.uniform(0.1, 10.0)
            scale = rng.standard_normal((k, k))
            cov = basis @ scale @ scale.T @ basis.T
            q = GaussianDist(rng.standard_normal(m), cov)
            factorized += cholesky_succeeds(q.cov)
            assert kl_divergence(q, random_gaussian(rng, m)) == math.inf, seed
        assert factorized > 0

    def test_well_conditioned_q_stays_finite(self):
        """The pivot test flags only eigenvalue ratios <= RANK_RTOL: a
        covariance of ratio 1e-6 keeps its closed-form KL."""
        rotation = np.linalg.qr(np.random.default_rng(19).standard_normal((4, 4)))[0]
        variances = np.array([1.0, 1e-2, 1e-4, 1e-6])
        q = GaussianDist(np.zeros(4), rotation @ np.diag(variances) @ rotation.T)
        expected = 0.5 * float(np.sum(variances - 1.0 - np.log(variances)))
        assert kl_divergence(q, standard_gaussian(4)) == pytest.approx(expected, rel=1e-8)


class TestSingularReference:
    """KL(q || p) has no value when p is rank deficient: p has no density, so
    the divergence raises instead of returning a number."""

    def test_low_rank_sweep(self):
        """`TestDegenerateApproximation.test_low_rank_sweep` with q and p
        swapped.  Where roundoff lets p's Cholesky succeed, the pivot test
        must flag it; without it, seed 6 (m = 2, k = 1) returned 4.4e15."""
        factorized = 0
        for seed in range(300):
            rng = np.random.default_rng([18, seed])
            m = int(rng.integers(2, 13))
            k = int(rng.integers(1, m))
            basis = rng.standard_normal((m, k)) * rng.uniform(0.1, 10.0)
            scale = rng.standard_normal((k, k))
            cov = basis @ scale @ scale.T @ basis.T
            p = GaussianDist(rng.standard_normal(m), cov)
            factorized += cholesky_succeeds(p.cov)
            with pytest.raises(SingularReferenceError, match="reference covariance"):
                kl_divergence(random_gaussian(rng, m), p)
        assert factorized > 0

    def test_well_conditioned_p_stays_finite(self):
        """A reference covariance of eigenvalue ratio 1e-6 keeps its
        closed-form KL: tr(P^{-1}) - n + log det P over 2 against N(0, I)."""
        rotation = np.linalg.qr(np.random.default_rng(19).standard_normal((4, 4)))[0]
        variances = np.array([1.0, 1e-2, 1e-4, 1e-6])
        p = GaussianDist(np.zeros(4), rotation @ np.diag(variances) @ rotation.T)
        expected = 0.5 * float(np.sum(1.0 / variances - 1.0 + np.log(variances)))
        assert kl_divergence(standard_gaussian(4), p) == pytest.approx(expected, rel=1e-8)


class TestConstruction:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianDist([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="negative diagonal"):
            GaussianDist([0.0, 0.0], np.diag([1.0, -1.0]))

    def test_empty_gaussian_rejected(self):
        """Dimension 0 once raised numpy's "zero-size array to reduction
        operation maximum" from the symmetry check."""
        with pytest.raises(DimensionMismatchError, match="at least one dimension"):
            GaussianDist(np.zeros(0), np.eye(0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            GaussianDist([0.0, 0.0], np.eye(3))

    @pytest.mark.parametrize(
        "mean, cov", [([0.0], [[np.nan]]), ([np.inf], [[1.0]])], ids=["nan_cov", "inf_mean"]
    )
    def test_non_finite_entries_rejected(self, mean, cov):
        """Both once constructed; `kl_divergence` then raised scipy's bare
        ValueError instead of a package error."""
        with pytest.raises(NonFiniteValueError):
            GaussianDist(mean, cov)

    def test_full_covariance_stored_symmetric(self):
        cov = np.array([[2.0, 0.5], [0.5 + 1e-12, 1.0]])
        q = GaussianDist([0.0, 0.0], cov)
        np.testing.assert_array_equal(q.cov, q.cov.T)
        np.testing.assert_allclose(q.cov, cov, atol=1e-12)

    def test_owns_read_only_copies(self):
        mean, cov = np.zeros(2), np.eye(2)
        q = GaussianDist(mean, cov)
        for array in (q.mean, q.cov):
            with pytest.raises(ValueError):
                array[0] = 99.0
        # Writing to the caller's arrays leaves the distribution as it was.
        mean[0], cov[0, 0] = 99.0, 99.0
        assert q.mean[0] == 0.0 and q.cov[0, 0] == 1.0


class TestCholeskyPsd:
    def test_positive_definite_matches_numpy(self):
        cov = random_spd_matrix(np.random.default_rng(16), 4)
        factor = gaussian.cholesky_psd(cov)
        np.testing.assert_allclose(factor.matrix, np.linalg.cholesky(cov), rtol=1e-12)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularReferenceError):
            gaussian.cholesky_psd(np.zeros((2, 2)))

    def test_indefinite_matrix_raises_naming_the_matrix(self):
        with pytest.raises(SingularReferenceError, match="test matrix"):
            gaussian.cholesky_psd(np.diag([1.0, -1.0]), what="test matrix")
