"""Tests for RBF feature maps, the featurizer and the rank of feature rows."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.vq import kmeans2
from scipy.spatial.distance import cdist, pdist

from fvi_bench import features
from fvi_bench.errors import DimensionMismatchError, NonFiniteValueError
from fvi_bench.features import (
    RbfFeatureMap,
    evaluate,
    fit_rbf_featurizer,
    independent_rows,
    squared_distances,
)


def toy_feature_map() -> RbfFeatureMap:
    """20 linearly spaced centers in [-2, 2], shared lengthscale 0.2."""
    return RbfFeatureMap(np.linspace(-2.0, 2.0, 20).reshape(-1, 1), np.array([0.2]))


def median_heuristic_oracle(inputs, rng):
    """The median heuristic by its definition: the m x m absolute differences
    of each dimension, their upper triangle, and `np.median`."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape[0] > features.LENGTHSCALE_MAX_POINTS:
        picked = rng.choice(inputs.shape[0], size=features.LENGTHSCALE_MAX_POINTS, replace=False)
        inputs = inputs[picked]
    upper = np.triu_indices(inputs.shape[0], k=1)
    scales = np.ones(inputs.shape[1])
    for dim in range(inputs.shape[1]):
        diffs = np.abs(inputs[:, dim, None] - inputs[None, :, dim])[upper]
        median = float(np.median(diffs)) if diffs.size else 0.0
        if median > 0.0:
            scales[dim] = median
    return scales


class TestEvaluate:
    def test_feature_is_one_at_its_center(self):
        fmap = RbfFeatureMap(np.array([[0.3, -0.7]]), np.array([0.5, 1.5]))
        out = evaluate(fmap, np.array([[0.3, -0.7]]))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_hand_evaluated_1d_value(self):
        fmap = RbfFeatureMap(np.array([[0.0]]), np.array([0.2]))
        out = evaluate(fmap, np.array([[0.2]]))
        assert out[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert out[0, 0] == pytest.approx(0.60653, abs=5e-6)

    def test_toy_centers_give_unit_diagonal(self):
        fmap = toy_feature_map()
        out = evaluate(fmap, fmap.centers)
        np.testing.assert_allclose(np.diag(out), np.ones(20), atol=1e-12)

    def test_values_in_unit_interval_and_one_only_at_center(self):
        rng = np.random.default_rng(0)
        fmap = RbfFeatureMap(rng.standard_normal((5, 3)), rng.uniform(0.5, 2.0, 3))
        points = rng.standard_normal((40, 3))
        out = evaluate(fmap, points)
        assert np.all(out > 0.0) and np.all(out <= 1.0)
        assert not np.any(out == 1.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        fmap = RbfFeatureMap(rng.standard_normal((4, 2)), np.array([1.0, 1.0]))
        points = rng.standard_normal((10, 2))
        perm = rng.permutation(10)
        np.testing.assert_allclose(
            evaluate(fmap, points)[perm], evaluate(fmap, points[perm])
        )

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        fmap = RbfFeatureMap(rng.standard_normal((6, 2)), rng.uniform(0.3, 2.0, 2))
        points = rng.standard_normal((7, 2))
        direct = np.empty((7, 6))
        for i, x in enumerate(points):
            for j, c in enumerate(fmap.centers):
                direct[i, j] = math.exp(-0.5 * float(np.sum(((x - c) / fmap.lengthscales) ** 2)))
        np.testing.assert_allclose(evaluate(fmap, points), direct, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(toy_feature_map(), np.zeros((3, 2)))

    def test_invalid_lengthscale_rejected(self):
        with pytest.raises(ValueError):
            RbfFeatureMap(np.zeros((2, 1)), np.array([0.0]))

    @pytest.mark.parametrize(
        "centers, lengthscales",
        [([[0.0]], [np.nan]), ([[0.0]], [np.inf]), ([[np.nan]], [1.0]), ([[np.inf]], [1.0])],
        ids=["nan-lengthscale", "inf-lengthscale", "nan-center", "inf-center"],
    )
    def test_nonfinite_parameters_rejected(self, centers, lengthscales):
        """A NaN lengthscale or centre once constructed, and every feature was NaN."""
        with pytest.raises(NonFiniteValueError):
            RbfFeatureMap(centers, lengthscales)

    def test_owns_read_only_copies(self):
        centers, lengthscales = np.linspace(-1.0, 1.0, 5).reshape(-1, 1), np.array([0.5])
        fmap = RbfFeatureMap(centers, lengthscales)
        points = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
        before = fmap(points)
        centers[0, 0], lengthscales[0] = 5.0, 2.0
        np.testing.assert_array_equal(fmap(points), before)
        with pytest.raises(ValueError, match="read-only"):
            fmap.centers[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            fmap.lengthscales[0] = 2.0


def expansion_squared_distances(a, b, clip=True):
    """The allocating |a|^2 - 2 a.b + |b|^2 expression (oracle for the bits)."""
    sq = np.sum(a**2, axis=1)[:, None] - 2.0 * a @ b.T + np.sum(b**2, axis=1)[None, :]
    return np.maximum(sq, 0.0) if clip else sq


class TestSquaredDistances:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 1, 5), (40, 3, 9), (300, 8, 200)])
    def test_bit_identical_to_expansion_and_close_to_cdist(self, shape):
        n_a, d, n_b = shape
        rng = np.random.default_rng(n_a + d)
        a = rng.standard_normal((n_a, d))
        b = rng.standard_normal((n_b, d))
        out = squared_distances(a, b)
        np.testing.assert_array_equal(out, expansion_squared_distances(a, b))
        np.testing.assert_allclose(out, cdist(a, b, "sqeuclidean"), rtol=1e-10)

    def test_same_array_on_both_sides(self):
        # The SSGE kernel passes its samples as both a and b.
        a = np.random.default_rng(9).standard_normal((100, 10))
        np.testing.assert_array_equal(squared_distances(a, a), expansion_squared_distances(a, a))

    def test_coincident_rows_never_negative(self):
        # Far from the origin the expansion cancels |a|^2 against 2 a.b, and
        # unclipped roundoff would go negative for coincident rows.
        rng = np.random.default_rng(0)
        a = 1e3 + rng.standard_normal((50, 4))
        b = np.vstack([a[::5], 1e3 + rng.standard_normal((5, 4))])
        assert np.any(expansion_squared_distances(a, b, clip=False) < 0.0)
        out = squared_distances(a, b)
        assert np.all(out >= 0.0)
        np.testing.assert_array_equal(out, expansion_squared_distances(a, b))
        np.testing.assert_allclose(out, cdist(a, b, "sqeuclidean"), atol=1e-6)


class TestInjectivityCertificate:
    """The rows `independent_rows` keeps of the candidates' features: their
    count is the rank, and k of them witness an injective weight-to-function
    map."""

    def test_toy_map_at_own_centers_is_full_rank(self):
        fmap = toy_feature_map()
        witness = independent_rows(evaluate(fmap, fmap.centers))
        assert len(witness) == 20
        # SVD oracle: the witness rows really are linearly independent.
        witness_feats = evaluate(fmap, fmap.centers[witness])
        sv = np.linalg.svd(witness_feats, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]

    def test_duplicate_points_rank_one(self):
        fmap = RbfFeatureMap(np.array([[0.0], [1.0]]), np.array([1.0]))
        kept = independent_rows(evaluate(fmap, np.array([[0.5], [0.5]])))
        assert len(kept) == 1 < fmap.num_features

    def test_fewer_points_than_features(self):
        fmap = RbfFeatureMap(np.linspace(0, 1, 5).reshape(-1, 1), np.array([0.3]))
        kept = independent_rows(evaluate(fmap, np.array([[0.1], [0.9]])))
        assert len(kept) == 2 < fmap.num_features

    def test_witness_full_rank_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            fmap = RbfFeatureMap(
                np.sort(rng.uniform(-2, 2, k)).reshape(-1, 1), np.array([0.4])
            )
            candidates = rng.uniform(-2.5, 2.5, (3 * k, 1))
            witness = independent_rows(evaluate(fmap, candidates))
            assert len(witness) == k  # every instance here is certified
            sub = evaluate(fmap, candidates[witness])
            sv = np.linalg.svd(sub, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]


class TestIndependentRows:
    def test_drops_duplicate_row(self):
        m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        kept = independent_rows(m)
        assert len(kept) == 2
        sv = np.linalg.svd(m[kept], compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]

    def test_full_rank_keeps_all(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 6))
        np.testing.assert_array_equal(independent_rows(m), np.arange(4))


class TestFeaturizer:
    def test_centers_and_lengthscales_shapes(self):
        rng = np.random.default_rng(7)
        inputs = rng.standard_normal((200, 3))
        fmap = fit_rbf_featurizer(inputs, num_centers=10, rng=np.random.default_rng(0))
        assert fmap.centers.shape == (10, 3)
        assert np.all(fmap.lengthscales > 0.0)

    @pytest.mark.parametrize(
        "n, d, k",
        [(60, 1, 12), (40, 1, 40), (200, 3, 25), (1200, 2, 15), (9, 4, 20), (1, 3, 5)],
    )
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_scipy_kmeans_plus_plus(self, n, d, k, seed):
        """Same centers and lengthscales, bit for bit, as scipy's ++ seeding
        followed by the median heuristic on the same generator (n > 1000
        makes the heuristic subsample, so the generator state must match)."""
        inputs = np.random.default_rng([seed, n, d]).standard_normal((n, d))
        oracle_rng = np.random.default_rng(seed)
        centers, _ = kmeans2(inputs, min(k, n), minit="++", rng=oracle_rng)
        lengthscales = median_heuristic_oracle(inputs, oracle_rng)
        fmap = fit_rbf_featurizer(inputs, num_centers=k, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(fmap.centers, centers)
        np.testing.assert_array_equal(fmap.lengthscales, lengthscales)

    def test_draw_above_the_rounded_cumsum_takes_the_last_row(self):
        """The normalized cumsum can end below 1; a draw above its end once
        indexed one row past the inputs (`IndexError`), as scipy does."""

        class TopDraws:
            def integers(self, n):
                return 0

            def uniform(self):
                return np.nextafter(1.0, 0.0)

        rng = np.random.default_rng(3)
        rng.uniform(size=(200, 3))
        inputs = rng.uniform(size=(200, 3))
        seeds = features._kmeans_pp_seeds(inputs, 2, TopDraws())
        np.testing.assert_array_equal(seeds, inputs[[0, 199]])

    @pytest.mark.parametrize("n, d", [(2000, 4), (500, 8), (50, 1)])
    def test_seeding_distances_are_cdist_bit_for_bit(self, n, d):
        rng = np.random.default_rng([n, d])
        inputs = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
        columns = np.ascontiguousarray(inputs.T)
        for row in rng.integers(n, size=20):
            distances = features._squared_distances_to(columns, inputs[row])
            expected = cdist(inputs[row][None, :], inputs, "sqeuclidean")[0]
            np.testing.assert_array_equal(distances, expected)
            assert distances[row] == 0.0

    def test_fewer_distinct_rows_than_centers(self):
        distinct = np.random.default_rng(4).standard_normal((5, 2))
        inputs = np.repeat(distinct, 10, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fmap = fit_rbf_featurizer(inputs, num_centers=8, rng=np.random.default_rng(1))
        # One center per distinct row, as the min(num_centers, n) clip does
        # (up to the roundoff of Lloyd's mean over ten copies of a row).
        assert fmap.num_features == 5
        np.testing.assert_allclose(
            np.unique(fmap.centers, axis=0), np.unique(distinct, axis=0), rtol=1e-14
        )
        assert np.linalg.matrix_rank(fmap(inputs)) == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_inputs_rejected_before_seeding(self, bad):
        inputs = np.random.default_rng(5).standard_normal((30, 2))
        inputs[17, 1] = bad
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(NonFiniteValueError):
            fit_rbf_featurizer(inputs, num_centers=4, rng=rng)
        assert rng.bit_generator.state == state

    def test_overflowing_distances_raise_a_typed_error(self):
        """The k-means++ seeding once divided by an infinite sum of squared
        distances and died on numpy's "invalid value" warning."""
        inputs = np.random.default_rng(0).choice([1.7e308, -1.7e308, 0.0, 5e-324, 1.0, 2.0], 40)
        with pytest.raises(NonFiniteValueError, match="overflow"):
            fit_rbf_featurizer(inputs, num_centers=4)
        with pytest.raises(NonFiniteValueError, match="overflow"):
            fit_rbf_featurizer(np.array([1e154, -1e154, 0.0, 1.0]), num_centers=3)

    def test_empty_inputs_rejected_before_seeding(self):
        """Zero rows once reached the seeding's rng.integers(0) and failed
        there with numpy's bare "high <= 0"."""
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="empty"):
            fit_rbf_featurizer(np.zeros((0, 2)), 3, rng=rng)
        assert rng.bit_generator.state == before

    def test_no_centers_rejected(self):
        with pytest.raises(ValueError):
            fit_rbf_featurizer(np.zeros((3, 1)), num_centers=0)

    @pytest.mark.parametrize("num_centers", [2.5, True], ids=["fraction", "bool"])
    def test_non_integer_center_count_rejected(self, num_centers):
        """2.5 once fitted 3 centres and True fitted 1."""
        with pytest.raises(ValueError, match="integer"):
            fit_rbf_featurizer(np.linspace(0.0, 1.0, 10), num_centers=num_centers)

    def test_constant_dimension_gets_unit_lengthscale(self):
        inputs = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
        scales = features.median_heuristic_lengthscales(inputs)
        assert scales[1] == 1.0
        assert scales[0] > 0.0

    def test_one_dimensional_inputs_are_one_column(self):
        inputs = np.linspace(0.0, 1.0, 50)
        fmap = fit_rbf_featurizer(inputs, num_centers=10, rng=np.random.default_rng(2))
        column = fit_rbf_featurizer(inputs[:, None], num_centers=10, rng=np.random.default_rng(2))
        assert fmap.centers.shape == (10, 1)
        np.testing.assert_array_equal(fmap.centers, column.centers)
        np.testing.assert_array_equal(fmap.lengthscales, column.lengthscales)
        np.testing.assert_array_equal(fmap(inputs), column(inputs[:, None]))


BLOCK = features._LLOYD_BLOCK_ROWS


class TestLloyd:
    """The blocked Lloyd loop against scipy's `kmeans2` from the same
    centers.  For d >= 5 scipy forms the distances with one BLAS product
    (its d <= 4 branch is reached through `test_matches_scipy_kmeans_plus_plus`)."""

    @pytest.mark.parametrize(
        "n", [BLOCK // 3, BLOCK, BLOCK + 1, 3 * BLOCK + 57], ids=["part", "one", "one+1", "ragged"]
    )
    @pytest.mark.parametrize("d", [5, 8])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_scipy_kmeans2_bit_for_bit(self, n, d, seed):
        """Every row lies on the plane x0 = x1, and the centers come in pairs
        mirrored across it, so in exact arithmetic each row is as far from
        one center of a pair as from the other: the rounding of the
        distances decides the labels, and with them the centers."""
        rng = np.random.default_rng([seed, n, d])
        inputs = np.round(rng.standard_normal((n, d)), 1)
        inputs[:, 1] = inputs[:, 0]
        pairs = inputs[rng.choice(n, size=6, replace=False)]
        pairs[:, :2] = rng.uniform(-1.0, 1.0, (6, 2))
        seeds = np.vstack([pairs, pairs[:, [1, 0, *range(2, d)]]])
        with warnings.catch_warnings(record=True) as scipy_warnings:
            warnings.simplefilter("always")
            expected, _ = kmeans2(inputs, seeds, minit="matrix")
        with warnings.catch_warnings(record=True) as own_warnings:
            warnings.simplefilter("always")
            centers = features._lloyd(inputs, seeds)
        np.testing.assert_array_equal(centers, expected)
        assert len(own_warnings) == len(scipy_warnings)

    @pytest.mark.parametrize("d", [2, 5])
    def test_empty_cluster_keeps_its_center_and_warns(self, d):
        inputs = np.random.default_rng([9, d]).standard_normal((BLOCK + 40, d))
        far = np.full(d, 1e3)
        seeds = np.vstack([inputs[:6], far])
        with pytest.warns(UserWarning, match="empty"):
            expected, _ = kmeans2(inputs, seeds, minit="matrix")
        with pytest.warns(UserWarning, match="empty"):
            centers = features._lloyd(inputs, seeds)
        np.testing.assert_array_equal(centers[-1], far)
        np.testing.assert_array_equal(centers, expected)


def test_featurizer_rejects_inputs_whose_distances_would_overflow():
    """Lloyd's expanded distances -2 x.c + |x|^2 + |c|^2 once overflowed in
    numpy's add on these rows at 1e154, though they lie close together."""
    spread = 1e151 * np.random.default_rng(0).uniform(size=(50, 2))
    with pytest.raises(NonFiniteValueError, match="overflow"):
        fit_rbf_featurizer(1e154 + spread, 5)
    fmap = fit_rbf_featurizer(1e153 + spread, 5)
    assert np.all(np.isfinite(fmap.centers))


class TestMedianHeuristic:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 1001, 1200])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_pairwise_median(self, n, seed):
        """n rows give n (n - 1) / 2 pairs: odd for n = 2, 3, 7, even for
        n = 4, 8, none for n = 1; above 1000 rows the heuristic subsamples.
        Rounded columns have tied differences; a constant column gets 1.0."""
        rng = np.random.default_rng([seed, n])
        inputs = np.column_stack(
            [
                rng.standard_normal(n),
                np.round(rng.uniform(0.0, 3.0, n)),
                np.full(n, 2.5),
                rng.exponential(size=n),
            ]
        )
        scales = features.median_heuristic_lengthscales(inputs, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(
            scales, median_heuristic_oracle(inputs, np.random.default_rng(seed))
        )
        assert scales[2] == 1.0

    def test_one_dimensional_inputs_are_one_column(self):
        inputs = np.random.default_rng(6).standard_normal(50)
        scales = features.median_heuristic_lengthscales(inputs)
        assert scales.shape == (1,)
        np.testing.assert_array_equal(
            scales, median_heuristic_oracle(inputs[:, None], np.random.default_rng(0))
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_inputs_rejected(self, bad):
        inputs = np.random.default_rng(8).standard_normal((20, 3))
        inputs[11, 0] = bad
        with pytest.raises(NonFiniteValueError):
            features.median_heuristic_lengthscales(inputs)


@pytest.mark.parametrize(
    "call",
    [
        lambda inputs: evaluate(toy_feature_map(), inputs),
        lambda inputs: fit_rbf_featurizer(inputs, 2),
        features.median_heuristic_lengthscales,
    ],
    ids=["evaluate", "fit_rbf_featurizer", "median_heuristic"],
)
def test_three_dimensional_inputs_rejected(call):
    """`evaluate` once returned a (3, 1, 20) array for (3, 1, 1) inputs."""
    with pytest.raises(DimensionMismatchError, match=r"\(3, 1, 1\)"):
        call(np.zeros((3, 1, 1)))


def column_of(kind: str, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, m])
    return {
        "normal": lambda: rng.standard_normal(m),
        "rounded": lambda: np.round(rng.uniform(0.0, 3.0, m)),  # four values, tied gaps
        "tenths": lambda: np.round(rng.standard_normal(m), 1),  # many tied gaps
        "constant": lambda: np.full(m, -2.5),
        "cauchy": lambda: rng.standard_cauchy(m),
        "offset": lambda: 1e6 + 1e-9 * rng.standard_normal(m),  # a few ulps of 1e6
    }[kind]()


class TestMedianPairGap:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["normal", "rounded", "tenths", "constant", "cauchy", "offset"]),
        m=st.integers(2, 1200),
        seed=st.integers(0, 2**16),
    )
    @example(kind="normal", m=2, seed=0)  # one pair
    @example(kind="normal", m=4, seed=0)  # six pairs: the mean of two middle gaps
    @example(kind="cauchy", m=1200, seed=1)
    @example(kind="offset", m=1000, seed=2)
    @example(kind="constant", m=1000, seed=0)
    def test_bit_identical_to_median_of_pdist(self, kind, m, seed):
        column = column_of(kind, m, seed)
        got = features._median_pair_gap(column)
        expected = np.median(pdist(column[:, None], "cityblock"))
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_bracket_miss_widens_to_the_whole_triangle(self):
        """Clusters of 13, 85 and 3 points.  The strided sample takes every
        second value, and fewer than 48% of its gaps are at most the
        column's median gap, so that median lies below the first bracket."""
        column = np.concatenate(
            [np.linspace(0.0, 0.5, 13), 50.0 + np.linspace(0.0, 2.0, 85), [60.0, 60.05, 60.1]]
        )
        median = np.median(pdist(column[:, None], "cityblock"))
        sample = column[:: -(-column.size // features._BRACKET_SAMPLE)]
        share = np.mean(pdist(sample[:, None], "cityblock") <= median)
        assert share < 0.5 - features._BRACKET_MARGIN
        assert features._median_pair_gap(column) == median

    def test_band_cut_by_rounded_keys_is_rejected(self):
        """The bracket is [2.7, 5.3999999999999995].  The key 1.2 + 2.7
        rounds up to 3.9000000000000004, so the gap 3.9 - 1.2 = 2.7 falls
        left of the band while 6.6 - 3.9 = 2.6999999999999997 falls inside.
        The band's lower middle gap is then below a gap left of it: the
        check rejects it, and the median averages 2.7, not the smaller gap,
        with 3.6."""
        column = np.array([0.3, 1.2, 3.9, 6.6])
        assert features._median_pair_gap(column) == 3.1500000000000004

    @pytest.mark.parametrize(
        "column",
        [
            np.random.default_rng(0).choice([1.7e308, -1.7e308, 0.0, 5e-324, 1.0, 2.0], 40),
            np.concatenate([np.arange(30.0), [1.7e308, -1.7e308]]),
        ],
        ids=["median_overflows", "tail_overflows"],
    )
    def test_overflowing_gaps_are_inf_without_a_warning(self, column):
        """Gaps of values near +-1.7e308 overflow to +inf, as in `pdist`.
        They once raised numpy's overflow warning, which this suite turns
        into an error, where `pdist` is silent."""
        with np.errstate(over="ignore"):  # np.median's mean of two inf gaps
            expected = np.median(pdist(column[:, None], "cityblock"))
        assert features._median_pair_gap(column) == expected
        np.testing.assert_array_equal(features.median_heuristic_lengthscales(column), [expected])

    def test_heuristic_forms_no_pair_buffer(self):
        """The 2000 x 4 heuristic of the tabular-minibatch set-up peaked at
        4.0 MB with its 499 500-pair buffer; the band selection at 0.77 MB."""
        inputs = np.random.default_rng(3).uniform(size=(2000, 4))
        features.median_heuristic_lengthscales(inputs)  # warm numpy's caches
        tracemalloc.start()
        try:
            features.median_heuristic_lengthscales(inputs, rng=np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
