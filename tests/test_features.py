"""Tests for RBF feature maps, the featurizer and the rank of feature rows."""

import math
import statistics

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from fvi_bench.errors import DimensionMismatchError, NonFiniteValueError
from fvi_bench.features import (
    _BLOCK_ROWS,
    RbfFeatureMap,
    evaluate,
    fit_rbf_featurizer,
    independent_rows,
    squared_distances,
)


def toy_feature_map() -> RbfFeatureMap:
    """20 linearly spaced centers in [-2, 2], shared lengthscale 0.2."""
    return RbfFeatureMap(np.linspace(-2.0, 2.0, 20).reshape(-1, 1), np.array([0.2]))


def lengthscale_oracle(inputs):
    """Each column's population standard deviation by `statistics.pstdev`,
    which does not use numpy; 1.0 where it is 0."""
    columns = np.asarray(inputs, dtype=float).reshape(np.shape(inputs)[0], -1).T
    return np.array([statistics.pstdev(column) or 1.0 for column in columns.tolist()])


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

    @pytest.mark.parametrize(
        "n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
    )
    def test_matches_direct_formula(self, n):
        """Around the block size: the per-entry formula, and bit for bit the
        one-buffer expression over all rows at once."""
        rng = np.random.default_rng(2)
        fmap = RbfFeatureMap(rng.standard_normal((6, 2)), rng.uniform(0.3, 2.0, 2))
        points = rng.standard_normal((n, 2))
        direct = np.empty((n, 6))
        for i, x in enumerate(points):
            for j, c in enumerate(fmap.centers):
                direct[i, j] = math.exp(-0.5 * float(np.sum(((x - c) / fmap.lengthscales) ** 2)))
        out = evaluate(fmap, points)
        np.testing.assert_allclose(out, direct, rtol=1e-12)
        ell = fmap.lengthscales
        one_buffer = np.exp(-0.5 * squared_distances(points / ell, fmap.centers / ell))
        np.testing.assert_array_equal(out, one_buffer)

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


# (n, d, k): fewer centers than rows, as many, more (clipped), one row, and
# more than a thousand rows.
DRAW_SHAPES = [(60, 1, 12), (40, 1, 40), (200, 3, 25), (1200, 2, 15), (9, 4, 20), (1, 3, 5)]
# DRAW_SHAPES of normal rows, and rounded normal rows: repeated rows, with
# both 0.0 and -0.0 among their entries.
CHOICE_SHAPES = [pytest.param(*shape, False, id="-".join(map(str, shape))) for shape in DRAW_SHAPES]
CHOICE_SHAPES.append(pytest.param(300, 2, 20, True, id="300-2-20-rounded"))


def distinct_rows_oracle(inputs):
    """The distinct rows sorted by their bytes, -0.0 read as 0.0: a Python
    set and `sorted`, without numpy's `unique`."""
    keys = sorted({(row + 0.0).tobytes() for row in inputs})
    return np.array([np.frombuffer(key) for key in keys]).reshape(-1, inputs.shape[1])


class TestFeaturizer:
    def test_centers_and_lengthscales_shapes(self):
        rng = np.random.default_rng(7)
        inputs = rng.standard_normal((200, 3))
        fmap = fit_rbf_featurizer(inputs, num_centers=10, rng=np.random.default_rng(0))
        assert fmap.centers.shape == (10, 3)
        assert np.all(fmap.lengthscales > 0.0)

    @pytest.mark.parametrize("rows", ["distinct", "repeated", "rounded", "signed_zero"])
    @pytest.mark.parametrize("n, d, k", DRAW_SHAPES)
    def test_centers_are_distinct_input_rows(self, rows, n, d, k):
        """Each center is one of the input rows, and no two are equal, also
        where rows repeat ("signed_zero" repeats a row as 0.0 and -0.0)."""
        rng = np.random.default_rng([n, d])
        inputs = {
            "distinct": lambda: rng.standard_normal((n, d)),
            "repeated": lambda: rng.permutation(np.repeat(rng.standard_normal((n, d)), 3, axis=0)),
            "rounded": lambda: np.round(rng.standard_normal((n, d))),
            "signed_zero": lambda: np.vstack([np.zeros((n, d)), -np.zeros((n, d))]),
        }[rows]()
        distinct = np.unique(inputs, axis=0).shape[0]
        fmap = fit_rbf_featurizer(inputs, num_centers=k, rng=np.random.default_rng(0))
        assert fmap.num_features == min(k, distinct)
        is_row = np.all(fmap.centers[:, None, :] == inputs[None, :, :], axis=2)
        assert np.all(np.any(is_row, axis=1))
        assert np.unique(fmap.centers, axis=0).shape[0] == fmap.num_features

    def test_every_distinct_row_is_equally_likely(self):
        """A row repeated 20 times is drawn as often as a row given once:
        the draw is uniform over distinct rows, not over rows."""
        distinct = np.arange(5.0)[:, None]
        inputs = np.vstack([np.repeat(distinct[:1], 20, axis=0), distinct[1:]])
        rng = np.random.default_rng(11)
        counts = np.zeros(5)
        for _ in range(2000):
            centers = fit_rbf_featurizer(inputs, num_centers=2, rng=rng).centers
            counts += np.any(centers == distinct.T, axis=0)
        # 800 expected per row; the binomial standard deviation is about 22.
        np.testing.assert_allclose(counts, 800.0, atol=110.0)

    def test_same_rng_gives_the_same_map(self):
        inputs = np.random.default_rng(12).standard_normal((200, 3))
        first, second = (
            fit_rbf_featurizer(inputs, num_centers=25, rng=np.random.default_rng(3))
            for _ in range(2)
        )
        np.testing.assert_array_equal(first.centers, second.centers)
        np.testing.assert_array_equal(first.lengthscales, second.lengthscales)
        np.testing.assert_array_equal(
            fit_rbf_featurizer(inputs, 25).centers, fit_rbf_featurizer(inputs, 25).centers
        )
        other = fit_rbf_featurizer(inputs, num_centers=25, rng=np.random.default_rng(4))
        assert not np.array_equal(first.centers, other.centers)

    @pytest.mark.parametrize("n, d, k, rounded", CHOICE_SHAPES)
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_centers_are_the_choice_draw_and_lengthscales_the_deviations(
        self, n, d, k, rounded, seed
    ):
        """The same centers, bit for bit, as `choice` on the distinct rows in
        the order of their bytes (-0.0 read as 0.0), and each column's
        population standard deviation as its lengthscale."""
        inputs = np.random.default_rng([seed, n, d]).standard_normal((n, d))
        if rounded:
            inputs = np.round(inputs)
            zeros = inputs[inputs == 0.0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        distinct = distinct_rows_oracle(inputs)
        assert rounded == (distinct.shape[0] < n)
        centers = np.random.default_rng(seed).choice(
            distinct, min(k, distinct.shape[0]), replace=False
        )
        fmap = fit_rbf_featurizer(inputs, num_centers=k, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(fmap.centers, centers)
        np.testing.assert_allclose(fmap.lengthscales, lengthscale_oracle(inputs), rtol=1e-12)

    def test_fewer_distinct_rows_than_centers(self):
        distinct = np.random.default_rng(4).standard_normal((5, 2))
        inputs = np.repeat(distinct, 10, axis=0)
        fmap = fit_rbf_featurizer(inputs, num_centers=8, rng=np.random.default_rng(1))
        # One center per distinct row, as the min(num_centers, distinct rows) clip does.
        assert fmap.num_features == 5
        np.testing.assert_array_equal(np.unique(fmap.centers, axis=0), np.unique(distinct, axis=0))
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

    def test_inputs_far_apart_and_large_inputs_fit(self):
        """Values near +-1.7e308, whose gaps once overflowed to an infinite
        median-heuristic lengthscale, and rows near 1e154, whose squared
        distances once overflowed in k-means, fit with finite lengthscales,
        centers and features."""
        far_apart = np.random.default_rng(0).choice([1.7e308, -1.7e308, 0.0, 5e-324, 1.0, 2.0], 40)
        spread = 1e151 * np.random.default_rng(0).uniform(size=(50, 2))
        for inputs in (far_apart, np.array([1e154, -1e154, 0.0, 1.0]), 1e154 + spread):
            fmap = fit_rbf_featurizer(inputs, num_centers=3)
            np.testing.assert_allclose(fmap.lengthscales, lengthscale_oracle(inputs), rtol=1e-12)
            assert np.all(np.isfinite(fmap.centers))
            assert np.all(np.isfinite(fmap(inputs)))

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
        scales = fit_rbf_featurizer(inputs, num_centers=5).lengthscales
        assert scales[1] == 1.0
        np.testing.assert_allclose(scales[0], lengthscale_oracle(inputs[:, :1]), rtol=1e-12)

    def test_one_dimensional_inputs_are_one_column(self):
        inputs = np.linspace(0.0, 1.0, 50)
        fmap = fit_rbf_featurizer(inputs, num_centers=10, rng=np.random.default_rng(2))
        column = fit_rbf_featurizer(inputs[:, None], num_centers=10, rng=np.random.default_rng(2))
        assert fmap.centers.shape == (10, 1)
        np.testing.assert_array_equal(fmap.centers, column.centers)
        np.testing.assert_array_equal(fmap.lengthscales, column.lengthscales)
        np.testing.assert_array_equal(fmap(inputs), column(inputs[:, None]))


class TestLengthscales:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 1001, 1200])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_population_deviation_of_each_column(self, n, seed):
        """Normal, rounded (tied), constant and exponential columns; one row
        and a constant column have deviation 0 and get 1.0."""
        rng = np.random.default_rng([seed, n])
        inputs = np.column_stack(
            [
                rng.standard_normal(n),
                np.round(rng.uniform(0.0, 3.0, n)),
                np.full(n, 2.5),
                rng.exponential(size=n),
            ]
        )
        scales = fit_rbf_featurizer(inputs, 5, rng=np.random.default_rng(seed)).lengthscales
        np.testing.assert_allclose(scales, lengthscale_oracle(inputs), rtol=1e-12)
        assert scales[2] == 1.0

    def test_one_dimensional_inputs_are_one_column(self):
        inputs = np.random.default_rng(6).standard_normal(50)
        scales = fit_rbf_featurizer(inputs, num_centers=5).lengthscales
        assert scales.shape == (1,)
        np.testing.assert_allclose(scales, lengthscale_oracle(inputs[:, None]), rtol=1e-12)

    def test_independent_of_the_rng(self):
        """Two clusters of 1000 rows in eight dimensions: the median
        heuristic subsampled such inputs with the rng and moved by up to
        1.6x between rngs on one dimension."""
        rng = np.random.default_rng(13)
        means = rng.uniform(size=(2, 8))
        inputs = means[rng.integers(0, 2, 2000)] + 0.08 * rng.standard_normal((2000, 8))
        first, second = (
            fit_rbf_featurizer(inputs, 20, rng=np.random.default_rng(seed)).lengthscales
            for seed in (0, 1)
        )
        np.testing.assert_array_equal(first, second)
        np.testing.assert_allclose(first, lengthscale_oracle(inputs), rtol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda inputs: evaluate(toy_feature_map(), inputs),
        lambda inputs: fit_rbf_featurizer(inputs, 2),
    ],
    ids=["evaluate", "fit_rbf_featurizer"],
)
def test_three_dimensional_inputs_rejected(call):
    """`evaluate` once returned a (3, 1, 20) array for (3, 1, 1) inputs."""
    with pytest.raises(DimensionMismatchError, match=r"\(3, 1, 1\)"):
        call(np.zeros((3, 1, 1)))
