"""Tests for RBF feature maps, injectivity certificates, and feature CSV IO."""

import math
import warnings

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2
from scipy.spatial.distance import cdist

from fvi_bench import features
from fvi_bench.errors import (
    DimensionMismatchError,
    NonFiniteValueError,
    ParseError,
    UnknownInputError,
)
from fvi_bench.features import (
    PrecomputedFeatureMap,
    RbfFeatureMap,
    evaluate,
    fit_rbf_featurizer,
    independent_rows,
    injectivity_certificate,
    load_features,
    save_features,
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
    def test_toy_map_at_own_centers_is_full_rank(self):
        fmap = toy_feature_map()
        cert = injectivity_certificate(fmap, fmap.centers)
        assert cert.certified_rank == 20
        assert cert.witness_subset is not None and len(cert.witness_subset) == 20
        # SVD oracle: the witness rows really are linearly independent.
        witness_feats = evaluate(fmap, fmap.centers[cert.witness_subset])
        sv = np.linalg.svd(witness_feats, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]

    def test_duplicate_points_rank_one(self):
        fmap = RbfFeatureMap(np.array([[0.0], [1.0]]), np.array([1.0]))
        cert = injectivity_certificate(fmap, np.array([[0.5], [0.5]]))
        assert cert.certified_rank == 1
        assert cert.witness_subset is None

    def test_fewer_points_than_features(self):
        fmap = RbfFeatureMap(np.linspace(0, 1, 5).reshape(-1, 1), np.array([0.3]))
        cert = injectivity_certificate(fmap, np.array([[0.1], [0.9]]))
        assert cert.certified_rank == 2
        assert cert.witness_subset is None

    def test_witness_full_rank_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            fmap = RbfFeatureMap(
                np.sort(rng.uniform(-2, 2, k)).reshape(-1, 1), np.array([0.4])
            )
            candidates = rng.uniform(-2.5, 2.5, (3 * k, 1))
            cert = injectivity_certificate(fmap, candidates)
            if cert.witness_subset is None:
                continue
            sub = evaluate(fmap, candidates[cert.witness_subset])
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


class TestFeatureCsv:
    def test_identity_round(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("1,0\n0,1\n")
        stub = load_features(path)
        np.testing.assert_array_equal(stub.values, np.eye(2))
        assert stub.num_features == 2

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("1,nan\n0,1\n")
        with pytest.raises(NonFiniteValueError):
            load_features(path)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("# header\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as err:
            load_features(path)
        assert err.value.row == 3

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        values, inputs = rng.standard_normal((8, 3)), rng.standard_normal((8, 2))
        original = PrecomputedFeatureMap(inputs, values)
        path = tmp_path / "feat.csv"
        save_features(original, path)
        loaded = load_features(path)
        np.testing.assert_array_equal(loaded.values, original.values)
        np.testing.assert_array_equal(loaded.inputs, original.inputs)
        np.testing.assert_array_equal(loaded(original.inputs), original.values)

    def test_stub_rejects_unknown_rows(self, tmp_path):
        rng = np.random.default_rng(6)
        values, inputs = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        original = PrecomputedFeatureMap(inputs, values)
        path = tmp_path / "feat.csv"
        save_features(original, path)
        stub = load_features(path)
        with pytest.raises(UnknownInputError):
            stub(np.array([[100.0, 100.0]]))

    def test_table_with_unequal_row_counts_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PrecomputedFeatureMap(np.zeros((3, 1)), np.ones((2, 4)))

    def test_one_dimensional_inputs_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PrecomputedFeatureMap(np.arange(3.0), np.ones((3, 4)))

    def test_integer_table_matches_float_query(self):
        table = PrecomputedFeatureMap(np.array([[0], [1]]), np.eye(2))
        np.testing.assert_array_equal(table(np.array([[1]])), [[0.0, 1.0]])
        np.testing.assert_array_equal(table(np.array([[0.0], [1.0]])), np.eye(2))

    def test_signed_zeros_match_each_other(self):
        table = PrecomputedFeatureMap(np.array([[0.0], [1.0]]), np.eye(2))
        np.testing.assert_array_equal(table(np.array([[-0.0]])), [[1.0, 0.0]])
        table = PrecomputedFeatureMap(np.array([[-0.0], [1.0]]), np.eye(2))
        np.testing.assert_array_equal(table(np.array([[0.0]])), [[1.0, 0.0]])


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

    def test_no_centers_rejected(self):
        with pytest.raises(ValueError):
            fit_rbf_featurizer(np.zeros((3, 1)), num_centers=0)

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
