"""One reading of outside row arrays, and owned copies of the rows a value keeps.

`features._as_rows` is the one place that turns an array a caller passes into
C-ordered (n, d) rows, whatever its layout: 1-D is one column, more than two
dimensions is a `DimensionMismatchError`.  `features._owned_rows` adds the
checks of rows a value keeps (at least one row and one column, all finite)
and returns a read-only copy, so a cache keyed on the value cannot go stale
when the caller writes into its own array.  A value that holds arrays
compares and hashes by identity, so it can be such a key.
"""

import dataclasses

import numpy as np
import pytest

from conftest import callers_of, standard_gaussian
from fvi_bench import blr, features, gaussian, optimize, ssge, variational
from fvi_bench.blr import BlrModel, Dataset
from fvi_bench.errors import DimensionMismatchError, NonFiniteValueError
from fvi_bench.features import RbfFeatureMap, fit_rbf_featurizer
from fvi_bench.ssge import fit_score
from fvi_bench.variational import (
    Family,
    FixedA,
    MeasurementPolicy,
    MeasurementSet,
    Objective,
    ObjectiveEval,
    RandA,
    Ssge,
    VariationalState,
    marginal_kl,
)

ROW_READERS = {
    "Dataset": lambda rows: Dataset(rows, np.zeros(rows.shape[0])),
    "MeasurementSet": MeasurementSet,
    "RbfFeatureMap": lambda rows: RbfFeatureMap(rows, np.ones(rows.shape[-1])),
    "fit_rbf_featurizer": lambda rows: fit_rbf_featurizer(rows, 2),
}


def _kept_arrays(value) -> list[np.ndarray]:
    return [
        getattr(value, field.name)
        for field in dataclasses.fields(value)
        if isinstance(getattr(value, field.name), np.ndarray)
    ]


@pytest.mark.parametrize("reader", ROW_READERS.values(), ids=ROW_READERS.keys())
class TestRowChecks:
    def test_three_dimensional_rows_rejected(self, reader):
        with pytest.raises(DimensionMismatchError, match=r"\(3, 1, 1\)"):
            reader(np.zeros((3, 1, 1)))

    def test_nan_rejected(self, reader):
        with pytest.raises(NonFiniteValueError):
            reader(np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)], ids=["no_rows", "no_columns"])
    def test_empty_rows_rejected(self, reader, shape):
        with pytest.raises(ValueError, match="empty"):
            reader(np.zeros(shape))

    def test_fortran_ordered_rows_give_the_same_value(self, reader):
        """Each reader once kept the caller's Fortran order (the featurizer's
        lengthscales then differed in their last bits), so every result
        computed from the rows depended on how the caller laid out equal data."""
        rows = np.random.default_rng(0).uniform(size=(100, 8))
        kept = _kept_arrays(reader(rows))
        for c_ordered, fortran in zip(kept, _kept_arrays(reader(np.asfortranarray(rows)))):
            np.testing.assert_array_equal(fortran, c_ordered)
            assert fortran.flags.c_contiguous


def test_fortran_ordered_inputs_give_the_same_features_and_full_batch_ell():
    """A Fortran-ordered copy of these inputs once changed the features by
    up to 3.6e-15, and through them the full-batch ELL gradient by 1e-13."""
    rng = np.random.default_rng(1)
    rows = rng.uniform(size=(100, 8))
    fortran = np.asfortranarray(rows)
    model = BlrModel(fit_rbf_featurizer(rows, 20, rng), 0.1)
    np.testing.assert_array_equal(
        features.evaluate(model.feature_map, fortran), features.evaluate(model.feature_map, rows)
    )
    targets = rng.standard_normal(100)
    state = VariationalState(Family.FULL, rng.standard_normal(20), np.eye(20))
    ell, grad = variational.expected_log_likelihood(state, model, Dataset(rows, targets))
    fortran_ell, fortran_grad = variational.expected_log_likelihood(
        state, model, Dataset(fortran, targets)
    )
    assert fortran_ell == ell
    np.testing.assert_array_equal(fortran_grad, grad)


class TestOneDimensionalIsOneColumn:
    def test_measurement_points(self):
        """A 10-point set once read as one point of dimension 10."""
        points = np.linspace(-2.0, 2.0, 10)
        assert MeasurementSet(points).points.shape == (10, 1)

    def test_centers(self):
        """Three centres once read as one 3-D centre."""
        fmap = RbfFeatureMap(np.linspace(-2.0, 2.0, 3), [1.0])
        assert fmap.centers.shape == (3, 1)
        with pytest.raises(DimensionMismatchError, match="lengthscales must have length 1"):
            RbfFeatureMap(np.linspace(-2.0, 2.0, 3), [1.0] * 3)

    def test_score_samples_and_points(self):
        samples = np.random.default_rng(0).standard_normal(50)
        estimate = fit_score(samples)
        column = fit_score(samples[:, None])
        np.testing.assert_array_equal(estimate.basis_samples, samples[:, None])
        np.testing.assert_array_equal(estimate.sample_scores, column.sample_scores)
        points = np.linspace(-1.0, 1.0, 4)
        np.testing.assert_array_equal(estimate(points), column(points[:, None]))


# `Dataset` and `RbfFeatureMap` have the same test beside their other tests.
STORED_ROWS = {
    "MeasurementSet.points": (lambda array: MeasurementSet(array).points, (3, 2)),
    "MeasurementPolicy.box": (lambda array: MeasurementPolicy(4, 0.5, array).box, (2, 2)),
}


@pytest.mark.parametrize("store, shape", STORED_ROWS.values(), ids=STORED_ROWS.keys())
def test_stored_rows_are_read_only_copies(store, shape):
    array = np.arange(float(np.prod(shape))).reshape(shape)
    stored = store(array)
    assert not np.shares_memory(stored, array)
    with pytest.raises(ValueError, match="read-only"):
        stored[0, 0] = 99.0
    array[0, 0] = 99.0  # the caller's array stays writable
    assert stored[0, 0] == 0.0


def test_fixed_a_kl_follows_its_set_after_the_caller_writes():
    """The objectives on one FixedA kind share one prepared `MarginalKl`.
    It once kept the rows of the caller's array as they were when the first
    objective was built: here a second objective reported 1.6447 where
    `marginal_kl` at the kind's set gave 1.7684."""
    model = BlrModel(RbfFeatureMap(np.linspace(-2.0, 2.0, 5)[:, None], [0.8]), 0.1)
    rng = np.random.default_rng(1)
    data = Dataset(rng.uniform(-2.0, 2.0, 30), rng.standard_normal(30))
    points = np.array([[-1.5], [0.1], [1.3]])
    kind = FixedA(MeasurementSet(points))
    Objective(kind, model, data)
    points += 0.4
    state = VariationalState(Family.FFG, rng.standard_normal(5), np.exp(rng.standard_normal(5)))
    reported = Objective(kind, model, data).value_and_grad(state, rng).kl_term
    assert reported == marginal_kl(state, model, kind.measurement_set)[0]
    assert kind.measurement_set.points[0, 0] == -1.5


def test_feature_map_of_three_dimensions_rejected():
    model = BlrModel(lambda inputs: np.zeros((len(inputs), 2, 1)), 0.1, num_features=2)
    with pytest.raises(DimensionMismatchError, match=r"\(3, 2, 1\)"):
        model.features(np.zeros((3, 1)))


def test_only_the_box_and_the_rank_test_call_atleast_2d():
    """Row arrays go through `_as_rows`; a (d, 2) box and a feature matrix
    are not rows of inputs."""
    assert callers_of("atleast_2d") == {
        "variational.MeasurementPolicy.__post_init__",
        "features.independent_rows",
    }


def _fixed_a_pair():
    kind = FixedA(MeasurementSet(np.zeros((2, 1))))
    return kind, FixedA(MeasurementSet(kind.measurement_set.points))


def _policy():
    return MeasurementPolicy(4, 0.5, np.array([[-1.0, 1.0]]))


def _likelihood_stats():
    model = BlrModel(lambda rows: rows, noise_variance=1.0, num_features=2)
    return blr._full_batch_stats(model, Dataset(np.eye(2), np.ones(2)))


# Two instances of equal content of each value type that holds arrays.
ARRAY_VALUES = {
    "Dataset": lambda: Dataset(np.zeros((2, 1)), np.zeros(2)),
    "MeasurementSet": lambda: MeasurementSet(np.zeros((2, 1))),
    "MeasurementPolicy": _policy,
    "FixedA": _fixed_a_pair,
    "RandA": lambda: RandA(_policy()),
    "Ssge": lambda: Ssge(_policy()),
    "VariationalState": lambda: VariationalState.prior_state(Family.FULL, 2),
    "GaussianDist": lambda: standard_gaussian(2),
    "CholeskyFactor": lambda: gaussian.CholeskyFactor(np.eye(2)),
    "RbfFeatureMap": lambda: RbfFeatureMap(np.zeros((2, 1)), [1.0]),
    "ScoreEstimate": lambda: fit_score(np.linspace(-1.0, 1.0, 10)),
    "ObjectiveEval": lambda: ObjectiveEval(0.0, 0.0, 0.0, np.zeros(2)),
    "_LikelihoodStats": _likelihood_stats,
}


@pytest.mark.parametrize("make", ARRAY_VALUES.values(), ids=ARRAY_VALUES.keys())
def test_values_that_hold_arrays_compare_and_hash_by_identity(make):
    """Each once compared its arrays: == raised numpy's "truth value of an
    array is ambiguous" (or, for `FixedA`, ``FixedA(ms) ==
    FixedA(MeasurementSet(ms.points))``), and hash raised TypeError."""
    pair = make()
    a, b = pair if isinstance(pair, tuple) else (pair, make())
    assert a == a and not a == b and a != b
    assert {a: "a", b: "b"}[a] == "a"


def test_only_dataclasses_without_arrays_compare_by_value():
    by_value = {
        name
        for module in (blr, features, gaussian, optimize, ssge, variational)
        for name, value in vars(module).items()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
        and "__eq__" in vars(value)  # eq=False leaves object's identity comparison
    }
    assert by_value == {"AdamConfig", "Exact", "SsgeConfig", "TraceRecord", "TrainTrace"}
