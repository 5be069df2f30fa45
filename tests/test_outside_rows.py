"""One reading of outside row arrays, and owned copies of the rows a value keeps.

`features._as_rows` is the one place that turns an array a caller passes into
(n, d) rows: 1-D is one column, more than two dimensions is a
`DimensionMismatchError`.  `features._owned_rows` adds the checks of rows a
value keeps (at least one row and one column, all finite) and returns a
read-only copy, so a cache keyed on the value cannot go stale when the
caller writes into its own array.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from fvi_bench import features
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
    VariationalState,
    marginal_kl,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fvi_bench"

ROW_READERS = {
    "Dataset": lambda rows: Dataset(rows, np.zeros(rows.shape[0])),
    "MeasurementSet": MeasurementSet,
    "RbfFeatureMap": lambda rows: RbfFeatureMap(rows, np.ones(rows.shape[-1])),
    "fit_rbf_featurizer": lambda rows: fit_rbf_featurizer(rows, 2),
    "median_heuristic_lengthscales": features.median_heuristic_lengthscales,
}


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


def atleast_2d_callers() -> set[str]:
    """'module.qualname' of each function in `src/` that calls np.atleast_2d."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "atleast_2d"
            ):
                callers.add(scope)
            visit(child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return callers


def test_only_the_box_and_the_rank_test_call_atleast_2d():
    """Row arrays go through `_as_rows`; a (d, 2) box and a feature matrix
    are not rows of inputs."""
    assert atleast_2d_callers() == {
        "variational.MeasurementPolicy.__post_init__",
        "features.independent_rows",
    }
