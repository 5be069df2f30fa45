"""One place that reads the family's layout of a variational scale.

A state's scale S is a lower-triangular factor L (full family) or a vector of
scales, S = diag(scales) (ffg).  Only `VariationalState` reads which: every
term reaches S through the state's private products, x S (`_times_scale`),
the part of a^T b that S reads (`_scale_part`) and the part of a k x k matrix
that S reads (`_read_part`), and through `pack_grad`.  So the ELL, the
weight-space KL, the marginal KL and the SSGE gradient are each written once
for both families, all in `variational`; `ssge` is the score estimator alone
and imports nothing of `variational`.
"""

from pathlib import Path

import pytest

from conftest import callers_of, imported_modules, readers_of

SSGE = Path(__file__).resolve().parents[1] / "src" / "fvi_bench" / "ssge.py"
PRIVATE_PRODUCTS = ["_times_scale", "_scale_part", "_read_part"]


@pytest.mark.parametrize("name", ["is_full", "family", "Family"])
def test_only_the_state_reads_the_family(name):
    """`exact_kl` and the full-batch ELL's choice of Phi^T Phi or its
    diagonal once read `is_full` themselves, and before them the ELL's two
    scale branches, the marginal KL's two and the SSGE gradient."""
    state = "variational.VariationalState"
    assert {scope for scope in readers_of(name) if not scope.startswith(state)} == set()


@pytest.mark.parametrize("name", ["is_full", "family", "Family", "scale"])
def test_ssge_reads_no_family(name):
    assert {scope for scope in readers_of(name) if scope.split(".")[0] == "ssge"} == set()


@pytest.mark.parametrize("name", PRIVATE_PRODUCTS)
def test_only_variational_calls_the_state_products(name):
    """The SSGE gradient once called two of them from `ssge`."""
    callers = callers_of(name)
    assert callers
    assert {scope.split(".")[0] for scope in callers} == {"variational"}


def imports_variational(source: str) -> bool:
    modules = imported_modules(source, "fvi_bench")
    return any(module.split(".")[:2] == ["fvi_bench", "variational"] for module in modules)


def test_ssge_imports_nothing_of_variational():
    """`ssge` once imported `MarginalKl` and `VariationalState` under
    ``TYPE_CHECKING``, a cycle for the annotations of the SSGE gradient."""
    assert not imports_variational(SSGE.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "source",
    [
        "from .variational import VariationalState",
        "from . import variational",
        "from fvi_bench import variational",
        "import fvi_bench.variational",
        "if TYPE_CHECKING:\n    from .variational import MarginalKl",
    ],
    ids=["relative", "relative_module", "absolute_module", "import", "type_checking"],
)
def test_each_form_of_import_of_variational_is_caught(source):
    assert imports_variational(source)


@pytest.mark.parametrize(
    "source",
    ["from . import features", "from .features import variational", "import variational"],
    ids=["sibling", "name_in_a_sibling", "top_level_namesake"],
)
def test_other_imports_are_not_caught(source):
    assert not imports_variational(source)
