"""The training step runs its linear algebra in numpy only.

`variational` documents that its step path never calls into the BLAS that
scipy bundles, so two thread pools do not alternate within a step.  Only the
pivoted QR of `features.independent_rows`, for a measurement set with
dependent rows, reaches scipy.  This test keeps `variational` itself free of
scipy imports, and keeps `ssge` and `optimize`, the rest of the step path,
free of `scipy.linalg`.

The reason was measured: with `MarginalKl` taking R^{-1} from scipy's
`dtrtri` and the gradient solve from its `dpotrs`, training took 3.8x as
long for tabular-full RandA, 8.6x for tabular-minibatch RandA and 7.7x for
tabular-full FixedA (8, 8 and 6 alternating pairs on a 2-vCPU host; the
scipy variant lost every pair).

The featurizer of `features` draws its centers from the input rows and runs
no k-means, so no module of the package imports `scipy.cluster` either.  Nor
does any import `scipy.spatial`: `ssge` takes its bandwidth from its
kernel's own distances.  Importing `scipy.spatial` also loads
`scipy.sparse`, and it added about 9 MB to the benchmark's peak RSS.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fvi_bench"
VARIATIONAL = PACKAGE / "variational.py"


def imported_modules(tree: ast.AST) -> list[str]:
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # `from a import b` may import the module a.b: list both names.
            modules.append(node.module or "")
            modules.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_variational_imports_nothing_from_scipy():
    tree = ast.parse(VARIATIONAL.read_text(encoding="utf-8"))
    modules = imported_modules(tree)
    assert "numpy" in modules
    assert [name for name in modules if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("name", ["ssge.py", "optimize.py"])
def test_step_path_imports_nothing_from_scipy_linalg(name):
    modules = imported_modules(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
    assert "numpy" in modules
    assert [module for module in modules if module.split(".")[:2] == ["scipy", "linalg"]] == []


def package_imports_under(subpackage: str) -> dict[str, list[str]]:
    """Each package module's imports of ``scipy.<subpackage>`` modules."""
    imports = {
        path.name: imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {"features.py", "ssge.py"} <= imports.keys()
    return {
        name: [module for module in modules if module.split(".")[:2] == ["scipy", subpackage]]
        for name, modules in imports.items()
    }


def test_no_module_imports_scipy_cluster():
    imports = package_imports_under("cluster")
    assert imports == {name: [] for name in imports}


def test_no_module_imports_scipy_spatial():
    imports = package_imports_under("spatial")
    assert imports == {name: [] for name in imports}


def test_importing_the_package_loads_no_scipy_spatial():
    names = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    script = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('fvi_bench.' + name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert "ssge" in names
    assert result.stdout.strip() == "[]"
