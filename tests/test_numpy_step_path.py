"""The training step runs its linear algebra in numpy only.

`variational` documents that its step path never calls into the BLAS that
scipy bundles, so two thread pools do not alternate within a step.  Only the
pivoted QR of `features.independent_rows`, for a measurement set with
dependent rows, reaches scipy.  This test keeps `variational` itself free of
scipy imports.
"""

import ast
from pathlib import Path

VARIATIONAL = Path(__file__).resolve().parents[1] / "src" / "fvi_bench" / "variational.py"


def imported_modules(tree: ast.AST) -> list[str]:
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module or "")
    return modules


def test_variational_imports_nothing_from_scipy():
    tree = ast.parse(VARIATIONAL.read_text(encoding="utf-8"))
    modules = imported_modules(tree)
    assert "numpy" in modules
    assert [name for name in modules if name.split(".")[0] == "scipy"] == []
