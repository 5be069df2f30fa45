"""The benchmark reads the package, never the other way round.

No module under `src/` or `tests/` may import `perfbench`: the package must
run without its benchmark, and these tests check the package, not the
benchmark (which has its own tests under `perfbench/tests`).
"""

from pathlib import Path

import pytest

from conftest import imported_modules

ROOT = Path(__file__).resolve().parents[1]


def imports_the_benchmark(source: str) -> bool:
    return any(name.split(".")[0] == "perfbench" for name in imported_modules(source))


def test_no_module_of_the_package_or_its_tests_imports_the_benchmark():
    importers = sorted(
        str(path.relative_to(ROOT))
        for folder in ("src", "tests")
        for path in (ROOT / folder).rglob("*.py")
        if imports_the_benchmark(path.read_text(encoding="utf-8"))
    )
    assert importers == []


@pytest.mark.parametrize(
    "source",
    [
        "import perfbench",
        "import numpy, perfbench.oracle as oracle",
        "from perfbench import run",
        "def f():\n    from perfbench.workloads import build",
    ],
    ids=["module", "submodule", "from_module", "inside_a_function"],
)
def test_each_form_of_import_is_caught(source):
    assert imports_the_benchmark(source)


@pytest.mark.parametrize(
    "source",
    ["import perfbenchmark", "from . import perfbench", "perfbench = 'import perfbench'"],
    ids=["longer_name", "relative", "not_an_import"],
)
def test_other_names_are_not_caught(source):
    assert not imports_the_benchmark(source)
