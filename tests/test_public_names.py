"""Every public name that `src/fvi_bench` defines is used by the package or
its benchmark.

A public module-level function or class, or a public method of such a class,
must occur as a whole word at least twice across `src/` and `perfbench/`
(its tests excluded): once where it is defined and at least once more where
it is used.  A name that only tests use is dead code in the package, unless
`TEST_ONLY` lists it with the reason it stays; such a name must still occur
in another test file.
"""

import ast
import re
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parents[1]
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

TEST_ONLY = {
    "finite_diff_check": "test oracle: central differences against every analytic gradient",
    "log_density": "test oracle: the Gaussian density that KL and sampling tests compare with",
    "injectivity_certificate": "its caller is the planned ill-posedness gate on sup_A KL",
    "summary": "TrainTrace.summary, the run summary the planned results CLI prints",
}


def public_names() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "fvi_bench").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body if isinstance(item, DEFINITIONS))
    return {name for name in names if not name.startswith("_")}


def source_text(*folders: str, tests: bool) -> str:
    return "\n".join(
        path.read_text(encoding="utf-8")
        for folder in folders
        for path in (ROOT / folder).rglob("*.py")
        if ("tests" in path.relative_to(ROOT).parts) == tests and path != HERE
    )


def test_every_public_name_is_used_beyond_its_definition():
    text = source_text("src", "perfbench", tests=False)
    unused = [name for name in sorted(public_names()) if len(re.findall(rf"\b{name}\b", text)) < 2]
    assert unused == sorted(TEST_ONLY)
    tests = source_text("tests", tests=True)
    assert [name for name in unused if not re.search(rf"\b{name}\b", tests)] == []
