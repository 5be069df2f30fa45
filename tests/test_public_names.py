"""Every public name that `src/fvi_bench` defines is used by the package or
its benchmark.

A public module-level function or class, or a public method of such a class,
must be referenced at least once across `src/` and `perfbench/` (its tests
excluded): as a name, an attribute or an imported name.  A docstring or a
comment that names it is not a use.  A name that only tests use is dead code
in the package, unless `TEST_ONLY` lists it with the reason it stays; such a
name must still be referenced in a test file.

Likewise every annotated field of a class in `src/fvi_bench` must be read
as an attribute somewhere in `src/`, `perfbench/` or their tests: a field
that is only ever written is dead state.
"""

import ast
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parents[1]
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

TEST_ONLY = {}


def public_names() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "fvi_bench").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body if isinstance(item, DEFINITIONS))
    return {name for name in names if not name.startswith("_")}


def class_fields() -> set[tuple[str, str]]:
    """(class, field) for every annotated field of a class in `src/fvi_bench`."""
    fields = set()
    for path in (ROOT / "src" / "fvi_bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                fields.update(
                    (node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
    return fields


def attributes_read(*folders: str) -> set[str]:
    """Attribute names loaded anywhere in the folders' Python files, this
    one excepted.  A field counts as read when any attribute of its name is."""
    return {
        node.attr
        for folder in folders
        for path in (ROOT / folder).rglob("*.py")
        if path != HERE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def referenced_names(*folders: str, tests: bool) -> set[str]:
    """Names read as a variable, an attribute or an import in the folders'
    Python files, inside or outside their tests."""
    names = set()
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            if ("tests" in path.relative_to(ROOT).parts) != tests or path == HERE:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_public_name_is_used_beyond_its_definition():
    unused = sorted(public_names() - referenced_names("src", "perfbench", tests=False))
    assert unused == sorted(TEST_ONLY)
    assert [name for name in unused if name not in referenced_names("tests", tests=True)] == []


def test_every_class_field_is_read():
    read = attributes_read("src", "perfbench", "tests")
    assert sorted(f"{cls}.{name}" for cls, name in class_fields() if name not in read) == []
