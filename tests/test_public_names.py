"""Every public name that `src/fvi_bench` defines is used somewhere.

A public module-level function or class, or a public method of such a class,
must occur as a whole word at least twice across `src/`, `tests/` and
`perfbench/`: once where it is defined and at least once more where it is
used.  A name that only its definition mentions is dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def public_names() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "fvi_bench").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body if isinstance(item, DEFINITIONS))
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_is_used_beyond_its_definition():
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
    )
    unused = [name for name in sorted(public_names()) if len(re.findall(rf"\b{name}\b", text)) < 2]
    assert unused == []
