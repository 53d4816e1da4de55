"""Every name a package module imports is used in that module.

A stdlib-`ast` stand-in for a linter's unused-import rule: a name bound by an
import statement anywhere in the module (functions included) must appear as a
`Name` node somewhere in it.  Re-exports are not part of the package's style,
so none are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "awfs_forge"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_scanner_flags_an_unused_name():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        "line 1: os",
        "line 2: dumps",
    ]
    assert unused_imports("from x import a as b\nb()\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
