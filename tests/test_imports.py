"""Every name a package module imports is used in that module, and package
imports sit at the top of the module.

A stdlib-`ast` stand-in for a linter's unused-import rule: a name bound by an
import statement anywhere in the module (functions included) must appear as a
`Name` node somewhere in it.  Re-exports are not part of the package's style,
so none are exempt.  No module needs a function-local import to break an
import cycle, so an import of the package inside a function is flagged too.

A stand-in for a dead-code rule as well: every function, method and class
the package defines must be referenced from the package, the tests, the
scripts or the benchmark.

And a start-up guard: every CLI command is its own process, so importing the
CLI or the kernel must not load `dataclasses`, `inspect` or `argparse`
(argparse is imported only for the commands its plain parser declines).
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "awfs_forge"


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


def _imports_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "awfs_forge"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "awfs_forge" for alias in node.names)
    return False


def local_package_imports(source: str) -> list[str]:
    """Lines inside a function body that import from the package."""
    lines = {
        node.lineno
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if _imports_package(node)
    }
    return [f"line {line}" for line in sorted(lines)]


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every function, method and class but dunder methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def references(source: str) -> set[str]:
    """Names, attribute names and string constants: a definition looked up
    with `getattr` by name is referenced by the string."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_scanner_flags_an_unreferenced_definition():
    source = (
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "def by_name(): pass\n"
        "def dead(): pass\n"
        "A().used(); getattr(A, 'by_name')\n"
    )
    refs = references(source)
    assert [d for d in definitions(source) if d[1] not in refs] == [(4, "unused"), (6, "dead")]


def test_every_package_definition_is_referenced():
    refs: set[str] = set()
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            refs |= references(path.read_text(encoding="utf-8"))
    dead = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in definitions(path.read_text(encoding="utf-8"))
        if name not in refs
    ]
    assert dead == []


def test_scanner_flags_an_unused_name():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        "line 1: os",
        "line 2: dumps",
    ]
    assert unused_imports("from x import a as b\nb()\n") == []


def test_scanner_flags_a_function_local_package_import():
    source = (
        "from .core import glue\n"
        "def f():\n"
        "    import json\n"
        "    from .soa import run_soa\n"
        "    def g():\n"
        "        import awfs_forge.model\n"
        "    from . import fixtures\n"
    )
    assert local_package_imports(source) == ["line 4", "line 6", "line 7"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_the_package_at_top_level(module):
    assert local_package_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", ["awfs_forge.cli", "awfs_forge.core"])
def test_importing_the_package_loads_no_start_up_heavy_module(module):
    # -S: no site hooks, so only the import itself loads modules
    code = (
        f"import json, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import {module}; "
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert json.loads(out) == []
