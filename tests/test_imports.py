"""Every name a package or test module imports is used in that module, and
package imports sit at the top of the package's modules.

A stdlib-`ast` stand-in for a linter's unused-import rule: a name bound by an
import statement anywhere in the module (functions included) must appear as a
`Name` node somewhere in it.  Re-exports are not part of the package's style,
so none are exempt.  No module needs a function-local import to break an
import cycle, so an import of the package inside a function is flagged too.

A reachability gate as well: every function, method and class the package
defines must be reached by name from `cli.main`, from a module's top-level
statements, from `scripts/`, from `perfbench/` or from
`tests/test_acceptance.py`, directly or through definitions reached so.  A
name is read as a `Name` or an attribute, and in those roots as a string
constant too, so the benchmark's tracer, which binds functions by their names
as strings, reaches them; a string in the package is data, such as a JSON
key, and reaches nothing.  Other tests do not: code that only unit tests call
is not code the system needs.  `ALLOWLIST` names the paper results that only
unit tests exercise, each with its reason; an entry that no longer exists, or
that is reached anyway, fails the gate.

And a start-up guard: every CLI command is its own process, so importing the
CLI or the kernel must not load `dataclasses`, `inspect` or `argparse`
(argparse is imported only for the commands its plain parser declines).  And
a guard that the verifier never runs the engine's small object argument: it
names neither the engine nor its stage rule.  And one that `certificates`
names none of the transport math, which `transport_blocks` and
`quillen_blocks` run beside it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "awfs_forge"
TESTS = ROOT / "tests"


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


# The paper results that only unit tests exercise: no command runs them.
ALLOWLIST = {
    "check_algebra_unit": "R-algebra unit law, dual of the coalgebra checks `model` runs",
    "check_algebra_laws": "R-algebra laws, dual of the coalgebra checks `model` runs",
    "check_algebra_map": "maps of R-algebras, dual of the coalgebra maps",
    "RetractData": "closure under retracts: the retract a lifting function moves along",
    "retract_transfer": "closure under retracts: lifting functions move along a retract",
    "PrunedGenerators": "generator pruning: the pruned generators with their sections",
    "PruneError": "generator pruning: a generator that no free coalgebra retracts onto",
    "prune_generators": "generator pruning: J' = {Cj} generates the same model structure",
    "transfer_pruned_lifting": "generator pruning: lifting functions move to the pruned set",
    "projective_generators": "the algebraic projective model structure's generators",
}
# What reaches the package besides `cli.main` and its modules' top levels.
ROOTS = ("scripts/**/*.py", "perfbench/**/*.py", "tests/test_acceptance.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reference(node: ast.AST, strings: bool = True) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def references(source: str) -> set[str]:
    """Names, attribute names and string constants: a definition looked up
    with `getattr` by name is referenced by the string."""
    return {ref for node in ast.walk(ast.parse(source)) if (ref := _reference(node)) is not None}


def _scope(nodes: list[ast.AST], units: list, strings: bool) -> set[str]:
    """The references in `nodes` outside the definitions among them, string
    constants only with `strings`; each definition but a dunder method is
    appended to `units` as (line, name, its own references).  A dunder method
    belongs to its class."""
    refs: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__")):
            inner = _scope(list(ast.iter_child_nodes(node)), units, strings)
            units.append((node.lineno, node.name, inner))
            continue
        if (ref := _reference(node, strings)) is not None:
            refs.add(ref)
        stack.extend(ast.iter_child_nodes(node))
    return refs


def _unreached(units: list, live: set[str]) -> list:
    """Close `live` over the references of the units it names; the units left."""
    while reached := [u for u in units if u[2] in live]:
        units = [u for u in units if u[2] not in live]
        for u in reached:
            live |= u[3]
    return units


def unreached(
    modules: dict[str, str], roots: set[str], allowlist, strings: bool = True
) -> tuple[list[str], list[str]]:
    """("module:line: name" of each definition in `modules` that no root
    reaches, stale allowlist entries).  Every module's top-level statements
    are roots.  An allowlist entry is stale unless it names a definition the
    roots leave unreached; the entries are then roots too, so what only they
    reach is not flagged.  A string constant in `modules` names a definition
    only with `strings`."""
    units, live = [], set(roots)
    for module, source in modules.items():
        found: list = []
        live |= _scope(ast.parse(source).body, found, strings)
        units += [(module, line, name, refs) for line, name, refs in found]
    dead = _unreached(units, live)
    stale = sorted(set(allowlist) - {name for _, _, name, _ in dead})
    dead = _unreached(dead, live | set(allowlist))
    return [f"{module}:{line}: {name}" for module, line, name, _ in sorted(dead)], stale


def gate(root: Path, allowlist, patterns=ROOTS) -> tuple[list[str], list[str]]:
    """`unreached` over the package under `root`, from `cli.main` and the
    files that `patterns` match; the package's own string constants are data,
    and name nothing."""
    package = root / "src" / "awfs_forge"
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    roots = {"main"}
    for pattern in patterns:
        for path in root.glob(pattern):
            roots |= references(path.read_text(encoding="utf-8"))
    return unreached(modules, roots, allowlist, strings=False)


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
    assert unreached({"m.py": source}, set(), {}) == (["m.py:4: unused", "m.py:6: dead"], [])


def _write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")


def test_gate_flags_what_only_dead_code_or_unit_tests_reach(tmp_path):
    files = {
        "src/awfs_forge/cli.py": (
            "def main(): helper()\ndef helper(): pass\nKEYS = {'keyed': 1}\ndef keyed(): pass\n"
        ),
        "src/awfs_forge/m.py": (
            "TABLE = [listed]\n"
            "def listed(): pass\n"
            "def dead(): only_dead()\n"
            "def only_dead(): pass\n"
            "def unit_tested(): pass\n"
            "def traced(): pass\n"
            "def result(): result_helper()\n"
            "def result_helper(): pass\n"
            "def accepted(): pass\n"
            "def scripted(): pass\n"
        ),
        "tests/test_m.py": "from awfs_forge.m import unit_tested\nunit_tested()\n",
        "tests/test_acceptance.py": "from awfs_forge import m\nm.accepted()\n",
        "perfbench/tracing.py": "NAMES = ['traced']\n",
        "scripts/demo.py": "from awfs_forge.m import scripted\nscripted()\n",
    }
    _write_tree(tmp_path, files)
    # a string constant in the package is data: it does not keep `keyed` live
    flagged = ["cli.py:4: keyed", "m.py:3: dead", "m.py:4: only_dead", "m.py:5: unit_tested"]
    assert gate(tmp_path, {"result": "a paper result"}) == (flagged, [])
    assert gate(tmp_path, {}) == (sorted(flagged + ["m.py:7: result", "m.py:8: result_helper"]), [])


def test_gate_reports_a_stale_allowlist_entry(tmp_path):
    files = {
        "src/awfs_forge/cli.py": "def main(): listed()\ndef listed(): pass\n",
        "src/awfs_forge/m.py": "def dead(): pass\n",
    }
    _write_tree(tmp_path, files)
    # an entry that names nothing, or something reached anyway, is stale
    assert gate(tmp_path, {"gone": "", "listed": "", "dead": ""}) == ([], ["gone", "listed"])
    assert gate(tmp_path, {"dead": ""}) == ([], [])


def test_every_package_definition_is_referenced():
    assert gate(ROOT, ALLOWLIST) == ([], [])


def test_the_cli_reaches_its_certificate_builders_without_the_benchmark():
    # the command table holds each builder, so the benchmark's tracer, which
    # names them as strings, is not what keeps them live
    builders = {
        "soa_certificate", "lift_certificate", "model_certificate", "transport_certificate",
        "_arrow_entries", "transport_blocks",
    }
    dead, _ = gate(ROOT, ALLOWLIST, tuple(p for p in ROOTS if not p.startswith("perfbench/")))
    assert builders & {entry.rsplit(": ", 1)[1] for entry in dead} == set()


def test_the_verifier_names_neither_the_engine_nor_its_stage_rule():
    engine = {"run_soa", "GeneratedAwfs", "new_squares", "enumerate_new_squares"}
    assert engine & references((PACKAGE / "verifier.py").read_text(encoding="utf-8")) == set()


def test_the_certificate_writer_builds_no_transport_block_of_its_own():
    # `transport.transport_blocks` and `quillen_blocks` build these payloads
    math = {
        "verify_lax_colax", "verify_algebraic_quillen", "build_mates", "rho_from_mate",
        "gamma_from_mate", "lift_T_coalg", "eq_witness",
    }
    assert math & references((PACKAGE / "certificates.py").read_text(encoding="utf-8")) == set()


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


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_module_uses_every_import(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []


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
