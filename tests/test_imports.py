"""Every module-level import in the package is used where it is imported,
and every name the package exports is read somewhere in the package.

The exception to both is a name that perfbench/tracing.py rebinds on its
module to trace a layer boundary: the tracer needs the binding even when
the package no longer calls it.

Files are read and written in cli alone, and cli imports no private name
of another package module. The package depends on the standard library
alone: no module imports anything else.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import filippov2d

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402

PACKAGE = Path(filippov2d.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module):
    """(bound name, line) of every module-level import but __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _used(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _traced() -> set:
    return {(module.__name__.rsplit(".", 1)[-1], name)
            for module, name, _ in Tracer()._bindings()}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text())
    used, traced = _used(tree), _traced()
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used and (path.stem, name) not in traced]
    assert unused == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    # a record is a NamedTuple, a __slots__ class or a plain class: the
    # dataclasses import and its class bodies cost a run's start-up more
    # than the records save
    tree = ast.parse(path.read_text())
    modules = [a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "dataclasses" not in modules


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import csv\nfrom math import pi, tau\nprint(tau)\n")
    used = _used(tree)
    assert [n for n, _ in _imported(tree) if n not in used] == ["csv", "pi"]


# Exports the package does not read itself, each with its reader: evaluate
# is the checked evaluation that names a domain error's position, which
# compile_expr's docstring sends callers to when reporting matters.
UNREAD_EXPORTS = {"evaluate"}


def _reads(node: ast.AST, name: str) -> bool:
    """True when the tree reads name (as a name or an attribute) outside
    the function or class that defines it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)) and node.name == name:
        return False
    if isinstance(node, ast.Name) and node.id == name \
            or isinstance(node, ast.Attribute) and node.attr == name:
        return True
    return any(_reads(child, name) for child in ast.iter_child_nodes(node))


def test_every_export_has_a_reader_in_the_package():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    exempt = {name for _, name in _traced()} | UNREAD_EXPORTS
    unread = [name for name in filippov2d.__all__
              if not inspect.ismodule(getattr(filippov2d, name))
              and name not in exempt
              and not any(_reads(tree, name) for tree in trees)]
    assert unread == []


def test_the_export_check_skips_the_definition():
    recursive = "def f(n):\n    return f(n - 1)\n"
    assert not _reads(ast.parse(recursive), "f")
    assert _reads(ast.parse(recursive + "print(f)\n"), "f")
    assert _reads(ast.parse("import m\nm.f()\n"), "f")


FILE_MODULES = {"csv", "pathlib", "tempfile"}
FILE_CALLS = {"open", "read_text", "write_text"}


def _file_io(tree: ast.AST):
    """Every file-module import and file call in the tree, by line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module.split(".")[0]]
        elif isinstance(node, ast.Call):
            func = node.func
            names = [getattr(func, "id", getattr(func, "attr", None))]
        else:
            continue
        yield from (f"{name} (line {node.lineno})" for name in names
                    if name in FILE_MODULES | FILE_CALLS)


def test_only_cli_touches_files():
    # cli writes and reads every artifact (census, tangent points,
    # trajectories, portrait, diagnostics) and the config file
    hits = {path.stem: list(_file_io(ast.parse(path.read_text())))
            for path in MODULES if path.stem != "cli"}
    assert {stem: found for stem, found in hits.items() if found} == {}
    assert list(_file_io(ast.parse(
        "import csv\nfrom pathlib import Path\nPath('a').write_text('')\n"
        "open('b')\n"))) == ["csv (line 1)", "pathlib (line 2)",
                              "write_text (line 3)", "open (line 4)"]


# the check battery's probe of the canonical arc height, which goes with
# the battery
CLI_PRIVATE_IMPORTS = {"_flow_to_section"}


def test_cli_imports_no_private_name_of_the_package():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [f"{a.name} (line {node.lineno})" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for a in node.names if a.name.startswith("_")
               and a.name not in CLI_PRIVATE_IMPORTS]
    assert private == []


def _outside_stdlib(tree: ast.AST):
    """Every import, at any depth, of a top-level module that is neither
    the standard library's nor the package's own (a relative import)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        yield from (f"{name} (line {node.lineno})" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names)


@pytest.mark.parametrize("path", [PACKAGE / "__init__.py", *MODULES],
                         ids=lambda p: p.stem)
def test_the_package_imports_only_the_standard_library(path):
    assert list(_outside_stdlib(ast.parse(path.read_text()))) == []


def test_the_stdlib_check_sees_a_third_party_import():
    tree = ast.parse("import math, numpy as np\nfrom . import flow\n"
                     "def f():\n    from scipy.optimize import brentq\n")
    assert list(_outside_stdlib(tree)) == ["numpy (line 1)",
                                           "scipy.optimize (line 4)"]
