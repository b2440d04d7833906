"""Every module-level import in the package is used where it is imported,
and every name the package exports is read somewhere in the package.

The exception to both is a name that perfbench/tracing.py rebinds on its
module to trace a layer boundary: the tracer needs the binding even when
the package no longer calls it.
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
