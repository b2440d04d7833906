"""Every module-level import in the package is used where it is imported.

The one exception is a name that perfbench/tracing.py rebinds on that
module to trace a layer boundary: the tracer needs the binding even when
the module no longer calls it.
"""

import ast
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
