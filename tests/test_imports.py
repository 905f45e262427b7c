"""Every name a ``plumbcalc`` module imports is used in that module, and no function calls itself.

``__init__.py`` only re-exports, so it is skipped.  A deletion that leaves an
import behind (a ``typing`` name, a helper from a sibling module) fails here.
A recursive walk fails on inputs deeper than the interpreter's recursion limit
(the Euclidean chain of consecutive Fibonacci numbers has one level per index),
so every walk is a loop; the one exception is ``lattice.isometric``'s
``backtrack``, whose depth is the lattice rank, at most the ``isometric rank``
guard's bound.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "plumbcalc").glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_imported(tree) - _used(tree)) == []


RECURSIVE = {("lattice.py", "backtrack")}


def _self_calls(tree: ast.AST) -> set[str]:
    """Names of the functions that call themselves, by bare name or as an attribute."""
    names = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == fn.name:
                    names.add(fn.name)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_calls_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_self_calls(tree) - {name for module, name in RECURSIVE if module == path.name}) == []
