"""The guard table is the one place that states a work bound, and the README shows it."""

import ast
import re
from pathlib import Path

import pytest

import plumbcalc
from plumbcalc.guards import GUARDS, ScanGuardExceededError, guard

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "plumbcalc").glob("*.py"))


def _constructions(tree: ast.AST) -> int:
    calls = (node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    return sum(getattr(f, "id", getattr(f, "attr", None)) == "ScanGuardExceededError" for f in calls)


def _defined_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_guard_table_states_a_guard(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _constructions(tree) == (1 if path.name == "guards.py" else 0)
    if path.name != "guards.py":
        assert not [n for n in _defined_names(tree) if n.endswith(("_GUARD", "_MAX_RANK"))]


@pytest.mark.parametrize("name", GUARDS)
def test_each_guard_admits_its_bound_and_refuses_one_more(name):
    unit, bound = GUARDS[name]
    guard(name, bound)
    with pytest.raises(ScanGuardExceededError) as exc:
        guard(name, bound + 1)
    assert str(exc.value) == f"{name} guard exceeded: {unit} {bound + 1} > {bound}"
    assert isinstance(exc.value, ValueError) and plumbcalc.ScanGuardExceededError is ScanGuardExceededError


def test_readme_table_is_the_guard_table():
    rows = re.findall(r"^\| `([^`]+)` \|[^|]*\| ([\d,]+) \|", (ROOT / "README.md").read_text(encoding="utf-8"), re.M)
    assert len(rows) == len(GUARDS)
    assert {name: int(bound.replace(",", "")) for name, bound in rows} == {n: g.bound for n, g in GUARDS.items()}
