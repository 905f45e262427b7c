"""Each narrative demo runs to completion against the package in ``src``, and README's library tour
returns the results its comments state."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour():
    """README's first ``python`` block runs; each expression line returns the repr its comment starts
    with, and a comment's "Sigma(p,q,r) gives X" holds for the same line on that sphere's ``tree``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", readme, re.M | re.S).group(1)
    lines, scope, checked = block.splitlines(), {}, 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
            continue
        expr = compile(ast.Expression(stmt.value), "README", "eval")
        comment = lines[stmt.lineno - 1].partition("# ")[2]
        assert comment.startswith(repr(eval(expr, scope))), comment
        for *triple, other in re.findall(r"Sigma\((\d+),(\d+),(\d+)\) gives (\S+)", comment):
            tree = scope["negdef_plumbing"](scope["BrieskornTriple"](*map(int, triple)))
            assert repr(eval(expr, dict(scope, tree=tree))) == other, comment
        checked += 1
    assert checked == 3
