"""Each narrative demo runs to completion against the package in ``src``, and README's library tour
and command examples return the results their comments state."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from plumbcalc.cli import main

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


def _check_readme_commands(readme: str, capsys) -> int:
    """Run each ``plumbcalc ...  # -> v`` line of README's command-line block through ``cli.main``; its stdout
    must be exactly ``v``.  Returns the number of lines checked."""
    block = re.search(r"^```sh\n(plumbcalc .*?)^```", readme, re.M | re.S).group(1)
    checked = 0
    for argv, value in re.findall(r"^plumbcalc (.*?)\s+# -> (.*)$", block, re.M):
        assert main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == f"{value}\n", argv
        checked += 1
    return checked


def test_readme_command_results(capsys):
    """README's command examples print the results their ``# -> v`` comments state, and altering any one of
    those comments makes the check fail."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    claims = re.findall(r"# -> \S+", readme)
    assert _check_readme_commands(readme, capsys) == len(claims) == 3
    for claim in claims:
        with pytest.raises(AssertionError):
            _check_readme_commands(readme.replace(claim, claim + "1"), capsys)
