"""Tests of the benchmark's own tracer, worker and checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_tracer.py
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import plumbcalc.cli  # noqa: E402
import plumbcalc.families  # noqa: E402
import plumbcalc.lens  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, plumbcalc_namespaces  # noqa: E402

ITEMS = [
    {"id": 0, "kind": "lens_i", "argv": ["lens-d", "7", "1", "3"], "p": 7, "q": 1, "i": 3},
    {"id": 1, "kind": "d", "argv": ["d", "2", "3", "5", "--json"], "triple": [2, 3, 5]},
    {"id": 2, "kind": "lens_i", "argv": ["lens-d", "7", "1", "3"], "p": 7, "q": 1, "i": 3, "first": 0},
]


def _functions() -> dict:
    return {(mod.__name__, attr): obj for mod in plumbcalc_namespaces() for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


def test_self_time_subtracts_child_spans_and_hot_leaves():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("lens.lens_d", lambda: None)  # a hot leaf: counted, no span
    inner = tracer.wrap("lattice.minimalize", lambda: leaf())
    outer = tracer.wrap("lattice.max_char_square", lambda: (inner(), leaf()))
    tracer.item = 7
    outer()
    # clock: outer 0, inner 1, leaf 2-3, inner ends 4, leaf 5-6, outer ends 7
    assert tracer.stats["lattice.max_char_square"] == [1, 7.0, 3.0]
    assert tracer.stats["lattice.minimalize"] == [1, 3.0, 2.0]
    assert tracer.stats["lens.lens_d"] == [2, 2.0, 2.0]
    spans = {name: (span_id, parent, own, kids, item) for span_id, name, item, _, _, parent, own, kids in tracer.spans}
    outer_id = spans["lattice.max_char_square"][0]
    assert spans["lattice.max_char_square"][1:] == (0, 3.0, ("lattice.minimalize", "lens.lens_d"), 7)
    assert spans["lattice.minimalize"][1:] == (outer_id, 2.0, ("lens.lens_d",), 7)
    table = tracer.layer_table()
    assert table["lattice"] == {"calls": 2, "self_s": 5.0}
    assert table["lens"] == {"calls": 2, "self_s": 2.0}


def test_name_imported_across_modules_is_traced():
    tracer = Tracer()
    tracer.install()
    try:
        assert plumbcalc.families.d_surgery is plumbcalc.lens.d_surgery
        assert getattr(plumbcalc.families.d_surgery, "__wrapped__", None) is not None
        plumbcalc.families.verify_correction_bound("i", 1)
    finally:
        tracer.uninstall()
    assert tracer.stats["lens.d_surgery"][0] == 1
    assert tracer.stats["lens.lens_d"][0] > 0
    parents = {span_id: name for span_id, name, *_ in tracer.spans}
    (surgery,) = [span for span in tracer.spans if span[1] == "lens.d_surgery"]
    assert parents[surgery[5]] == "families.verify_correction_bound"
    assert "lens.lens_d" in surgery[7]


def _run_worker(tmp_path, monkeypatch, trace: bool) -> dict:
    monkeypatch.setenv("PLUMBCALC_CACHE", str(tmp_path / f"cache-{trace}.jsonl"))
    job = {
        "items": ITEMS,
        "trace": trace,
        "workdir": str(tmp_path),
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.jsonl"),
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert worker.main(["worker.py", repr(time.monotonic()), str(tmp_path / "job.json")]) == 0
    return json.loads((tmp_path / "result.json").read_text())


def test_untraced_run_replaces_nothing_and_traced_run_restores(tmp_path, monkeypatch):
    before = _functions()
    result = _run_worker(tmp_path, monkeypatch, trace=False)
    assert result["failures"] == {} and "layers" not in result
    assert _functions() == before

    result = _run_worker(tmp_path, monkeypatch, trace=True)
    assert result["failures"] == {}
    assert result["layers"]["cli.main"]["calls"] == 3
    assert result["layers"]["lattice.max_char_square"]["calls"] == 1
    assert result["cache_hit_frac"] == 1 / 3  # the repeated lens-d query
    assert _functions() == before
    assert (tmp_path / "spans.jsonl").read_text().count('"cli.main"') == 3


def test_checks_reject_wrong_answers():
    lens, d, repeat = ITEMS
    right = {"rc": 0, "error": None, "out": "-3/14\n", "report": ""}  # ((2*3-7)^2-7)/28
    assert checks.check(lens, right, ITEMS, [right]) is None
    assert checks.check(lens, dict(right, out="-1/7\n"), ITEMS, [right]) is not None
    assert checks.check(lens, dict(right, rc=1), ITEMS, [right]) is not None
    assert checks.check(repeat, dict(right, out="-3/14 \n"), ITEMS, [right, None, None]) is not None
    d_out = {"rc": 0, "error": None, "report": "", "out": json.dumps({"d": "2", "certificate": [1] * 8})}
    assert checks.check(d, d_out, ITEMS, [None, d_out]) is not None
