"""One timed run: a batch of plumbcalc CLI items in a fresh interpreter.

    python3 bench/worker.py SPAWN_TIME JOB_FILE

``run.py`` starts one worker per timed run, one at a time.  SPAWN_TIME is
the ``time.monotonic()`` reading its parent took just before starting the
process; set-up ends when ``plumbcalc.cli`` has been imported.  JOB_FILE is
JSON with ``items``, ``trace``, ``workdir``, ``result`` and ``spans``.

Every item is a call of ``plumbcalc.cli.main(argv)`` with its output
captured.  The checks, the reading of report files and the writing of spans
all happen after the last item, outside the timed region.  A fresh process
per run matters: ``lens._d_rec`` is a process-global memo, so a second batch
in one process would time memo lookups instead of the recursion that every
CLI invocation pays for.

Between items, at most every REF_INTERVAL_S, the worker times a fixed slice
of pure-Python work that never touches plumbcalc (``reference_slice``).  On
a shared machine the interpreter's speed drifts by up to 2x over minutes;
each item's time is later scaled by REF_NOMINAL_S over the reference times
taken just before and after it, so every time is reported at one fixed
reference speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

# the commands whose cache lookup decides whether this compute call happens
CACHED_COMMANDS = ("d", "lens-d", "mubar")
COMPUTE = frozenset({"lens.d_from_plumbing", "lens.lens_d", "lens.lens_d_all", "lens.lens_d_oracle", "plumbing.mubar"})
REF_INTERVAL_S = 0.1
# the reference slice's time on a 2-vCPU Xeon VM under Python 3.11, at its median speed
REF_NOMINAL_S = 0.002


def reference_slice() -> float:
    """Seconds, best of three, that a fixed Fraction and dict loop takes now.

    The garbage collector is held off so that a large heap left by the
    program does not slow the slice itself.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            acc, table = Fraction(0), {}
            for k in range(1, 400):
                acc += Fraction(k, k * k + 1)
                table[k % 37] = table.get(k % 37, 0) + k * k
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def run_items(cli, items: list[dict], workdir: str, tracer=None) -> list[dict]:
    """Call ``cli.main`` once per item; one outcome per item, in order.

    Each outcome's ``ref_s`` is the mean of the reference times taken just
    before and just after the item.
    """
    outcomes = []
    refs = [reference_slice()]
    last_ref = time.perf_counter()
    before = []  # per item: index of the last reference taken before it
    for item in items:
        if time.perf_counter() - last_ref >= REF_INTERVAL_S:
            refs.append(reference_slice())
            last_ref = time.perf_counter()
        before.append(len(refs) - 1)
        report = os.path.join(workdir, f"report-{item['id']}.jsonl")
        argv = [report if arg == "{report}" else arg for arg in item["argv"]]
        out, err = io.StringIO(), io.StringIO()
        outcome = {"rc": None, "error": None}
        if tracer is not None:
            tracer.item = item["id"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome["rc"] = cli.main(argv)
        except Exception as exc:  # one failing item must not end the run
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        outcome.update(start=start, end=end, out=out.getvalue(), stderr=err.getvalue())
        outcomes.append(outcome)
    refs.append(reference_slice())
    for idx, outcome in zip(before, outcomes):
        outcome["ref_s"] = (refs[idx] + refs[idx + 1]) / 2
    for item, outcome in zip(items, outcomes):
        report = os.path.join(workdir, f"report-{item['id']}.jsonl")
        outcome["report"] = ""
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                outcome["report"] = fh.read()
    return outcomes


def cache_hit_frac(tracer, items: list[dict]) -> float:
    """Share of cached-command ``cli.main`` spans with no compute child."""
    cached = {item["id"] for item in items if item["argv"][0] in CACHED_COMMANDS}
    mains = [kids for _, name, item, *_, kids in tracer.spans if name == "cli.main" and item in cached]
    if not mains:
        return 0.0
    return sum(not COMPUTE.intersection(kids) for kids in mains) / len(mains)


def main(argv: list[str]) -> int:
    spawn = float(argv[1])
    import plumbcalc.cli as cli

    ready = time.monotonic()
    setup_ref = reference_slice()

    from checks import check, input_notes
    from tracer import Tracer

    with open(argv[2], encoding="utf-8") as fh:
        job = json.load(fh)
    items = job["items"]
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    try:
        outcomes = run_items(cli, items, job["workdir"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache = os.environ.get("PLUMBCALC_CACHE", "")
    result = {
        "setup_s": (ready - spawn) * REF_NOMINAL_S / setup_ref,
        "raw_setup_s": ready - spawn,
        "item_s": [(o["end"] - o["start"]) * REF_NOMINAL_S / o["ref_s"] for o in outcomes],
        "raw_item_s": [o["end"] - o["start"] for o in outcomes],
        "peak_rss_mb": rss_mb,
        "cache_file_bytes": os.path.getsize(cache) if os.path.exists(cache) else 0,
        "failures": {},
        "input_notes": input_notes(items),
    }
    for item, outcome in zip(items, outcomes):
        try:
            reason = check(item, outcome, items, outcomes)
        except Exception as exc:  # a malformed output is a failed item
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            result["failures"][item["id"]] = f"{' '.join(item['argv'])}: {reason}"
    if tracer is not None:
        result["layers"] = tracer.layer_table()
        result["cache_hit_frac"] = cache_hit_frac(tracer, items)
        tracer.write_spans(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
