"""Benchmark of plumbcalc through its CLI entry point.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the standard library and
the sources under ``src/``.  A run generates the workload's items from the
seed (``workloads.py``), then starts one fresh interpreter per batch
(``worker.py``), one at a time, until the next batch would end after
``--seconds``.  Every batch runs every item once and checks every output.
Each batch gets its own temporary directory under ``bench/.work`` and its
own cache file through ``$PLUMBCALC_CACHE``, so no run touches
``./.plumbcalc-cache.jsonl``.  Each run keeps its bytecode in its own
directory there as well (``$PYTHONPYCACHEPREFIX``), so no ``__pycache__``
left in the checkout changes what a start costs.

With ``--trace 0`` the run prints the end-to-end metrics named in
``BENCHMARK.json``: times at a fixed reference speed (see ``worker.py``),
from each item's median over the run's batches, set-up as the median over
the run's interpreter starts, memory as the median ``ru_maxrss``.  With
``--trace 1`` its first batch is traced (``tracer.py``) and the run prints
the per-layer metrics; the remaining batches are untraced and give the base
of ``trace.overhead_frac``.  Every run also writes its full record, with all
traced functions, to ``bench/out/`` and, when traced, the spans next to it.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
OUT = BENCH / "out"
SETUP_PROBES = 5  # import-only interpreters per untraced run, for setup_s
BATCH_TIMEOUT_S = 150
TAIL_BEYOND = 10  # item_tail_ms is the highest percentile with this many items above it


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def run_batch(items: list[dict], trace: bool, spans_path: Path, pycache: str) -> dict:
    """One worker process over ``items``; its result, or ``{"crash": reason}``.

    ``pycache`` is the run's own bytecode directory (``run_workload``).
    """
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        job = {
            "items": items,
            "trace": trace,
            "workdir": workdir,
            "result": os.path.join(workdir, "result.json"),
            "spans": str(spans_path),
        }
        job_file = os.path.join(workdir, "job.json")
        with open(job_file, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env["PLUMBCALC_CACHE"] = os.path.join(workdir, "cache.jsonl")
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPYCACHEPREFIX"] = pycache
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # the first start must fill pycache
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), repr(spawn), job_file],
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
                timeout=BATCH_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"crash": f"worker exceeded {BATCH_TIMEOUT_S} s"}
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            return {"crash": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        with open(job["result"], encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND values above it: (value, percentile)."""
    ordered = sorted(values)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def item_medians_ms(batches: list[dict]) -> list[float]:
    """Each item's median time over the untraced batches, in ms.

    Item times arrive scaled to the reference speed (``worker.py``); the
    median per item then drops what is left of a slow stretch in one batch.
    """
    return [1000 * statistics.median(b["item_s"][i] for b in batches) for i in range(len(batches[0]["item_s"]))]


def end_to_end(item_ms: list[float], batches: list[dict]) -> dict:
    """``wall_s`` sums the per-item medians; p50 and tail are taken over
    items, so they show the heavy items rather than the noise."""
    return {
        "wall_s": sum(item_ms) / 1000,
        "item_p50_ms": statistics.median(item_ms),
        "item_tail_ms": tail(item_ms)[0],
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }


def layer_metrics(traced: dict, untraced: list[dict]) -> dict:
    """Every per-layer number of one traced batch, by metric name.

    Self times are scaled to the reference speed by the batch's overall
    factor, so they add up to its share of ``wall_s``.
    """
    scale = sum(traced["item_s"]) / sum(traced["raw_item_s"])
    out = {}
    for name, row in traced["layers"].items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"] * scale
    out["cli.cache_hit_frac"] = traced["cache_hit_frac"]
    out["cli.cache_file_bytes"] = traced["cache_file_bytes"]
    base = statistics.median(sum(b["item_s"]) for b in untraced)
    out["trace.overhead_frac"] = sum(traced["item_s"]) / base - 1
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    items, inputs = workloads.generate(name, seed)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    spans_path = OUT / f"{stem}.spans.jsonl"
    # Bytecode is read and written only in this run's own directory, which
    # one discarded start fills.  So every measured start loads warm
    # bytecode of the current sources, whatever __pycache__ the checkout holds.
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="pyc-") as pycache:
        warm = run_batch([], False, spans_path, pycache)
        if "crash" in warm:
            raise RuntimeError(warm["crash"])
        start = time.monotonic()
        setups: list[float] = []
        if not trace:
            for _ in range(SETUP_PROBES):
                probe = run_batch([], False, spans_path, pycache)
                if "crash" in probe:
                    raise RuntimeError(probe["crash"])
                setups.append(probe["setup_s"])
        traced = run_batch(items, True, spans_path, pycache) if trace else None
        if traced and "crash" in traced:
            raise RuntimeError(f"traced batch: {traced['crash']}")
        batches: list[dict] = []
        crashes: list[str] = []
        durations: list[float] = []
        while True:
            t0 = time.monotonic()
            batch = run_batch(items, False, spans_path, pycache)
            durations.append(time.monotonic() - t0)
            if "crash" in batch:
                crashes.append(batch["crash"])
            else:
                batches.append(batch)
            if time.monotonic() - start + statistics.median(durations) > seconds:
                break
        if not batches:
            raise RuntimeError("; ".join(crashes))

        inputs.update(batches[0]["input_notes"])
        done = batches + ([traced] if traced else [])
        attempted = len(items) * (len(done) + len(crashes))
        failures = [reason for batch in done for reason in batch["failures"].values()]
        failed = len(failures) + len(items) * len(crashes)
        item_ms = item_medians_ms(batches)
        metrics = end_to_end(item_ms, batches)
        metrics["setup_s"] = statistics.median(setups + [b["setup_s"] for b in batches])
        metrics["fail_frac"] = failed / attempted
        if traced:
            metrics.update(layer_metrics(traced, batches))
        published = spec["per_layer"] if trace else spec["end_to_end"]
        record = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "inputs": inputs,
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "batches": len(batches),
            "batch_raw_wall_s": [sum(b["raw_item_s"]) for b in batches],
            "batch_speed": [sum(b["raw_item_s"]) / sum(b["item_s"]) for b in batches],
            "items_per_batch": len(items),
            "item_tail_percentile": tail([0.0] * len(items))[1],
            "setup_samples": len(setups) + len(batches),
            "crashes": crashes,
            "failures": failures[:50],
            "item_ms": [[" ".join(item["argv"]), ms] for item, ms in zip(items, item_ms)],
            "all_metrics": metrics,
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                # a traced function that a later change removes is never called: 0
                "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in published},
            },
        }
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        return record


def describe(record: dict) -> None:
    """Human-readable lines ahead of the result line."""
    m = record["all_metrics"]
    print(f"# {record['workload']}: seed {record['seed']}, trace {record['trace']}, git {record['git_revision']}, "
          f"python {record['python']}, nproc {record['nproc']}")
    print(f"# inputs: {json.dumps(record['inputs'])}")
    print(f"# {record['batches']} untraced batches of {record['items_per_batch']} items, each in a fresh interpreter; "
          f"item_tail_ms is p{record['item_tail_percentile']:.1f}; setup_s is the median of {record['setup_samples']} starts")
    print(f"# fail_frac {m['fail_frac']} ({record['result']['failed']}/{record['result']['attempted']})")
    for reason in record["failures"][:5] + record["crashes"][:2]:
        print(f"# FAILED {reason}")
    if record["trace"]:
        rows = sorted(((k[:-7], v) for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 2), key=lambda kv: -kv[1])
        print("# traced batch, self time by function:")
        for fn, secs in rows[:12]:
            print(f"#   {fn:32s} {secs:9.4f} s  {m[fn + '.calls']:>8d} calls")
    for key, val in record["result"]["metrics"].items():
        print(f"# {key} = {val['value']} {val['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="plumbcalc benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "plumbcalc" / "cli.py").is_file():
        print(f"error: no plumbcalc sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        describe(record)
        print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
