"""Outside-in tracing of plumbcalc's layers.

``Tracer.install`` wraps every public function of the five library modules,
and the CLI's documented entry point ``cli.main``, by rebinding the name in
every ``plumbcalc.*`` namespace that holds the same function object.  So
``families.d_surgery`` and ``lens.d_surgery`` are both traced, and so are
intra-module calls such as ``max_char_square -> minimalize``, which look the
name up in their own module's globals.  ``uninstall`` puts every original
back.  The program itself is not edited.

Each call of a wrapped function is a span: name ``<module>.<function>``,
start, end, parent span and the current item id.  Self time is the span's
duration minus the time its child spans cover; calls nest strictly (the
program is single-threaded), so that is the duration minus the sum of the
children's durations.  Hot leaves (``HOT``) keep only count and total time:
``lens.lens_d`` alone is called hundreds of thousands of times per run.
Their time still counts as child time of the span that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("arith", "lattice", "plumbing", "lens", "families", "cli")
CLI_ENTRY = "cli.main"
HOT = frozenset(
    {"lens.lens_d", "arith.bezout", "arith.mod_inverse", "arith.cf_eval", "arith.hj_expand", "arith.hj_expand_negative"}
)


def traced_functions() -> dict[str, object]:
    """``<module>.<function>`` -> function object, for every traced function.

    For the library modules these are the functions a module defines under a
    public name; the CLI layer is entered only through ``main``, so its
    parsing, cache I/O and formatting all count as ``cli.main`` self time.
    """
    import plumbcalc.cli  # noqa: F401  (imports every layer)

    out = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"plumbcalc.{layer}")
        if mod is None:  # a layer that a later change folds into another
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if layer == "cli" and f"cli.{name}" != CLI_ENTRY:
                continue
            out[f"{layer}.{name}"] = obj
    return out


def plumbcalc_namespaces() -> list:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "plumbcalc" or name.startswith("plumbcalc.")]


class Tracer:
    """Records spans and per-function counts while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = None
        self.spans: list[tuple] = []  # (id, name, item, start, end, parent, self, child names)
        self.stats: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self._stack: list[list] = []  # per open call: [child seconds, child names, span id]
        self._next_id = 1
        self._rebound: list[tuple] = []  # (namespace, attribute, original)

    def wrap(self, name: str, fn):
        """A traced stand-in for ``fn``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock, hot = self._stack, self.clock, name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else 0
            if hot:
                span_id = parent
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, set(), span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1].add(name)
                if not hot:
                    self.spans.append((span_id, name, self.item, start, end, parent, own, tuple(sorted(frame[1]))))

        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        targets = {id(fn): (name, fn) for name, fn in traced_functions().items()}
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in plumbcalc_namespaces():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and obj is targets[id(obj)][1]:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._rebound.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def layer_table(self) -> dict[str, dict]:
        """Per function and per module: ``calls``, ``total_s``, ``self_s``."""
        table: dict[str, dict] = {}
        for name, (calls, total, own) in sorted(self.stats.items()):
            table[name] = {"calls": calls, "total_s": total, "self_s": own}
            layer = table.setdefault(name.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
            layer["calls"] += calls
            layer["self_s"] += own
        return table

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines, then one line per hot leaf aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, item, start, end, parent, own, kids in self.spans:
                rec = {"id": span_id, "name": name, "item": item, "start": start, "end": end, "parent": parent, "self_s": own, "children": kids}
                fh.write(json.dumps(rec) + "\n")
            for name in sorted(HOT & self.stats.keys()):
                calls, total, own = self.stats[name]
                fh.write(json.dumps({"aggregate": name, "calls": calls, "total_s": total, "self_s": own}) + "\n")
