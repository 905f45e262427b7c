"""Command-line front end.

Commands
--------
d P Q R            correction term of the Brieskorn sphere (exact rational)
lens-d P Q [I]     correction term(s) of the lens space L(P, Q)
mubar P Q R        Neumann-Siebenmann invariant of the Brieskorn sphere
mubar --graph F    the same for an arbitrary odd-determinant plumbing tree (no triple with it)
verify TASK        batch verification: the family tasks thm1.2, thm1.3,
                   cor1.6 and rmk1.4 (--families / --n, --report writes one
                   JSON line per member) and classify-e8 (--bound)

All printed rationals are exact strings ("2", "81/46"); no decimals are ever
produced.  Exit codes: 0 success, 1 verification clause failure, 2 invalid
input, 3 work guard exceeded (the guards and their bounds are ``guards.GUARDS``).
Every command computes its answer afresh; nothing is cached between runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import gcd
from typing import Optional, Sequence

from .families import (
    FAMILY_IDS,
    SURGERY_FAMILIES,
    classify_e8_brieskorn,
    verify_conjecture,
    verify_correction_bound,
    verify_theorem_main,
    verify_unbounded_gap,
    write_reports,
)
from .guards import ScanGuardExceededError
from .lens import d_brieskorn, lens_d, lens_d_numerators, lens_d_oracle
from .plumbing import BrieskornTriple, PlumbingGraph, mubar, negdef_plumbing

EXIT_OK = 0
EXIT_CLAUSE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_GUARD_EXCEEDED = 3


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` (den > 0), reduced by one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _error(msg, code: int = EXIT_BAD_INPUT) -> int:
    """Print ``error: msg`` on stderr and return the exit code: 3 for a work guard, else ``code``."""
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_GUARD_EXCEEDED if isinstance(msg, ScanGuardExceededError) else code


# ---------------------------------------------------------------------------
# Commands


def _parse_triple(args) -> BrieskornTriple:
    try:
        return BrieskornTriple(*sorted((args.p, args.q, args.r)))
    except ValueError as exc:
        raise SystemExit(_error(exc))


def cmd_d(args) -> int:
    triple = _parse_triple(args)
    try:
        res = d_brieskorn(triple)
    except ScanGuardExceededError as exc:
        return _error(exc)
    value = {"d": str(res.value), "certificate": list(res.vector)}
    if args.json:
        print(json.dumps({"command": "d", "triple": list(triple.as_tuple()), **value}, sort_keys=True))
    else:
        print(value["d"])
    return EXIT_OK


def cmd_lens_d(args) -> int:
    p, q = args.p, args.q
    try:
        if args.i is None or args.all:
            if args.oracle:  # its labels are 0..p-1 too
                values = [str(v) for _, v in sorted(lens_d_oracle(p, q).items())]
            else:
                den, nums = lens_d_numerators(p, q)
                values = [_ratio(n, den) for n in nums]
            if args.json:
                payload = {"command": "lens-d", "p": p, "q": q, "values": {str(i): v for i, v in enumerate(values)}}
                print(json.dumps(payload, sort_keys=True))
            else:
                # without --all the values are bare, one per label: `lens-d 1 1` prints just 0
                print("\n".join(f"{i}: {v}" for i, v in enumerate(values)) if args.all else "\n".join(values))
        else:
            if args.oracle:
                return _error("--oracle reports all labels (its labeling is method-internal)")
            d = str(lens_d(p, q, args.i))
            payload = {"command": "lens-d", "p": p, "q": q, "i": args.i, "d": d}
            print(json.dumps(payload, sort_keys=True) if args.json else d)
    except ValueError as exc:  # _error gives a work guard exit 3
        return _error(exc)
    return EXIT_OK


def cmd_mubar(args) -> int:
    if args.graph and (args.p, args.q, args.r) != (None, None, None):
        return _error("give a triple or --graph FILE, not both")
    if args.graph:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                G = PlumbingGraph.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return _error(f"cannot read graph file: {exc}")
    elif None in (args.p, args.q, args.r):
        return _error("give a triple or --graph FILE")
    try:
        if not args.graph:
            G = negdef_plumbing(_parse_triple(args))
        value = str(mubar(G))
    except ValueError as exc:  # _error gives a work guard exit 3
        return _error(exc)
    print(json.dumps({"command": "mubar", "mubar": value}, sort_keys=True) if args.json else value)
    return EXIT_OK


def _parse_families(spec: str) -> list[str]:
    spec = spec.strip().lower()
    names = [f.strip() for f in (spec.split("..", 1) if ".." in spec else spec.split(","))]
    for f in names:
        if f not in FAMILY_IDS:
            raise ValueError(f"unknown family {f!r}; expected one of {', '.join(FAMILY_IDS)}")
    if ".." in spec:
        return list(FAMILY_IDS[FAMILY_IDS.index(names[0]) : FAMILY_IDS.index(names[1]) + 1])
    return names


def _parse_range(spec: str) -> Sequence[int]:
    """``A..B`` as a lazy range (its least element is its first), else a comma-separated list."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return [int(x) for x in spec.split(",") if x.strip()]


def _conjecture_summary(v: dict) -> str:
    mark = "skip" if "computed" not in v else ("match" if v["matches"] else "DIFFERS")
    return f"predicted {v['predicted']} computed {v.get('computed', '-')} [{mark}] "


def cmd_verify(args) -> int:
    if args.json:
        return _error("verify prints text; --report writes JSON lines")
    task = args.task
    reports = []
    failed, stopped = False, EXIT_OK
    try:
        families = _parse_families(args.families)
        ns = _parse_range(args.n)
    except ValueError as exc:
        return _error(exc)
    if task in ("thm1.3", "cor1.6"):
        families = [f for f in families if f in SURGERY_FAMILIES]
    if task == "classify-e8" and args.bound < 2:
        return _error("classification bound must be >= 2")  # the least triple member is 2
    if task != "classify-e8":
        if any(n < 1 for n in (ns[:1] if isinstance(ns, range) else ns)):
            return _error("family parameter n must be >= 1")
        if not (families and ns):
            return _error(f"--families {args.families} --n {args.n} leaves nothing for {task} to run")
    if args.report:
        if task == "classify-e8":
            return _error(f"verify {task} writes no report; drop --report")
        # a bad report path fails before any work; the finished reports are written at the end
        try:
            open(args.report, "w", encoding="utf-8").close()
        except OSError as exc:
            return _error(f"cannot write report: {exc}")

    try:
        if task == "classify-e8":
            for t in classify_e8_brieskorn(args.bound):
                print(f"({t[0]},{t[1]},{t[2]})")
        else:
            # each family task: its verify function and the summary it prints per report
            run, summary = {
                "thm1.2": (verify_theorem_main, lambda v: ""),
                "thm1.3": (verify_correction_bound, lambda v: f"d = {v['d_surgery']} >= {v['bound']}: "),
                "cor1.6": (verify_unbounded_gap, lambda v: f"minimal rank {v['minimal_rank']} >= 4d = {4 * v['d']}: "),
                "rmk1.4": (verify_conjecture, _conjecture_summary),
            }[task]
            for fam in families:
                for n in ns:
                    rep = run(fam, n)
                    reports.append(rep)
                    # a report without clauses (a conjecture) has no verdict: its line ends in its kind
                    verdict = ("pass" if rep.passed else "FAIL") if rep.checks else f"({rep.kind})"
                    print(f"{task} ({fam}, n={n}): {summary(rep.values)}{verdict}")
                    if not rep.passed:
                        failed = True
                        for name, ok in rep.checks.items():
                            if not ok:
                                print(f"  failing clause: {name}", file=sys.stderr)
    except ScanGuardExceededError as exc:  # the reports finished before the guard are still written
        stopped = _error(exc)
    except ValueError as exc:
        return _error(exc)
    code = stopped or (EXIT_CLAUSE_FAILED if failed else EXIT_OK)

    if args.report:
        try:
            write_reports(reports, args.report)
        except OSError as exc:
            return _error(f"cannot write report: {exc}", code or EXIT_BAD_INPUT)
        print(f"report written: {args.report}")
    return code


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the main parser and again on every subparser (with
    # SUPPRESS defaults) so --json works on either side of the subcommand
    kw = {"default": argparse.SUPPRESS} if suppress else {"default": False}
    parser.add_argument("--json", action="store_true", help="print machine-readable JSON", **kw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(
        prog="plumbcalc",
        description="Exact invariants of plumbed 3-manifolds and integral lattices.",
    )
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("d", help="correction term of a Brieskorn sphere")
    _add_common(d, suppress=True)
    d.add_argument("p", type=int)
    d.add_argument("q", type=int)
    d.add_argument("r", type=int)
    d.set_defaults(fn=cmd_d)

    ld = sub.add_parser("lens-d", help="correction terms of a lens space")
    _add_common(ld, suppress=True)
    ld.add_argument("p", type=int)
    ld.add_argument("q", type=int)
    ld.add_argument("i", type=int, nargs="?", default=None)
    ld.add_argument("--all", action="store_true", help="print all p labels")
    ld.add_argument("--oracle", action="store_true", help="use the plumbing oracle instead of the recursion")
    ld.set_defaults(fn=cmd_lens_d)

    mb = sub.add_parser("mubar", help="Neumann-Siebenmann invariant")
    _add_common(mb, suppress=True)
    mb.add_argument("p", type=int, nargs="?", default=None)
    mb.add_argument("q", type=int, nargs="?", default=None)
    mb.add_argument("r", type=int, nargs="?", default=None)
    mb.add_argument("--graph", default=None, help="JSON plumbing-graph file")
    mb.set_defaults(fn=cmd_mubar)

    vf = sub.add_parser("verify", help="batch verification tasks")
    _add_common(vf, suppress=True)
    vf.add_argument("task", choices=["thm1.2", "thm1.3", "cor1.6", "rmk1.4", "classify-e8"])
    vf.add_argument("--families", default="i..xii")
    vf.add_argument("--n", default="1..3")
    vf.add_argument("--bound", type=int, default=60, help="scan bound for classify-e8")
    vf.add_argument("--report", default=None, help="write JSON-lines report here")
    vf.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        # argparse errors and internal bail-outs both surface as return codes
        return int(exc.code) if exc.code is not None else 0


if __name__ == "__main__":
    raise SystemExit(main())
