"""Command-line front end: ``plumbcalc [--json] COMMAND ARGUMENTS``.

Commands
--------
d P Q R            correction term of the Brieskorn sphere (exact rational)
lens-d P Q [I]     correction term(s) of the lens space L(P, Q): at label I, else every
                   label, numbered with --all, from the chain-plumbing oracle with --oracle
mubar P Q R        Neumann-Siebenmann invariant of the Brieskorn sphere
mubar --graph F    the same for an arbitrary odd-determinant plumbing tree (no triple with it)
verify TASK        batch verification: the family tasks thm1.2, thm1.3, cor1.6
                   and rmk1.4 read --families, --n and --report (one JSON line
                   per member); classify-e8 reads --bound only

--json, before or after the command, prints JSON.  Options are spelled in full,
as --name VALUE or --name=VALUE.  -h or --help prints this text.

All printed rationals are exact strings ("2", "81/46"); no decimals are ever
produced.  Exit codes: 0 success, 1 verification clause failure, 2 invalid
input, 3 work guard exceeded (the guards and their bounds are ``guards.GUARDS``).
Every command computes its answer afresh; nothing is cached between runs.
"""

from __future__ import annotations

import json
import re
import sys
from math import gcd
from types import SimpleNamespace
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
from .plumbing import BrieskornTriple, PlumbingGraph, brieskorn_star, mubar, star_mubar

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


def cmd_d(args) -> int:
    triple = BrieskornTriple(*sorted((args.p, args.q, args.r)))
    res = d_brieskorn(triple)
    value = {"d": str(res.value), "certificate": list(res.vector)}
    if args.json:
        print(json.dumps({"command": "d", "triple": list(triple.as_tuple()), **value}, sort_keys=True))
    else:
        print(value["d"])
    return EXIT_OK


def cmd_lens_d(args) -> int:
    p, q = args.p, args.q
    if args.i is not None:
        if args.all or args.oracle:
            return _error("--all and --oracle report every label; drop I")
        d = str(lens_d(p, q, args.i))
        payload = {"command": "lens-d", "p": p, "q": q, "i": args.i, "d": d}
        print(json.dumps(payload, sort_keys=True) if args.json else d)
        return EXIT_OK
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
    return EXIT_OK


def cmd_mubar(args) -> int:
    if args.graph and (args.p, args.q, args.r) != (None, None, None):
        return _error("give a triple or --graph FILE, not both")
    if args.graph:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                G = PlumbingGraph.from_json(json.load(fh))
        except (OSError, ValueError) as exc:
            return _error(f"cannot read graph file: {exc}")
        value = str(mubar(G))
    elif None in (args.p, args.q, args.r):
        return _error("give a triple or --graph FILE")
    else:  # the star's legs, no graph
        value = str(star_mubar(*brieskorn_star(BrieskornTriple(*sorted((args.p, args.q, args.r))))))
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
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return [int(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--n must be A..B or integers separated by commas, not {spec!r}") from None


def _conjecture_summary(v: dict) -> str:
    mark = "skip" if "computed" not in v else ("match" if v["matches"] else "DIFFERS")
    return f"predicted {v['predicted']} computed {v.get('computed', '-')} [{mark}] "


# each family task: its verify function, the families it covers and the summary it prints per report
FAMILY_TASKS = {
    "thm1.2": (verify_theorem_main, FAMILY_IDS, lambda v: ""),
    "thm1.3": (verify_correction_bound, SURGERY_FAMILIES, lambda v: f"d = {v['d_surgery']} >= {v['bound']}: "),
    "cor1.6": (verify_unbounded_gap, SURGERY_FAMILIES, lambda v: f"minimal rank {v['minimal_rank']} >= 4d = {4 * v['d']}: "),
    "rmk1.4": (verify_conjecture, FAMILY_IDS, _conjecture_summary),
}


def cmd_verify(args) -> int:
    if args.json:
        return _error("verify prints text; --report writes JSON lines")
    task = args.task
    if task == "classify-e8":  # a guard stop exits 3 through main
        if args.bound < 2:
            return _error("classification bound must be >= 2")  # the least triple member is 2
        for t in classify_e8_brieskorn(args.bound):
            print(f"({t[0]},{t[1]},{t[2]})")
        return EXIT_OK
    run, covered, summary = FAMILY_TASKS[task]
    families = [f for f in _parse_families(args.families) if f in covered]
    ns = _parse_range(args.n)
    if any(n < 1 for n in (ns[:1] if isinstance(ns, range) else ns)):
        return _error("family parameter n must be >= 1")
    if not (families and ns):
        return _error(f"--families {args.families} --n {args.n} leaves nothing for {task} to run")
    try:  # a bad report path fails before any work; the finished reports are written at the end
        report = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as exc:
        return _error(f"cannot write report: {exc}")

    reports, stopped = [], EXIT_OK
    try:
        for fam in families:
            for n in ns:
                rep = run(fam, n)
                reports.append(rep)
                # a report without clauses (a conjecture) has no verdict: its line ends in its kind
                verdict = ("pass" if rep.passed else "FAIL") if rep.checks else f"({rep.kind})"
                print(f"{task} ({fam}, n={n}): {summary(rep.values)}{verdict}")
                for name, ok in rep.checks.items():
                    if not ok:
                        print(f"  failing clause: {name}", file=sys.stderr)
    except ScanGuardExceededError as exc:  # the reports finished before the guard are still written
        stopped = _error(exc)
    code = stopped or (EXIT_OK if all(rep.passed for rep in reports) else EXIT_CLAUSE_FAILED)

    if report:
        try:
            with report:
                write_reports(reports, report)
        except OSError as exc:
            return _error(f"cannot write report: {exc}", code or EXIT_BAD_INPUT)
        print(f"report written: {args.report}")
    return code


# ---------------------------------------------------------------------------
# Command line

# verify's task words, each with the options it reads; parse_args refuses any other
VERIFY_TASKS = {**dict.fromkeys(FAMILY_TASKS, ("families", "n", "report")), "classify-e8": ("bound",)}
# command -> its function; its positionals with their kinds (int, or the words
# allowed), the first `required` of them needed; its flags; its valued options
# with their defaults (an int default takes an integer).  Every command also
# has the flag --json, which may come before it as well.
COMMANDS = {
    "d": (cmd_d, {"p": int, "q": int, "r": int}, 3, (), {}),
    "lens-d": (cmd_lens_d, {"p": int, "q": int, "i": int}, 2, ("all", "oracle"), {}),
    "mubar": (cmd_mubar, {"p": int, "q": int, "r": int}, 0, (), {"graph": None}),
    "verify": (cmd_verify, {"task": VERIFY_TASKS}, 1, (), {"families": "i..xii", "n": "1..3", "bound": 60, "report": None}),
}
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_option(token: str) -> bool:
    """A token starting with ``-`` is an option, unless it is ``-``, holds a space or reads as a negative number."""
    return token[:1] == "-" and token != "-" and " " not in token and not _NEGATIVE_NUMBER.match(token)


def _value(name: str, token: str, kind):
    if kind is int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"{name} must be an integer, not {token!r}") from None
    if kind is not str and token not in kind:
        raise ValueError(f"{name} must be one of {', '.join(kind)}, not {token!r}")
    return token


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The arguments of one command line as ``COMMANDS`` lists them, ``fn`` the command's function.

    An option is spelled in full, as ``--name value`` or ``--name=value``, and
    may come anywhere after its command and before ``--``, past which every
    token is a positional.  Raises ``ValueError`` on any other line.
    """
    k = 0
    while k < len(argv) and argv[k] == "--json":
        k += 1
    if k == len(argv) or argv[k] not in COMMANDS:
        got = repr(argv[k]) if k < len(argv) else "none"
        raise ValueError(f"expected a command, one of {', '.join(COMMANDS)}; got {got}")
    command = argv[k]
    fn, kinds, required, flags, options = COMMANDS[command]
    args = {"json": k > 0, **dict.fromkeys(kinds), **dict.fromkeys(flags, False), **options}
    given, named = [], []
    tokens = iter(argv[k + 1 :])
    for token in tokens:
        if token == "--":  # every later token is a positional
            given += tokens
            break
        option, eq, value = token.partition("=")
        name = option[2:] if option[:2] == "--" else None
        if name == "json" or name in flags:
            if eq:
                raise ValueError(f"{option} takes no value")
            args[name] = True
        elif name in options:
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise ValueError(f"{option} needs a value")
            args[name] = _value(option, value, int if type(options[name]) is int else str)
            named.append(name)
        elif _is_option(token):
            raise ValueError(f"{command} has no option {option}")
        else:
            given.append(token)
    if not required <= len(given) <= len(kinds):
        usage = " ".join(n.upper() if j < required else f"[{n.upper()}]" for j, n in enumerate(kinds))
        raise ValueError(f"{command} takes {usage}; got {' '.join(given) or 'none'}")
    for (name, kind), token in zip(kinds.items(), given):
        args[name] = _value(name, token, kind)
    for name in named:  # a verify task reads only its own options; every other command reads all of its
        if name not in VERIFY_TASKS.get(args.get("task"), options):
            raise ValueError(f"verify {args['task']} has no option --{name}")
    return SimpleNamespace(fn=fn, **args)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return EXIT_OK
    try:
        args = parse_args(argv)
        return args.fn(args)
    except ValueError as exc:  # a refused command line or input; _error gives a work guard exit 3
        return _error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
