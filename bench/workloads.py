"""Seeded inputs of the four benchmark workloads.

This module never imports plumbcalc: the program only ever sees the argv
lists built here.  An item is one ``plumbcalc.cli.main(argv)`` call, a dict
with ``kind`` and ``argv`` plus whatever the correctness check of its kind
needs.  ``{report}`` in an argv stands for a per-item report path that the
worker fills in.

Why each workload exists (README.md has the full table):

* ``lens_surgery``: the lens-space descent recursion (``thm1.3`` surgery
  maxima up to p of about 21k), plus ``lens-d --all`` and its independent
  ``--oracle``, whose many shallow closest-vector searches are a second way
  of using the lattice layer.  Enumeration of plumbings is idle.
* ``d_plumbing``: deep characteristic-vector enumeration (``d P Q R`` over
  ranks 8 to 22, ``cor1.6``).  The lens recursion is idle.
* ``e8_certify``: dense exact elimination (``thm1.2`` reaches rank 136) and
  plumbing construction (``classify-e8``).  Enumeration and the lens
  recursion are idle.
* ``cli_session``: one client's closed loop of cheap queries with about 30%
  repeats, the only workload where the CLI's cache and parsing dominate.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import gcd
from pathlib import Path

FAMILIES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii")
SURGERY_FAMILIES = FAMILIES[:4]

POOL_FILE = Path(__file__).with_name("triples.json")
POOL_RANKS = range(8, 23)
TRIPLES_PER_RANK = 2

LENS_P_RANGE = (20, 60)
# L(p, q) per p in the range, q seeded; the first of each p also goes to --oracle
LENS_Q_PER_P = 3

SESSION_QUERIES = 1500
SESSION_REPEAT_SHARE = 0.3
# d 2 3 6k+-1 takes up to about 170 ms for k <= 12.  The ten slowest items of
# a session are then all d queries of every seed, so item_tail_ms is one of
# them (about 50 ms), not a seeded mubar.
SESSION_D_K = range(1, 13)
SESSION_D_SHARE = 0.04  # of new queries, until every d triple has been asked
SESSION_LENS_P_MAX = 400
SESSION_MUBAR_MAX = 40


def _verify(task: str, fam: str, n: int) -> dict:
    argv = ["verify", task, "--families", fam, "--n", str(n), "--report", "{report}"]
    return {"kind": task, "argv": argv, "family": fam, "n": n}


def _coprime_q(rng: random.Random, p: int) -> int:
    while True:
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            return q


def lens_surgery(rng: random.Random) -> tuple[list[dict], dict]:
    """thm1.3 members in a fixed order, then ``lens-d --all`` for
    LENS_Q_PER_P distinct L(p, q) per p in LENS_P_RANGE and ``--oracle`` for
    the first of them, with q and the order of these items seeded.

    The thm1.3 order is fixed because the items share ``lens._d_rec``, the
    process-wide memo: a shuffled order would move work between items.
    The oracle's cost varies tenfold with q at one p, while ``--all`` costs
    about the same for every q.  With three ``--all`` items per oracle item,
    the median item is an all-labels query whatever q the seed draws, so
    ``item_p50_ms`` does not hang on the seed's choice of q.
    """
    items = [_verify("thm1.3", fam, n) for fam in SURGERY_FAMILIES for n in range(1, 11)]
    lens = []
    for p in range(LENS_P_RANGE[0], LENS_P_RANGE[1] + 1):
        units = [q for q in range(1, p) if gcd(p, q) == 1]
        for j, q in enumerate(rng.sample(units, LENS_Q_PER_P)):
            base = ["lens-d", str(p), str(q), "--all"]
            lens.append({"kind": "lens_all", "argv": base, "p": p, "q": q})
            if j == 0:
                lens.append({"kind": "lens_oracle", "argv": base + ["--oracle"], "p": p, "q": q})
    rng.shuffle(lens)
    oracles = sum(item["kind"] == "lens_oracle" for item in lens)
    return items + lens, {"lens_spaces": len(lens) - oracles, "oracle_lens_spaces": oracles, "max_p_lens_d": LENS_P_RANGE[1]}


def d_plumbing(rng: random.Random) -> tuple[list[dict], dict]:
    pool = json.loads(POOL_FILE.read_text(encoding="utf-8"))["pool"]
    items = []
    for rank in POOL_RANKS:
        for entry in rng.sample(pool[str(rank)], TRIPLES_PER_RANK):
            p, q, r = entry["triple"]
            items.append({"kind": "d", "argv": ["d", str(p), str(q), str(r), "--json"], "triple": [p, q, r], "rank": rank})
    items += [_verify("cor1.6", fam, n) for fam in SURGERY_FAMILIES for n in range(1, 4)]
    rng.shuffle(items)
    ranks = Counter(item["rank"] for item in items if item["kind"] == "d")
    return items, {"rank_histogram": {str(k): ranks[k] for k in sorted(ranks)}}


def e8_certify(rng: random.Random) -> tuple[list[dict], dict]:
    items = [_verify("thm1.2", fam, n) for fam in FAMILIES for n in range(1, 7)]
    items.append({"kind": "classify", "argv": ["verify", "classify-e8", "--bound", "45"]})
    rng.shuffle(items)
    return items, {"thm1.2_members": len(items) - 1, "classify_bound": 45}


def _new_session_query(rng: random.Random, d_left: list) -> dict:
    u = rng.random()
    if d_left and u < SESSION_D_SHARE:
        p, q, r = d_left.pop()
        return {"kind": "d", "argv": ["d", str(p), str(q), str(r), "--json"], "triple": [p, q, r]}
    if u < 0.3:
        while True:
            p, q, r = sorted(rng.sample(range(2, SESSION_MUBAR_MAX + 1), 3))
            if gcd(p, q) == gcd(p, r) == gcd(q, r) == 1:
                return {"kind": "mubar", "argv": ["mubar", str(p), str(q), str(r)]}
    p = rng.randrange(2, SESSION_LENS_P_MAX)
    q = 1 if rng.random() < 0.1 else _coprime_q(rng, p)
    i = rng.randrange(p)
    return {"kind": "lens_i", "argv": ["lens-d", str(p), str(q), str(i)], "p": p, "q": q, "i": i}


def cli_session(rng: random.Random) -> tuple[list[dict], dict]:
    """Each query is new or, with SESSION_REPEAT_SHARE, a uniform pick of an
    earlier one; ``first`` is the index of the query's first occurrence."""
    d_left = [(2, 3, 6 * k + s) for k in SESSION_D_K for s in (-1, 1)]
    rng.shuffle(d_left)
    items: list[dict] = []
    first: dict[tuple, int] = {}
    for idx in range(SESSION_QUERIES):
        if items and rng.random() < SESSION_REPEAT_SHARE:
            item = dict(items[rng.randrange(len(items))])
        else:
            item = _new_session_query(rng, d_left)
            while tuple(item["argv"]) in first:
                item = _new_session_query(rng, d_left)
        item["first"] = first.setdefault(tuple(item["argv"]), idx)
        items.append(item)
    repeats = sum(item["first"] != idx for idx, item in enumerate(items))
    kinds = Counter(item["kind"] for item in items)
    return items, {"queries": len(items), "repeat_share": repeats / len(items), "mix": dict(sorted(kinds.items()))}


WORKLOADS = {
    "lens_surgery": lens_surgery,
    "d_plumbing": d_plumbing,
    "e8_certify": e8_certify,
    "cli_session": cli_session,
}


def generate(name: str, seed: int) -> tuple[list[dict], dict]:
    """The items of workload ``name`` for ``seed`` and a summary of them."""
    rng = random.Random(f"{name}:{seed}")
    items, summary = WORKLOADS[name](rng)
    for idx, item in enumerate(items):
        item["id"] = idx
    return items, {"seed": seed, "items": len(items), **summary}
