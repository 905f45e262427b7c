"""Rebuild ``triples.json``, the candidate pool of the ``d_plumbing`` workload.

The pool holds, for each canonical-plumbing rank from 8 to 22, coprime
Brieskorn triples p < q < r whose ``d`` the enumeration finished within
LIMIT_S seconds when the pool was built (of TRIES timed per rank), and of
those the PER_RANK whose time was closest to the rank's median.  Exact
enumeration cost varies by three orders of magnitude between triples of one
rank (one rank-22 triple took 33 s where its neighbours took 0.2 s), so an
unfiltered draw would make run length, and the spread between seeds,
unbounded.  The workload draws from this fixed file; it never calls the
program to choose its inputs.

    PYTHONPATH=src python3 bench/make_pool.py > bench/triples.json
"""

from __future__ import annotations

import json
import math
import random
import signal
import statistics
import sys
import time
from math import gcd

from plumbcalc import BrieskornTriple, d_from_plumbing, negdef_plumbing

RANKS = range(8, 23)
LIMIT_S = 0.3  # seconds one d may take
PER_RANK = 12
TRIES = 40  # candidates timed per rank


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def main() -> int:
    by_rank: dict[int, list[tuple[int, int, int]]] = {rk: [] for rk in RANKS}
    for p in range(2, 12):
        for q in range(p + 1, 40):
            for r in range(q + 1, 120):
                if gcd(p, q) == 1 and gcd(p, r) == 1 and gcd(q, r) == 1:
                    rank = negdef_plumbing(BrieskornTriple(p, q, r)).rank
                    if rank in by_rank:
                        by_rank[rank].append((p, q, r))

    rng = random.Random(0)
    signal.signal(signal.SIGALRM, _alarm)
    pool: dict[str, list[dict]] = {}
    for rank, cands in by_rank.items():
        timed: list[dict] = []
        for t in rng.sample(cands, min(TRIES, len(cands))):
            signal.setitimer(signal.ITIMER_REAL, 4 * LIMIT_S)
            try:
                t0 = time.perf_counter()
                d_from_plumbing(negdef_plumbing(BrieskornTriple(*t)))
                secs = time.perf_counter() - t0
            except _Timeout:
                secs = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            print(f"rank {rank} {t}: {secs}", file=sys.stderr)
            if secs is not None and secs <= LIMIT_S:
                timed.append({"triple": list(t), "seconds": round(secs, 3)})
        mid = math.log(statistics.median(e["seconds"] for e in timed))
        timed.sort(key=lambda e: abs(math.log(e["seconds"]) - mid))
        pool[str(rank)] = sorted(timed[:PER_RANK], key=lambda e: e["triple"])
    json.dump({"limit_s": LIMIT_S, "pool": pool}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
