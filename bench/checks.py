"""Correctness checks of benchmark items, run after the timed region.

``check(item, outcome, items, outcomes)`` returns ``None`` when the item's
output is right, else a one-line reason.  ``outcome`` has the item's exit
code ``rc``, its standard output ``out`` and the text of its ``--report``
file.  The batch's ``items`` and ``outcomes``, indexed by item id, let paired
items and repeated queries be compared.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

from plumbcalc import BrieskornTriple, d_surgery, graph_to_gram, negdef_plumbing, surgery_parameters

CLASSIFY_E8_45 = ["(2,3,5)", "(3,4,7)"]


def _reports(outcome: dict) -> list[dict]:
    return [json.loads(line) for line in outcome["report"].splitlines() if line.strip()]


def _certificate_error(triple: list[int], d: Fraction, cert: list[int]) -> str | None:
    """c must be characteristic (G c = diag G mod 2) with c.G.c + rank = 4d."""
    gram = graph_to_gram(negdef_plumbing(BrieskornTriple(*triple)))
    rows, n = gram.rows, gram.rank
    if len(cert) != n:
        return f"certificate has length {len(cert)}, rank is {n}"
    gc = [sum(rows[i][j] * cert[j] for j in range(n)) for i in range(n)]
    if any((gc[i] - rows[i][i]) % 2 for i in range(n)):
        return "certificate is not characteristic"
    if sum(cert[i] * gc[i] for i in range(n)) + n != 4 * d:
        return "c.G.c + rank != 4d"
    return None


def _labelled_values(out: str) -> Counter:
    return Counter(Fraction(line.split(":", 1)[1].strip()) for line in out.splitlines() if line.strip())


def input_notes(items: list[dict]) -> dict:
    """Input sizes only the program's tables know: the surgery lens orders."""
    orders = [surgery_parameters(item["family"], item["n"]).p for item in items if item["kind"] == "thm1.3"]
    return {"max_p_surgery": max(orders)} if orders else {}


def check(item: dict, outcome: dict, items: list[dict], outcomes: list[dict]) -> str | None:
    if outcome.get("error"):
        return outcome["error"]
    if outcome["rc"] != 0:
        return f"exit code {outcome['rc']}"
    kind, out = item["kind"], outcome["out"]

    if kind in ("thm1.2", "thm1.3", "cor1.6"):
        reports = _reports(outcome)
        if len(reports) != 1 or not reports[0]["passed"]:
            return "report missing or not passed"
        if kind == "cor1.6":
            expected = d_surgery(surgery_parameters(item["family"], item["n"]).descriptor()).value
            if Fraction(reports[0]["values"]["d"]) != expected:
                return f"d = {reports[0]['values']['d']} but d_surgery = {expected}"
    elif kind == "classify":
        if out.split() != CLASSIFY_E8_45:
            return f"classify-e8 found {out.split()}"
    elif kind == "d":
        res = json.loads(out)
        d = Fraction(res["d"])
        p, q, r = item["triple"]
        if (p, q) == (2, 3) and d != (2 if r % 6 == 5 else 0):
            return f"d(2,3,{r}) = {d}"
        err = _certificate_error(item["triple"], d, res["certificate"])
        if err:
            return err
    elif kind == "lens_oracle":
        pair = next(o for i, o in zip(items, outcomes) if i["kind"] == "lens_all" and (i["p"], i["q"]) == (item["p"], item["q"]))
        if _labelled_values(out) != _labelled_values(pair["out"]):
            return "oracle multiset differs from --all"
    elif kind == "lens_all":
        if sum(_labelled_values(out).values()) != item["p"]:
            return "wrong number of labels"
    elif kind == "lens_i" and item["q"] == 1:
        p, i = item["p"], item["i"]
        if Fraction(out.strip()) != Fraction((2 * i - p) ** 2 - p, 4 * p):
            return "lens-d p 1 i differs from ((2i-p)^2-p)/(4p)"
    elif kind == "mubar":
        if Fraction(out.strip()).denominator != 1:
            return "mu-bar of a homology sphere must be an integer"

    if item.get("first", item["id"]) != item["id"] and out != outcomes[item["first"]]["out"]:
        return "repeated query answered differently"
    return None
