import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import plumbcalc.cli
import plumbcalc.families
import plumbcalc.lattice
import plumbcalc.plumbing
from plumbcalc.cli import COMMANDS, VERIFY_TASKS, main, parse_args
from plumbcalc.families import FAMILY_IDS, VerificationReport
from plumbcalc.guards import GUARDS
from plumbcalc.lattice import determinant, signature, wu_class
from plumbcalc.lens import d_from_plumbing, lens_d_all
from plumbcalc.plumbing import (
    BrieskornTriple,
    PlumbingGraph,
    _tree_eliminate,
    graph_to_gram,
    mubar,
    negdef_plumbing,
    star_graph,
    ue_spin_bound,
)
from test_plumbing import _random_tree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDCommand:
    def test_poincare(self, capsys):
        code, out, _ = run(capsys, "d", "2", "3", "5")
        assert code == 0 and out.strip() == "2"

    def test_sigma237(self, capsys):
        code, out, _ = run(capsys, "d", "2", "3", "7")
        assert code == 0 and out.strip() == "0"

    def test_not_coprime_exits_2(self, capsys):
        code, _, err = run(capsys, "d", "2", "3", "4")
        assert code == 2 and "coprime" in err

    def test_scan_guard_exits_3_quickly(self, capsys, monkeypatch):
        # the guard is checked on the multiplicities before the plumbing (rank
        # 1666674 for the first triple) is built
        def build(*args, **kwargs):
            raise AssertionError("the plumbing was built")

        monkeypatch.setattr(plumbcalc.plumbing, "star_graph", build)
        for argv, err_want in [
            (("2", "3", "10000001"), "multiplicity sum guard exceeded: sum of multiplicities 10000006 > 133333"),
            (("2", "3", "100000001"), "multiplicity sum guard exceeded: sum of multiplicities 100000006 > 133333"),
            (("101", "11857", "20298"), "tau window guard exceeded: window points 4536597 > 2000000"),
        ]:
            t0 = time.monotonic()
            code, out, err = run(capsys, "d", *argv)
            assert code == 3 and out == ""
            assert err == f"error: {err_want}\n"
            assert time.monotonic() - t0 < 2.0

    def test_prod_alpha_past_the_old_scan_guard_computes(self, capsys):
        # prod alpha = 104102821, but the tau window has 54302 points
        code, out, _ = run(capsys, "d", "101", "103", "10007")
        assert code == 0 and out == "10\n"

    def test_repeated_json_query_is_identical(self, capsys):
        outs = [run(capsys, "--json", "d", "2", "3", "5")[1] for _ in range(2)]
        assert outs[0] == outs[1] == '{"certificate": [0, 0, 0, 0, 0, 0, 0, 0], "command": "d", "d": "2", "triple": [2, 3, 5]}\n'

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "d", "2", "3", "5")
        payload = json.loads(out)
        assert payload["d"] == "2"
        assert payload["triple"] == [2, 3, 5]
        assert len(payload["certificate"]) == 8

    def test_triple_order_normalized(self, capsys):
        code1, out1, _ = run(capsys, "d", "9", "2", "5")
        code2, out2, _ = run(capsys, "d", "2", "5", "9")
        assert code1 == code2 == 0 and out1 == out2 == "2\n"


class TestLensCommand:
    def test_all_labels(self, capsys):
        code, out, _ = run(capsys, "lens-d", "23", "2", "--all")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 23
        assert lines[1] == "1: 81/46"

    def test_s3(self, capsys):
        code, out, _ = run(capsys, "lens-d", "1", "1")
        assert code == 0 and out.strip() == "0"

    def test_bare_listing_without_all_flag(self, capsys):
        code, out, _ = run(capsys, "lens-d", "3", "1")
        assert code == 0 and out.strip().split("\n") == ["1/2", "-1/6", "-1/6"]

    def test_single_label(self, capsys):
        code, out, _ = run(capsys, "lens-d", "23", "2", "1")
        assert code == 0 and out.strip() == "81/46"

    def test_oracle_multiset_matches(self, capsys):
        _, out1, _ = run(capsys, "lens-d", "23", "2", "--all")
        _, out2, _ = run(capsys, "lens-d", "23", "2", "--all", "--oracle")
        vals1 = sorted(line.split(": ")[1] for line in out1.strip().split("\n"))
        vals2 = sorted(line.split(": ")[1] for line in out2.strip().split("\n"))
        assert vals1 == vals2

    def test_repeated_lens_query_is_identical(self, capsys):
        outs = [run(capsys, "lens-d", "12", "5")[1] for _ in range(2)]
        assert outs[0] == outs[1] and outs[0].split("\n")[:3] == ["5/12", "1/6", "3/4"]

    def test_all_labels_print_the_fractions_of_lens_d_all(self, capsys):
        # the integer numerators are reduced once per label; the text and JSON
        # outputs equal the formatting of lens_d_all's Fractions for every p <= 60
        for p in range(1, 61):
            for q in (q for q in range(1, p + 1) if gcd(p, q) == 1):
                want = {str(i): str(v) for i, v in lens_d_all(p, q).items()}
                assert run(capsys, "lens-d", str(p), str(q), "--all")[1] == "".join(f"{i}: {v}\n" for i, v in want.items())
                payload = {"command": "lens-d", "p": p, "q": q, "values": want}
                assert run(capsys, "--json", "lens-d", str(p), str(q))[1] == json.dumps(payload, sort_keys=True) + "\n"

    def test_no_decimal_output(self, capsys):
        _, out, _ = run(capsys, "lens-d", "12", "5", "--all")
        assert "." not in out

    @pytest.mark.parametrize(
        "argv, guard, msg",
        [
            (["lens-d", "1000000007", "2", "--all"], 600000, "lens labels guard exceeded: labels evaluated 1000000007 > 600000"),
            # thm1.3 counts the labels it evaluates: (iii) at n = 1000 needs 45191
            (
                ["verify", "thm1.3", "--families", "iii", "--n", "1000"],
                45190,
                "lens labels guard exceeded: labels evaluated 45191 > 45190",
            ),
        ],
        ids=["lens-d-all", "thm1.3"],
    )
    def test_label_guard_exits_3_quickly(self, capsys, monkeypatch, argv, guard, msg):
        monkeypatch.setitem(GUARDS, "lens labels", GUARDS["lens labels"]._replace(bound=guard))
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"error: {msg}\n"
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.parametrize("p", [8001, 10000, 1000000007])
    def test_oracle_guard_exits_3_quickly(self, capsys, p):
        t0 = time.monotonic()
        code, out, err = run(capsys, "lens-d", str(p), "11", "--all", "--oracle")
        assert code == 3 and out == ""
        assert err == f"error: oracle lens order guard exceeded: lens order {p} > 8000\n"
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.parametrize("flag", ["--all", "--oracle"])
    def test_label_with_an_all_labels_flag_exits_2(self, capsys, flag):
        # both flags report every label, so a label I with either is refused, not dropped
        assert run(capsys, "lens-d", "5", "2", "3", flag) == (2, "", "error: --all and --oracle report every label; drop I\n")

    def test_oracle_guard_admits_p_8000(self, capsys):
        # the guard itself, the old guard p = 144, and p = 60, which the benchmark's --oracle items reach
        for p, q in ((8000, 7), (144, 7), (60, 7)):
            code, out, _ = run(capsys, "lens-d", str(p), str(q), "--all", "--oracle")
            assert code == 0 and len(out.strip().split("\n")) == p


class TestMubarCommand:
    def test_triples(self, capsys):
        for triple, expected in ((("2", "3", "5"), "-1"), (("2", "5", "9"), "-1"), (("2", "3", "7"), "1")):
            code, out, _ = run(capsys, "mubar", *triple)
            assert code == 0 and out.strip() == expected

    def test_one_elimination_per_triple(self, capsys, monkeypatch):
        calls, built = [], []
        eliminate, star = plumbcalc.plumbing._tree_eliminate, plumbcalc.plumbing.star_graph
        monkeypatch.setattr(plumbcalc.plumbing, "_tree_eliminate", lambda G: calls.append(G.rank) or eliminate(G))
        monkeypatch.setattr(plumbcalc.plumbing, "star_graph", lambda *args: built.append(args) or star(*args))
        # mubar reads the star's legs and builds no tree; d builds the tree (rank 9) and eliminates it once
        for argv, want, ranks in ((("mubar", "2", "3", "11"), "0", []), (("d", "2", "3", "11"), "2", [9])):
            calls.clear()
            built.clear()
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.strip() == want
            assert calls == ranks and len(built) == len(ranks), argv
        # the library calls share the elimination negdef_plumbing's check ran
        calls.clear()
        g = negdef_plumbing(BrieskornTriple(2, 13, 23))
        assert (mubar(g), ue_spin_bound(g), d_from_plumbing(g).value) == (-1, (8, 8, -1), 2)
        assert calls == [g.rank]

    def test_multiplicity_guard_exits_3_quickly(self, capsys, monkeypatch):
        # the bound on P+Q+R is checked before a leg (total length 1666673) is expanded or a plumbing built
        def build(*args, **kwargs):
            raise AssertionError("the plumbing was built")

        monkeypatch.setattr(plumbcalc.plumbing, "star_graph", build)
        monkeypatch.setattr(plumbcalc.plumbing, "_hj_word", build)
        t0 = time.monotonic()
        code, out, err = run(capsys, "mubar", "2", "3", "10000001")
        assert code == 3 and out == ""
        assert err == "error: multiplicity sum guard exceeded: sum of multiplicities 10000006 > 133333\n"
        assert time.monotonic() - t0 < 0.5

    def test_graph_file(self, capsys, tmp_path):
        g = star_graph(-1, [[-2], [-3], [-7]])  # Sigma(2,3,7) plumbing
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_json()))
        code, out, _ = run(capsys, "mubar", "--graph", str(path))
        assert code == 0 and out.strip() == "1"

    def test_triple_and_its_graph_file_agree(self, capsys, tmp_path):
        # `mubar P Q R` reads the star's legs, `mubar --graph F` eliminates the tree: they share only the legs
        rng, path, seen = random.Random(34), tmp_path / "g.json", 0
        while seen < 50:
            p, q, r = sorted(rng.sample(range(2, 200), 3))
            if gcd(p, q) != 1 or gcd(p, r) != 1 or gcd(q, r) != 1:
                continue
            seen += 1
            path.write_text(json.dumps(negdef_plumbing(BrieskornTriple(p, q, r)).to_json()))
            by_graph = run(capsys, "mubar", "--graph", str(path))
            assert by_graph[0] == 0 and by_graph == run(capsys, "mubar", str(r), str(p), str(q)), (p, q, r)

    def test_graph_with_zero_pivots_matches_the_fraction_kernel(self, capsys, tmp_path):
        """`mubar --graph` on indefinite trees whose tree elimination meets a
        zero pivot, against (sigma - w^T G w) / 8 from the lattice module's
        Fraction kernel: the unimodular path (0, 3, 5, 0) and seeded trees with
        weights in [-2, 2] and odd determinant."""
        rng = random.Random(2024)
        trees = [PlumbingGraph((0, 3, 5, 0), ((0, 1), (1, 2), (2, 3)))]
        while len(trees) < 80:
            G = _random_tree(rng, rng.randint(2, 10), -2, 2)
            if determinant(graph_to_gram(G)) % 2:
                trees.append(G)
        path, blocks = tmp_path / "g.json", 0
        for G in trees:
            gram = graph_to_gram(G)
            path.write_text(json.dumps(G.to_json()))
            code, out, _ = run(capsys, "mubar", "--graph", str(path))
            assert code == 0 and out == f"{Fraction(signature(gram).sigma - gram.norm(wu_class(gram)), 8)}\n", G
            blocks += max(_tree_eliminate(G).pair) >= 0
        assert determinant(graph_to_gram(trees[0])) == 1 and max(_tree_eliminate(trees[0]).pair) >= 0
        assert blocks >= 20

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([{"id": 0, "weight": -2}], None),
            ({"vertices": [{"id": 0, "weight": None}], "edges": []}, None),
            ({"vertices": [{"id": 0, "weight": -1.5}], "edges": []}, None),
            ({"vertices": [{"id": 0, "weight": True}], "edges": []}, None),
            ({"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], "edges": [[0.0, True]]}, None),
            ({"vertices": [{"id": 0.0, "weight": -2}, {"id": True, "weight": -2}], "edges": [[0, 1]]}, None),
            (
                {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], "edges": [[0, 5]]},
                "edge [0, 5] does not join two vertex ids",
            ),
            (
                {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], "edges": [[0, 1, 1]]},
                "edge [0, 1, 1] does not join two vertex ids",
            ),
            ({"vertices": [{"weight": -2}], "edges": []}, "vertex {'weight': -2} needs an id and a weight"),
            ({"vertices": [5], "edges": []}, "vertex 5 needs an id and a weight"),
            ({"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], "edges": [5]}, "edge 5 does not join two vertex ids"),
        ],
        ids=[
            "top-level-list",
            "null-weight",
            "float-weight",
            "bool-weight",
            "float-bool-endpoints",
            "float-bool-ids",
            "unknown-endpoint",
            "three-endpoints",
            "missing-id",
            "non-object-vertex",
            "non-list-edge",
        ],
    )
    def test_malformed_graph_file_exits_2(self, capsys, tmp_path, payload, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "mubar", "--graph", str(path))
        assert code == 2 and "cannot read graph file" in err and "Traceback" not in err
        if message:  # the message names the bad edge or vertex
            assert err == f"error: cannot read graph file: {message}\n"

    @pytest.mark.parametrize(
        "payload",
        [[1, 2], {"edges": []}, {"vertices": 5, "edges": []}, 5, {"vertices": [{"id": 0, "weight": -2}], "edges": {}}],
        ids=["list", "no-vertices", "int-vertices", "int", "object-edges"],
    )
    def test_graph_file_top_level_must_be_an_object_of_two_lists(self, capsys, tmp_path, payload):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        shape = 'a graph file holds one JSON object {"vertices": [...], "edges": [...]}'
        assert run(capsys, "mubar", "--graph", str(path)) == (2, "", f"error: cannot read graph file: {shape}\n")

    def test_fuzzed_graph_files_exit_0_or_2(self, capsys, tmp_path):
        """4000 seeded JSON values: random ones, and README-format trees with up to two random edits.
        No run raises; a value README's format refuses exits 2 as an unreadable graph file; a tree
        exits 0 with its mu-bar when its determinant is odd, else 2 from the Wu class."""
        rng, path, tally = random.Random(33), tmp_path / "g.json", Counter()
        for k in range(4000):
            if k % 3 == 0:
                payload = _fuzz_value(rng)
            else:
                payload = _random_tree(rng, rng.randint(1, 6), -4, 2).to_json()
                for _ in range(rng.randint(0, 2)):
                    payload = _fuzz_edit(rng, payload)
            path.write_text(json.dumps(payload))
            code, out, err = run(capsys, "mubar", "--graph", str(path))
            G = _reference_graph(payload)
            if G is None:
                assert (code, out) == (2, "") and err.startswith("error: cannot read graph file: "), payload
                tally["refused"] += 1
            elif determinant(graph_to_gram(G)) % 2:
                assert (code, out, err) == (0, f"{mubar(G)}\n", ""), payload
                tally["read"] += 1
            else:
                assert (code, out, err) == (2, "", "error: Gram matrix is singular mod 2\n"), payload
                tally["even"] += 1
            assert err.count("\n") == code // 2 and "Traceback" not in err, payload
        assert min(tally["refused"], tally["read"], tally["even"]) >= 200, tally

    def test_missing_args(self, capsys, tmp_path):
        assert run(capsys, "mubar") == (2, "", "error: give a triple or --graph FILE\n")
        path = tmp_path / "g.json"
        path.write_text(json.dumps(PlumbingGraph((-2,), ()).to_json()))
        both = "error: give a triple or --graph FILE, not both\n"
        assert run(capsys, "mubar", "2", "3", "5", "--graph", str(path)) == (2, "", both)

    def test_zero_multiplicity_is_invalid_not_missing(self, capsys):
        # a 0 is a given multiplicity: rejected as `d 0 3 5` rejects it
        for cmd in ("mubar", "d"):
            assert run(capsys, cmd, "0", "3", "5") == (2, "", "error: Brieskorn multiplicities must be >= 2\n")


_FUZZ_KEYS = ("vertices", "edges", "id", "weight", "x")


def _fuzz_value(rng: random.Random, depth: int = 0):
    """A seeded random JSON value: scalars, and lists and objects (keys from the graph format) to depth 3."""
    kind = rng.randrange(8 if depth < 3 else 5)
    if kind < 5:
        return [None, rng.random() < 0.5, rng.randint(-3, 6), rng.choice((0.0, -2.5)), rng.choice(_FUZZ_KEYS)][kind]
    if kind < 7:
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(_FUZZ_KEYS): _fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def _fuzz_edit(rng: random.Random, value):
    """``value`` with one random node replaced, dropped or duplicated (it is edited in place)."""
    if not isinstance(value, (list, dict)) or not value or rng.random() < 0.2:
        return _fuzz_value(rng)
    key = rng.choice(range(len(value)) if isinstance(value, list) else list(value))
    action = rng.random()
    if action < 0.6:
        value[key] = _fuzz_edit(rng, value[key])
    elif action < 0.8:
        del value[key]
    elif isinstance(value, list):
        value.append(json.loads(json.dumps(value[key])))
    else:
        value[rng.choice(_FUZZ_KEYS)] = _fuzz_value(rng)
    return value


def _reference_graph(data) -> "PlumbingGraph | None":
    """The tree README's graph format reads from ``data``, or None where the format refuses it: an object
    with lists "vertices" (objects with distinct integer "id"s and integer "weight"s) and "edges" (pairs of
    ids), which must join the vertices into one tree."""
    if not isinstance(data, dict) or not all(type(data.get(k)) is list for k in ("vertices", "edges")):
        return None
    vertices, edges = data["vertices"], data["edges"]
    if not all(type(v) is dict and type(v.get("id")) is int and type(v.get("weight")) is int for v in vertices):
        return None
    ids = sorted(v["id"] for v in vertices)
    if not ids or len(set(ids)) < len(ids) or len(edges) != len(ids) - 1:
        return None
    if not all(type(e) is list and len(e) == 2 and all(type(x) is int and x in ids for x in e) for e in edges):
        return None
    root = {x: x for x in ids}  # union-find: n - 1 edges make a tree exactly when each joins two components

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in edges:
        if find(a) == find(b):
            return None
        root[find(a)] = find(b)
    order = {x: k for k, x in enumerate(ids)}
    weights = [0] * len(ids)
    for v in vertices:
        weights[order[v["id"]]] = v["weight"]
    return PlumbingGraph(tuple(weights), tuple((order[a], order[b]) for a, b in edges))


class TestVerifyCommand:
    def test_thm12_subset(self, capsys, tmp_path):
        report = tmp_path / "out.jsonl"
        code, out, _ = run(
            capsys, "verify", "thm1.2", "--families", "i,viii", "--n", "1..2", "--report", str(report)
        )
        assert code == 0
        assert out.count("pass") == 4
        lines = report.read_text().strip().split("\n")
        assert len(lines) == 4
        assert all(json.loads(line)["passed"] for line in lines)

    def test_report_carries_the_seifert_repr(self, capsys, tmp_path):
        report = tmp_path / "out.jsonl"
        assert run(capsys, "verify", "thm1.2", "--families", "i", "--n", "1", "--report", str(report))[0] == 0
        values = json.loads(report.read_text())["values"]
        assert values["seifert_table"] == "SeifertData(e=1, branches=((2, 1), (5, 2), (9, 1)))"

    def test_thm13_subset(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1.3", "--families", "i..iv", "--n", "1..1")
        assert code == 0
        assert out.count("pass") == 4
        # the default families i..xii run the four with surgery tables
        assert run(capsys, "verify", "thm1.3", "--n", "1..1") == (0, out, "")

    def test_classify_small(self, capsys):
        code, out, _ = run(capsys, "verify", "classify-e8", "--bound", "10")
        assert code == 0
        assert out.strip().split("\n") == ["(2,3,5)", "(3,4,7)"]

    @pytest.mark.parametrize("bound", ["1", "0", "-7"])
    def test_classify_bound_below_two_exits_2(self, capsys, bound):
        # no triple has a member below 2: the scan would print nothing and pass, so the bound is refused
        code, out, err = run(capsys, "verify", "classify-e8", "--bound", bound)
        assert (code, out, err) == (2, "", "error: classification bound must be >= 2\n")

    def test_rmk14_is_report_only(self, capsys):
        code, out, _ = run(capsys, "verify", "rmk1.4", "--families", "vii", "--n", "1..1")
        assert code == 0
        assert "conjecture" in out

    def test_rmk14_scan_guard_skips_quickly(self, capsys):
        # a tau window of 3741539 points; the guard is checked before the
        # plumbing (rank 10011) is built
        t0 = time.monotonic()
        code, out, _ = run(capsys, "verify", "rmk1.4", "--families", "v", "--n", "400")
        assert code == 0
        assert out == "rmk1.4 (v, n=400): predicted 2400 computed - [skip] (conjecture)\n"
        assert time.monotonic() - t0 < 2.0

    def test_rmk14_report_has_one_conjecture_line_per_member(self, capsys, tmp_path):
        report = tmp_path / "out.jsonl"
        code, out, _ = run(capsys, "verify", "rmk1.4", "--families", "v", "--n", "1,400", "--report", str(report))
        assert code == 0
        assert out == (
            "rmk1.4 (v, n=1): predicted 6 computed 6 [match] (conjecture)\n"
            "rmk1.4 (v, n=400): predicted 2400 computed - [skip] (conjecture)\n"
            f"report written: {report}\n"
        )
        match, skip = [json.loads(line) for line in report.read_text().splitlines()]
        assert match["kind"] == skip["kind"] == "conjecture"
        assert match["passed"] and match["checks"] == {} and match["notes"] == []
        assert match["values"] == {"triple": [5, 33, 47], "predicted": 6, "computed": 6, "matches": True}
        assert skip["passed"] and "computed" not in skip["values"] and "matches" not in skip["values"]
        assert skip["notes"] == ["skipped: tau window guard exceeded: window points 3741539 > 2000000"]

    def test_rmk14_mismatch_is_flagged_not_failed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(plumbcalc.families, "conjectured_d", lambda fam, n: 99)
        report = tmp_path / "out.jsonl"
        code, out, err = run(capsys, "verify", "rmk1.4", "--families", "vii", "--n", "1", "--report", str(report))
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "rmk1.4 (vii, n=1): predicted 99 computed 2 [DIFFERS] (conjecture)"
        (line,) = [json.loads(line) for line in report.read_text().splitlines()]
        assert line["passed"] and line["values"]["matches"] is False

    def test_guard_stop_keeps_the_finished_reports(self, capsys, tmp_path, monkeypatch):
        # with the label guard at 180, n = 3 (172 labels evaluated) passes and n = 4 (191) stops
        monkeypatch.setitem(GUARDS, "lens labels", GUARDS["lens labels"]._replace(bound=180))
        report = tmp_path / "out.jsonl"
        code, out, err = run(capsys, "verify", "thm1.3", "--families", "iii", "--n", "3..4", "--report", str(report))
        assert code == 3
        assert out == f"thm1.3 (iii, n=3): d = 4 >= 4: pass\nreport written: {report}\n"
        assert err == "error: lens labels guard exceeded: labels evaluated 181 > 180\n"
        (line,) = [json.loads(line) for line in report.read_text().splitlines()]
        assert (line["n"], line["passed"], line["values"]["d_surgery"]) == (3, True, 4)

    def test_thm13_runs_where_p_exceeds_the_label_guard(self, capsys):
        # (ii) at n = 60 has p = 609068 past the lens labels guard but evaluates about 2500 labels
        t0 = time.monotonic()
        assert run(capsys, "verify", "thm1.3", "--families", "ii", "--n", "60") == (0, "thm1.3 (ii, n=60): d = 62 >= 62: pass\n", "")
        assert time.monotonic() - t0 < 1.0

    def test_thm12_multiplicity_guard_exits_3_before_the_plumbing(self, capsys, monkeypatch):
        # (v) at n = 200000: P+Q+R = 17000000 would expand legs of total length 5000010
        def build(*args, **kwargs):
            raise AssertionError("the plumbing was built")

        monkeypatch.setattr(plumbcalc.plumbing, "star_graph", build)
        monkeypatch.setattr(plumbcalc.plumbing, "_hj_word", build)
        t0 = time.monotonic()
        code, out, err = run(capsys, "verify", "thm1.2", "--families", "v", "--n", "200000")
        assert code == 3 and out == ""
        assert err == "error: multiplicity sum guard exceeded: sum of multiplicities 17000000 > 133333\n"
        assert time.monotonic() - t0 < 1.0

    def test_cor16_multiplicity_guard_exits_3_before_the_plumbing(self, capsys, monkeypatch):
        # (i) at n = 10000: P+Q+R = 219994 would build a plumbing of rank 40008 before d runs
        def build(*args, **kwargs):
            raise AssertionError("the plumbing was built")

        monkeypatch.setattr(plumbcalc.plumbing, "star_graph", build)
        t0 = time.monotonic()
        code, out, err = run(capsys, "verify", "cor1.6", "--families", "i", "--n", "10000")
        assert code == 3 and out == ""
        assert err == "error: multiplicity sum guard exceeded: sum of multiplicities 219994 > 133333\n"
        assert time.monotonic() - t0 < 1.0

    def test_cor16_scan_guard_exits_3_before_the_dense_gram(self, capsys, monkeypatch):
        # d's tau-window guard fires before the leg tables (or any dense Gram) are built
        def dense(*args, **kwargs):
            raise AssertionError("the dense Gram was built")

        def tables(*args, **kwargs):
            raise AssertionError("the leg tables were built")

        monkeypatch.setattr(plumbcalc.families, "graph_to_gram", dense)
        monkeypatch.setattr(plumbcalc.plumbing, "_leg_minima", tables)
        t0 = time.monotonic()
        code, out, err = run(capsys, "verify", "cor1.6", "--families", "i", "--n", "1647")
        assert code == 3 and out == ""
        assert err == "error: tau window guard exceeded: window points 2000237 > 2000000\n"
        assert time.monotonic() - t0 < 2.0

    def test_cor16_leg_tables_guard_exits_3(self, capsys, monkeypatch):
        # (ii) at n = 645: d runs (rank 2590), then the leg tables guard stops the unit count
        def tables(*args, **kwargs):
            raise AssertionError("the leg tables were built")

        monkeypatch.setattr(plumbcalc.plumbing, "_leg_minima", tables)
        t0 = time.monotonic()
        code, out, err = run(capsys, "verify", "cor1.6", "--families", "ii", "--n", "645")
        assert code == 3 and out == ""
        assert err == "error: leg tables guard exceeded: table entries and centres 20020146 > 20000000\n"
        assert time.monotonic() - t0 < 1.0

    def test_cor16_runs_past_the_old_rank_guard(self, capsys, monkeypatch):
        # (iv) at n = 70 has rank 288, past the 280 that a dense norm-1 search was capped at;
        # the count builds no dense Gram and runs no enumerator
        def dense(*args, **kwargs):
            raise AssertionError("a dense Gram or an enumerator was built")

        monkeypatch.setattr(plumbcalc.families, "graph_to_gram", dense)
        monkeypatch.setattr(plumbcalc.lattice, "_Enumerator", dense)
        t0 = time.monotonic()
        assert run(capsys, "verify", "cor1.6", "--families", "iv", "--n", "70") == (0, "cor1.6 (iv, n=70): minimal rank 288 >= 4d = 280: pass\n", "")
        assert time.monotonic() - t0 < 1.0

    def test_classify_guard_exits_3(self, capsys):
        code, out, err = run(capsys, "verify", "classify-e8", "--bound", "401")
        assert (code, out, err) == (3, "", "error: classify bound guard exceeded: classification bound 401 > 400\n")

    @pytest.mark.parametrize(
        "argv",
        [["--json", "verify", "thm1.2", "--families", "i", "--n", "1"], ["verify", "classify-e8", "--bound", "7", "--json"]],
        ids=["json-before", "json-after"],
    )
    def test_json_is_refused(self, capsys, argv):
        # verify prints text only: --json on either side of the subcommand exits 2 before any work
        assert run(capsys, *argv) == (2, "", "error: verify prints text; --report writes JSON lines\n")

    def test_bad_task(self, capsys):
        code, _, err = run(capsys, "verify", "thm9.9")
        assert code == 2

    @pytest.mark.parametrize("argv", [["verify", "classify-e8", "--bound", "10"]], ids=["classify-e8"])
    def test_report_rejected_where_no_report_is_written(self, capsys, tmp_path, argv):
        report = tmp_path / "out.jsonl"
        code, out, err = run(capsys, *argv, "--report", str(report))
        assert (code, out, err) == (2, "", "error: verify classify-e8 has no option --report\n")
        assert not report.exists()

    @pytest.mark.parametrize("task", VERIFY_TASKS)
    @pytest.mark.parametrize("option, value", [("families", "i"), ("n", "1"), ("bound", "7"), ("report", "{report}")])
    def test_task_refuses_the_options_it_does_not_read(self, capsys, tmp_path, task, option, value):
        # an option the task reads runs; any other exits 2 before any work, on either side of the task
        value = value.format(report=tmp_path / "out.jsonl")
        if option in VERIFY_TASKS[task]:
            assert run(capsys, "verify", task, f"--{option}", value)[0] == 0
        else:
            for argv in (["verify", task, f"--{option}", value], ["verify", f"--{option}={value}", task]):
                assert run(capsys, *argv) == (2, "", f"error: verify {task} has no option --{option}\n"), argv
            assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "task, families, n",
        [
            ("thm1.2", "zz", "1"),
            ("thm1.3", "zz", "1"),
            ("cor1.6", "zz", "1"),
            ("rmk1.4", "zz", "1"),
            ("classify-e8", "zz", "1"),
            ("thm1.3", "i,zz", "1"),
            ("thm1.3", "v", "1"),
            ("cor1.6", "v..xii", "1"),
            ("thm1.2", "xii..i", "1"),
            ("thm1.3", "i", "3..1"),
            ("rmk1.4", "vii", "3..1"),
            ("rmk1.4", "vii", "0"),
            ("thm1.2", "i", "0..1000000000000000"),  # a lazy range, checked on its first element
            ("thm1.2", "i", "1.."),
            ("thm1.2", "i", "a"),
        ],
    )
    def test_selection_that_runs_nothing_exits_2(self, capsys, task, families, n):
        code, out, err = run(capsys, "verify", task, "--families", families, "--n", n)
        assert code == 2 and out == "" and err.startswith("error: ")
        if n in ("1..", "a"):  # a malformed --n: the message names the option and quotes the value
            assert err == f"error: --n must be A..B or integers separated by commas, not {n!r}\n"

    def test_unwritable_report_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(plumbcalc.cli.FAMILY_TASKS, "thm1.2", (None, FAMILY_IDS, None))  # no task may run
        report = tmp_path / "missing" / "out.jsonl"
        code, out, err = run(capsys, "verify", "thm1.2", "--families", "i", "--n", "1", "--report", str(report))
        assert code == 2 and out == "" and err.startswith("error: cannot write report") and "Traceback" not in err

    def test_failed_clause_outranks_late_report_error(self, capsys, tmp_path, monkeypatch):
        def failing(fam, n):
            return VerificationReport("theorem-main", fam, n, checks={"mubar": False})

        def unwritable(reports, path):
            raise OSError("disk full")

        monkeypatch.setitem(plumbcalc.cli.FAMILY_TASKS, "thm1.2", (failing, FAMILY_IDS, lambda v: ""))
        monkeypatch.setattr(plumbcalc.cli, "write_reports", unwritable)
        code, out, err = run(
            capsys, "verify", "thm1.2", "--families", "i", "--n", "1", "--report", str(tmp_path / "out.jsonl")
        )
        assert code == 1 and out == "thm1.2 (i, n=1): FAIL\n"
        assert err.splitlines() == ["  failing clause: mubar", "error: cannot write report: disk full"]


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# Malformed command lines: every one must end in a clean exit code, never in
# an exception.  All of them finish in milliseconds.
FUZZ_TABLE = [
    ["d", "2", "4", "9"],
    ["d", "6", "10", "35"],
    ["d", "2", "3", "10000001"],
    ["lens-d", "6", "4"],
    ["lens-d", "5", "2", "5"],
    ["lens-d", "5", "2", "-1"],
    ["lens-d", "5", "2", "1", "--oracle"],
    ["lens-d", "1000000007", "2", "--all"],
    ["lens-d", str(_fibonacci(1501)), str(_fibonacci(1500)), "0"],  # a descent chain 1500 levels deep
    ["mubar", "3", "9", "10"],
    ["verify", "thm1.2", "--families", "zz"],
    ["verify", "thm1.2", "--families", "i..zz"],
    ["verify", "rmk1.4", "--families", "xiii", "--n", "1"],
    ["verify", "thm1.2", "--families", "i", "--n", "a..b"],
    ["verify", "thm1.2", "--families", "i", "--n", "0"],
    ["verify", "thm1.2", "--families", "i", "--n", "0..1000000000000000"],
    ["verify", "thm1.3", "--families", "i", "--n", "-1..1"],
    ["verify", "thm1.3", "--families", "iii", "--n", "1000"],
    ["verify", "cor1.6", "--families", "i", "--n", "1..x"],
    ["verify", "classify-e8", "--bound", "401"],
    ["verify", "thm1.2", "--families", "i", "--n", "1", "--report", "{missing}"],
    ["verify", "thm9.9"],
    ["bogus"],
    [],
]
FUZZ_VALUES = ["0", "-1", "-7", "x", "2.5", "1e3", ""]  # none is a valid size
FUZZ_TEMPLATES = [
    ["d", None, None, None],
    ["lens-d", None, None],
    ["lens-d", None, "1", None],
    ["lens-d", None, None, "--all", "--oracle"],
    ["mubar", None, None, None],
    ["verify", "thm1.2", "--families", "i", "--n", None],
    ["verify", "cor1.6", "--families", "i", "--n", None],
    ["verify", "classify-e8", "--bound", None],
]


def test_malformed_argv_exits_cleanly(capsys, tmp_path):
    rng = random.Random(20181)
    templates = [rng.choice(FUZZ_TEMPLATES) for _ in range(150)]
    cases = FUZZ_TABLE + [[rng.choice(FUZZ_VALUES) if a is None else a for a in t] for t in templates]
    missing = str(tmp_path / "missing" / "out.jsonl")
    for argv in cases:
        argv = [missing if a == "{missing}" else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3) and "Traceback" not in err, argv


# The argparse parser the table replaced, frozen on a fixed corpus: every
# README command line, FUZZ_TABLE, --json on either side, --name=value,
# negative positionals, missing and extra positionals, unknown options, the --
# marker and tokens holding a space.  Each line (a tuple where a token holds a
# space) is paired with its vars(args) (without fn), or REFUSED (exit 2).
REFUSED = None
_ARGPARSE_DEFAULTS = {  # each command's defaults; its required positionals are in every row
    "d": {"json": False},
    "lens-d": {"json": False, "i": None, "all": False, "oracle": False},
    "mubar": {"json": False, "p": None, "q": None, "r": None, "graph": None},
    "verify": {"json": False, "families": "i..xii", "n": "1..3", "bound": 60, "report": None},
}
GOLDEN_PARSES = [
    ("d 2 3 5", {**_ARGPARSE_DEFAULTS["d"], "p": 2, "q": 3, "r": 5}),
    ("d 2 3 7", {**_ARGPARSE_DEFAULTS["d"], "p": 2, "q": 3, "r": 7}),
    ("lens-d 23 2 --all", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 23, "q": 2, "all": True}),
    ("lens-d 23 2 --all --oracle", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 23, "q": 2, "all": True, "oracle": True}),
    ("mubar 2 5 9", {**_ARGPARSE_DEFAULTS["mubar"], "p": 2, "q": 5, "r": 9}),
    ("mubar --graph tree.json", {**_ARGPARSE_DEFAULTS["mubar"], "graph": "tree.json"}),
    ("verify thm1.2 --families i..xii --n 1..3 --report out.jsonl", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "report": "out.jsonl"}),
    ("verify thm1.3 --families i..iv --n 1..6", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.3", "families": "i..iv", "n": "1..6"}),
    ("verify cor1.6 --families i --n 1..4", {**_ARGPARSE_DEFAULTS["verify"], "task": "cor1.6", "families": "i", "n": "1..4"}),
    ("verify rmk1.4 --families v,vii --n 1..2 --report conj.jsonl", {**_ARGPARSE_DEFAULTS["verify"], "task": "rmk1.4", "families": "v,vii", "n": "1..2", "report": "conj.jsonl"}),
    ("verify classify-e8 --bound 60", {**_ARGPARSE_DEFAULTS["verify"], "task": "classify-e8"}),
    ("d 101 103 10007", {**_ARGPARSE_DEFAULTS["d"], "p": 101, "q": 103, "r": 10007}),
    ("d 2 3 10000001", {**_ARGPARSE_DEFAULTS["d"], "p": 2, "q": 3, "r": 10000001}),
    ("verify thm1.2 --families v --n 200000", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "v", "n": "200000"}),
    ("lens-d 599999 370820 --all", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 599999, "q": 370820, "all": True}),
    ("verify rmk1.4 --families i..xii --n 1..50", {**_ARGPARSE_DEFAULTS["verify"], "task": "rmk1.4", "n": "1..50"}),
    ("verify cor1.6 --families i..iv --n 150", {**_ARGPARSE_DEFAULTS["verify"], "task": "cor1.6", "families": "i..iv", "n": "150"}),
    ("lens-d 8000 129 --oracle", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 8000, "q": 129, "oracle": True}),
    ("d 2 4 9", {**_ARGPARSE_DEFAULTS["d"], "p": 2, "q": 4, "r": 9}),
    ("d 6 10 35", {**_ARGPARSE_DEFAULTS["d"], "p": 6, "q": 10, "r": 35}),
    ("lens-d 6 4", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 6, "q": 4}),
    ("lens-d 5 2 5", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": 2, "i": 5}),
    ("lens-d 5 2 -1", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": 2, "i": -1}),
    ("lens-d 5 2 1 --oracle", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": 2, "i": 1, "oracle": True}),
    ("lens-d 1000000007 2 --all", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 1000000007, "q": 2, "all": True}),
    (f"lens-d {_fibonacci(1501)} {_fibonacci(1500)} 0", {**_ARGPARSE_DEFAULTS["lens-d"], "p": _fibonacci(1501), "q": _fibonacci(1500), "i": 0}),
    ("mubar 3 9 10", {**_ARGPARSE_DEFAULTS["mubar"], "p": 3, "q": 9, "r": 10}),
    ("verify thm1.2 --families zz", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "zz"}),
    ("verify thm1.2 --families i..zz", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i..zz"}),
    ("verify rmk1.4 --families xiii --n 1", {**_ARGPARSE_DEFAULTS["verify"], "task": "rmk1.4", "families": "xiii", "n": "1"}),
    ("verify thm1.2 --families i --n a..b", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i", "n": "a..b"}),
    ("verify thm1.2 --families i --n 0", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i", "n": "0"}),
    ("verify thm1.2 --families i --n 0..1000000000000000", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i", "n": "0..1000000000000000"}),
    ("verify thm1.3 --families i --n -1..1", REFUSED),
    ("verify thm1.3 --families iii --n 1000", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.3", "families": "iii", "n": "1000"}),
    ("verify cor1.6 --families i --n 1..x", {**_ARGPARSE_DEFAULTS["verify"], "task": "cor1.6", "families": "i", "n": "1..x"}),
    ("verify classify-e8 --bound 401", {**_ARGPARSE_DEFAULTS["verify"], "task": "classify-e8", "bound": 401}),
    ("verify thm1.2 --families i --n 1 --report {missing}", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i", "n": "1", "report": "{missing}"}),
    ("verify thm9.9", REFUSED),
    ("bogus", REFUSED),
    ("", REFUSED),
    ("--json d 2 3 5", {**_ARGPARSE_DEFAULTS["d"], "json": True, "p": 2, "q": 3, "r": 5}),
    ("d 2 3 5 --json", {**_ARGPARSE_DEFAULTS["d"], "json": True, "p": 2, "q": 3, "r": 5}),
    ("d --json 2 3 5", {**_ARGPARSE_DEFAULTS["d"], "json": True, "p": 2, "q": 3, "r": 5}),
    ("--json lens-d 7 2", {**_ARGPARSE_DEFAULTS["lens-d"], "json": True, "p": 7, "q": 2}),
    ("lens-d 7 2 --json", {**_ARGPARSE_DEFAULTS["lens-d"], "json": True, "p": 7, "q": 2}),
    ("lens-d 7 2 1 --json", {**_ARGPARSE_DEFAULTS["lens-d"], "json": True, "p": 7, "q": 2, "i": 1}),
    ("--json lens-d 7 2 --all --oracle", {**_ARGPARSE_DEFAULTS["lens-d"], "json": True, "p": 7, "q": 2, "all": True, "oracle": True}),
    ("--json mubar 2 3 5", {**_ARGPARSE_DEFAULTS["mubar"], "json": True, "p": 2, "q": 3, "r": 5}),
    ("mubar 2 3 5 --json", {**_ARGPARSE_DEFAULTS["mubar"], "json": True, "p": 2, "q": 3, "r": 5}),
    ("mubar --json --graph g.json", {**_ARGPARSE_DEFAULTS["mubar"], "json": True, "graph": "g.json"}),
    ("--json verify thm1.2 --families i --n 1", {**_ARGPARSE_DEFAULTS["verify"], "json": True, "task": "thm1.2", "families": "i", "n": "1"}),
    ("verify classify-e8 --bound 7 --json", {**_ARGPARSE_DEFAULTS["verify"], "json": True, "task": "classify-e8", "bound": 7}),
    ("--json --json d 2 3 5", {**_ARGPARSE_DEFAULTS["d"], "json": True, "p": 2, "q": 3, "r": 5}),
    ("--json", REFUSED),
    ("--json=1 d 2 3 5", REFUSED),
    ("d 2 3 5 --json=1", REFUSED),
    ("verify thm1.2 --families=i --n=1..2", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i", "n": "1..2"}),
    ("verify classify-e8 --bound=10", {**_ARGPARSE_DEFAULTS["verify"], "task": "classify-e8", "bound": 10}),
    ("mubar --graph=g.json", {**_ARGPARSE_DEFAULTS["mubar"], "graph": "g.json"}),
    ("verify thm1.2 --report=out.jsonl", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "report": "out.jsonl"}),
    ("verify thm1.2 --n=", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "n": ""}),
    ("verify thm1.2 --n=-1..1", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "n": "-1..1"}),
    ("verify classify-e8 --bound=x", REFUSED),
    ("lens-d 5 2 --all=1", REFUSED),
    ("verify thm1.2 --n 1 --n 2", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "n": "2"}),
    ("d -2 3 5", {**_ARGPARSE_DEFAULTS["d"], "p": -2, "q": 3, "r": 5}),
    ("mubar -2 -3 -5", {**_ARGPARSE_DEFAULTS["mubar"], "p": -2, "q": -3, "r": -5}),
    ("lens-d -5 -2", {**_ARGPARSE_DEFAULTS["lens-d"], "p": -5, "q": -2}),
    ("lens-d 5 -2 -3", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": -2, "i": -3}),
    ("verify classify-e8 --bound -7", {**_ARGPARSE_DEFAULTS["verify"], "task": "classify-e8", "bound": -7}),
    ("verify thm1.2 --families i --n -1", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i", "n": "-1"}),
    ("verify classify-e8 --bound -x", REFUSED),
    ("d 2 3 -5x", REFUSED),
    ("d 2 3 -2.5", REFUSED),
    ("d", REFUSED),
    ("d 2 3", REFUSED),
    ("d 2 3 5 7", REFUSED),
    ("lens-d", REFUSED),
    ("lens-d 5", REFUSED),
    ("lens-d 5 2 1 0", REFUSED),
    ("mubar 2", {**_ARGPARSE_DEFAULTS["mubar"], "p": 2}),
    ("mubar 2 3", {**_ARGPARSE_DEFAULTS["mubar"], "p": 2, "q": 3}),
    ("mubar 2 3 5 7", REFUSED),
    ("verify", REFUSED),
    ("verify thm1.2 extra", REFUSED),
    ("d x 3 5", REFUSED),
    ("lens-d 5 2 x", REFUSED),
    ("verify classify-e8 --bound", REFUSED),
    ("verify thm1.2 --n", REFUSED),
    ("mubar --graph", REFUSED),
    ("lens-d 5 --all 2", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": 2, "all": True}),
    ("verify --families i thm1.2", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i"}),
    ("mubar 2 3 5 --graph g.json", {**_ARGPARSE_DEFAULTS["mubar"], "p": 2, "q": 3, "r": 5, "graph": "g.json"}),
    ("d 2 3 5 --bogus", REFUSED),
    ("lens-d 5 2 --graph g.json", REFUSED),
    ("--all lens-d 5 2", REFUSED),
    ("verify thm1.2 --all", REFUSED),
    ("-x d 2 3 5", REFUSED),
    ("mubar 2 3 5 --families i", REFUSED),
    ("d 2 3 5 -", REFUSED),
    ("--bogus", REFUSED),
    ("verify thm1.2 --fam i", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i"}),
    ("verify classify-e8 --b 10", {**_ARGPARSE_DEFAULTS["verify"], "task": "classify-e8", "bound": 10}),
    ("lens-d 5 2 --a", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": 2, "all": True}),
    ("--js d 2 3 5", {**_ARGPARSE_DEFAULTS["d"], "json": True, "p": 2, "q": 3, "r": 5}),
    ("d 2 3 5 --js", {**_ARGPARSE_DEFAULTS["d"], "json": True, "p": 2, "q": 3, "r": 5}),
    ("verify thm1.2 --rep out.jsonl", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "report": "out.jsonl"}),
    ("mubar --gr g.json", {**_ARGPARSE_DEFAULTS["mubar"], "graph": "g.json"}),
    ("verify thm1.2 --fam=i", {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i"}),
    ("lens-d 5 2 --all 3", REFUSED),
    ("mubar --graph g.json 2 3 5", {**_ARGPARSE_DEFAULTS["mubar"], "p": 2, "q": 3, "r": 5, "graph": "g.json"}),
    ("mubar 2 --json 3 5", REFUSED),
    ("d -- 2 3 5", {**_ARGPARSE_DEFAULTS["d"], "p": 2, "q": 3, "r": 5}),
    ("lens-d 5 2 -- -1", {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": 2, "i": -1}),
    ("d 2 3 5 --", {**_ARGPARSE_DEFAULTS["d"], "p": 2, "q": 3, "r": 5}),
    ("-- d 2 3 5", REFUSED),
    ("verify thm1.2 --n -- 1", REFUSED),
    ("mubar -- --graph g.json", REFUSED),
    # a token holding a space is a positional or a value, unless it starts with --name=
    (("lens-d", "5", "-2 "), {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": -2}),
    (("verify", "thm1.2", "--families=i, ii"), {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "i, ii"}),
    (("verify", "thm1.2", "--families", "-i, ii"), {**_ARGPARSE_DEFAULTS["verify"], "task": "thm1.2", "families": "-i, ii"}),
    (("d", "2", "3", "-5 x"), REFUSED),
]
# The lines the table parser reads differently, on purpose: argparse took a
# prefix of an option's name for the option, and refused an optional
# positional that follows an option placed after the required ones.
FLIPPED = {
    "verify thm1.2 --fam i": REFUSED,
    "verify classify-e8 --b 10": REFUSED,
    "lens-d 5 2 --a": REFUSED,
    "--js d 2 3 5": REFUSED,
    "d 2 3 5 --js": REFUSED,
    "verify thm1.2 --rep out.jsonl": REFUSED,
    "mubar --gr g.json": REFUSED,
    "verify thm1.2 --fam=i": REFUSED,
    "lens-d 5 2 --all 3": {**_ARGPARSE_DEFAULTS["lens-d"], "p": 5, "q": 2, "i": 3, "all": True},
    "mubar 2 --json 3 5": {**_ARGPARSE_DEFAULTS["mubar"], "json": True, "p": 2, "q": 3, "r": 5},
}


def test_parser_reproduces_the_argparse_table(capsys):
    assert FLIPPED.keys() <= {line for line, _ in GOLDEN_PARSES}
    for line, parsed in GOLDEN_PARSES:
        argv = line.split() if isinstance(line, str) else list(line)
        parsed = FLIPPED.get(line, parsed)
        if parsed is REFUSED:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, line
        else:
            args = vars(parse_args(argv))
            assert args.pop("fn") is COMMANDS[next(a for a in argv if a != "--json")][0], line
            assert args == parsed, line


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """``python args`` in a new interpreter that imports this checkout's plumbcalc."""
    env = {**os.environ, "PYTHONPATH": str(Path(plumbcalc.cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_each_run_answers_like_a_fresh_process(capsys):
    # the parser keeps no state: no run may see the options or the error of
    # the run before it in the same process
    seq = [["--json", "lens-d", "7", "2"], ["lens-d", "7", "2"], ["d", "2", "3"], ["lens-d", "7", "2", "--json"]]
    seq += [["d", "2", "3", "5"], ["verify", "thm9.9"], ["mubar", "2", "3", "5"]]
    in_order = [run(capsys, *argv) for argv in seq]
    alone = [_fresh("-m", "plumbcalc.cli", *argv) for argv in seq]
    assert in_order == [(p.returncode, p.stdout, p.stderr) for p in alone]


def test_import_leaves_argparse_out():
    # the parser is a table and a loop, the value classes are plain classes:
    # starting the CLI pays for neither argparse nor dataclasses and what it loads
    denied = ["argparse", "dataclasses", "inspect", "ast", "dis", "tokenize"]
    proc = _fresh("-c", f"import sys, plumbcalc.cli; print([m for m in {denied!r} if m in sys.modules])")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_help_prints_the_command_list(capsys):
    for argv in (["-h"], ["--help"], ["d", "2", "-h"], ["--json", "verify", "--help"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out == plumbcalc.cli.__doc__, argv
        assert all(f"\n{command} " in out for command in COMMANDS)


def test_help_text_is_the_option_table():
    # the -h text names every flag and valued option COMMANDS parses and every verify
    # task with each option VERIFY_TASKS lets it read, so it cannot drift from the parser
    names = [f"--{name}" for *_, flags, valued in COMMANDS.values() for name in (*flags, *valued)]
    names += list(VERIFY_TASKS) + [f"--{name}" for reads in VERIFY_TASKS.values() for name in reads]
    assert [name for name in names if name not in plumbcalc.cli.__doc__] == []


def test_no_command_reaches_the_fraction_kernel_or_the_enumerator(capsys, monkeypatch, tmp_path):
    """Every CLI command, `lens-d --oracle` included, runs without the lattice
    module's Fraction elimination and its Fincke-Pohst enumerator: with
    `_eliminate` and `_Enumerator` patched to raise, each exits 0 with the
    same stdout as an unpatched run."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(PlumbingGraph((0, 3, 5, 0), ((0, 1), (1, 2), (2, 3))).to_json()))
    commands = [
        ["d", "2", "3", "7"],
        ["--json", "d", "2", "5", "9"],
        ["mubar", "2", "13", "23"],
        ["mubar", "--graph", str(path)],
        ["lens-d", "89", "8"],
        ["lens-d", "89", "8", "5"],
        ["lens-d", "89", "8", "--all"],
        ["lens-d", "89", "8", "--oracle"],
        ["--json", "lens-d", "144", "131", "--oracle"],
        ["verify", "thm1.2", "--families", "i..xii", "--n", "1..3"],
        ["verify", "thm1.3", "--families", "i..iv", "--n", "1..3"],
        ["verify", "cor1.6", "--families", "i..iv", "--n", "1..3"],
        ["verify", "rmk1.4", "--families", "i..xii", "--n", "1..2"],
        ["verify", "classify-e8", "--bound", "20"],
    ]
    unpatched = [run(capsys, *argv) for argv in commands]

    def kernel(*args):
        raise AssertionError("the Fraction kernel or the enumerator ran")

    monkeypatch.setattr(plumbcalc.lattice, "_eliminate", kernel)
    monkeypatch.setattr(plumbcalc.lattice, "_Enumerator", kernel)
    for argv, (code, out, _) in zip(commands, unpatched):
        assert code == 0 and run(capsys, *argv)[:2] == (0, out), argv
    with pytest.raises(AssertionError, match="the Fraction kernel or the enumerator ran"):
        plumbcalc.lattice.short_vectors(plumbcalc.lattice.GramLattice(((2,),)), 2)  # the patches hold
