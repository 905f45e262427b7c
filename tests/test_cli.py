import json
import os
import random

import pytest

import plumbcalc.cli
from plumbcalc import __version__
from plumbcalc.cli import main
from plumbcalc.families import VerificationReport
from plumbcalc.plumbing import PlumbingGraph, star_graph


@pytest.fixture
def cache_path(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    monkeypatch.setenv("PLUMBCALC_CACHE", str(path))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the cache line for `d 2 3 5` exactly as earlier versions wrote it
D235_ENTRY = (
    '{"key": "{\\"command\\": \\"d\\", \\"triple\\": [2, 3, 5]}", "timestamp": "2026-01-01T00:00:00Z", '
    f'"tool_version": "{__version__}", "value": {{"certificate": [0, 0, 0, 0, 0, 0, 0, 0], "d": "2"}}}}\n'
).encode()


class TestDCommand:
    def test_poincare(self, capsys, cache_path):
        code, out, _ = run(capsys, "d", "2", "3", "5")
        assert code == 0 and out.strip() == "2"

    def test_sigma237(self, capsys, cache_path):
        code, out, _ = run(capsys, "d", "2", "3", "7")
        assert code == 0 and out.strip() == "0"

    def test_not_coprime_exits_2(self, capsys, cache_path):
        code, _, err = run(capsys, "d", "2", "3", "4")
        assert code == 2 and "coprime" in err

    def test_rank_guard_exits_3(self, capsys, cache_path):
        code, _, err = run(capsys, "d", "2", "3", "125", "--rank-guard", "10")
        assert code == 3 and "guard" in err

    def test_rank_guard_failure_is_not_cached(self, capsys, cache_path):
        code, _, err = run(capsys, "d", "2", "3", "5", "--rank-guard", "5")
        assert code == 3 and "guard" in err
        code, out, _ = run(capsys, "d", "2", "3", "5")
        assert code == 0 and out.strip() == "2"

    def test_cached_d_honours_rank_guard(self, capsys, cache_path):
        code, out, _ = run(capsys, "d", "2", "3", "5")
        assert code == 0 and out.strip() == "2"
        code, out, err = run(capsys, "d", "2", "3", "5", "--rank-guard", "5")
        assert code == 3 and out == "" and "rank 8 exceeds guard 5" in err

    def test_json_output(self, capsys, cache_path):
        code, out, _ = run(capsys, "--json", "d", "2", "3", "5")
        payload = json.loads(out)
        assert payload["d"] == "2"
        assert payload["triple"] == [2, 3, 5]
        assert len(payload["certificate"]) == 8

    def test_triple_order_normalized(self, capsys, cache_path):
        code1, out1, _ = run(capsys, "d", "9", "2", "5")
        code2, out2, _ = run(capsys, "d", "2", "5", "9")
        assert code1 == code2 == 0 and out1 == out2 == "2\n"


class TestLensCommand:
    def test_all_labels(self, capsys, cache_path):
        code, out, _ = run(capsys, "lens-d", "23", "2", "--all")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 23
        assert lines[1] == "1: 81/46"

    def test_s3(self, capsys, cache_path):
        code, out, _ = run(capsys, "lens-d", "1", "1")
        assert code == 0 and out.strip() == "0"

    def test_bare_listing_without_all_flag(self, capsys, cache_path):
        code, out, _ = run(capsys, "lens-d", "3", "1")
        assert code == 0 and out.strip().split("\n") == ["1/2", "-1/6", "-1/6"]

    def test_single_label(self, capsys, cache_path):
        code, out, _ = run(capsys, "lens-d", "23", "2", "1")
        assert code == 0 and out.strip() == "81/46"

    def test_oracle_multiset_matches(self, capsys, cache_path):
        _, out1, _ = run(capsys, "lens-d", "23", "2", "--all")
        _, out2, _ = run(capsys, "lens-d", "23", "2", "--all", "--oracle")
        vals1 = sorted(line.split(": ")[1] for line in out1.strip().split("\n"))
        vals2 = sorted(line.split(": ")[1] for line in out2.strip().split("\n"))
        assert vals1 == vals2

    def test_no_decimal_output(self, capsys, cache_path):
        _, out, _ = run(capsys, "lens-d", "12", "5", "--all")
        assert "." not in out


class TestMubarCommand:
    def test_triples(self, capsys, cache_path):
        for triple, expected in ((("2", "3", "5"), "-1"), (("2", "5", "9"), "-1"), (("2", "3", "7"), "1")):
            code, out, _ = run(capsys, "mubar", *triple)
            assert code == 0 and out.strip() == expected

    def test_graph_file(self, capsys, cache_path, tmp_path):
        g = star_graph(-1, [[-2], [-3], [-7]])  # Sigma(2,3,7) plumbing
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_json()))
        code, out, _ = run(capsys, "mubar", "--graph", str(path))
        assert code == 0 and out.strip() == "1"

    @pytest.mark.parametrize(
        "payload",
        [
            [{"id": 0, "weight": -2}],
            {"vertices": [{"id": 0, "weight": None}], "edges": []},
            {"vertices": [{"id": 0, "weight": -1.5}], "edges": []},
            {"vertices": [{"id": 0, "weight": True}], "edges": []},
        ],
        ids=["top-level-list", "null-weight", "float-weight", "bool-weight"],
    )
    def test_malformed_graph_file_exits_2(self, capsys, cache_path, tmp_path, payload):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "mubar", "--graph", str(path))
        assert code == 2 and "cannot read graph file" in err and "Traceback" not in err

    def test_missing_args(self, capsys, cache_path):
        code, _, err = run(capsys, "mubar")
        assert code == 2


class TestVerifyCommand:
    def test_thm12_subset(self, capsys, cache_path, tmp_path):
        report = tmp_path / "out.jsonl"
        code, out, _ = run(
            capsys, "verify", "thm1.2", "--families", "i,viii", "--n", "1..2", "--report", str(report)
        )
        assert code == 0
        assert out.count("pass") == 4
        lines = report.read_text().strip().split("\n")
        assert len(lines) == 4
        assert all(json.loads(line)["passed"] for line in lines)

    def test_thm13_subset(self, capsys, cache_path):
        code, out, _ = run(capsys, "verify", "thm1.3", "--families", "i..iv", "--n", "1..1")
        assert code == 0
        assert out.count("pass") == 4

    def test_classify_small(self, capsys, cache_path):
        code, out, _ = run(capsys, "verify", "classify-e8", "--bound", "10")
        assert code == 0
        assert out.strip().split("\n") == ["(2,3,5)", "(3,4,7)"]

    def test_rmk14_is_report_only(self, capsys, cache_path):
        code, out, _ = run(capsys, "verify", "rmk1.4", "--families", "vii", "--n", "1..1")
        assert code == 0
        assert "conjecture" in out

    def test_bad_task(self, capsys, cache_path):
        code, _, err = run(capsys, "verify", "thm9.9")
        assert code == 2

    def test_unwritable_report_exits_2(self, capsys, cache_path, tmp_path, monkeypatch):
        monkeypatch.setattr(plumbcalc.cli, "verify_theorem_main", None)  # no task may run
        report = tmp_path / "missing" / "out.jsonl"
        code, out, err = run(capsys, "verify", "thm1.2", "--families", "i", "--n", "1", "--report", str(report))
        assert code == 2 and out == "" and err.startswith("error: cannot write report") and "Traceback" not in err

    def test_failed_clause_outranks_late_report_error(self, capsys, cache_path, tmp_path, monkeypatch):
        def failing(fam, n):
            return VerificationReport("theorem-main", fam, n, checks={"mubar": False})

        def unwritable(reports, path):
            raise OSError("disk full")

        monkeypatch.setattr(plumbcalc.cli, "verify_theorem_main", failing)
        monkeypatch.setattr(plumbcalc.cli, "write_reports", unwritable)
        code, out, err = run(
            capsys, "verify", "thm1.2", "--families", "i", "--n", "1", "--report", str(tmp_path / "out.jsonl")
        )
        assert code == 1 and out == "thm1.2 (i, n=1): FAIL\n"
        assert err.splitlines() == ["  failing clause: mubar", "error: cannot write report: disk full"]


class TestCache:
    def test_hit_is_byte_identical(self, capsys, cache_path):
        _, out1, _ = run(capsys, "d", "2", "3", "5")
        assert cache_path.exists()
        _, out2, _ = run(capsys, "d", "2", "3", "5")  # hit
        _, out3, _ = run(capsys, "--no-cache", "d", "2", "3", "5")
        assert out1 == out2 == out3

    def test_no_cache_leaves_no_file(self, capsys, cache_path):
        run(capsys, "--no-cache", "d", "2", "3", "5")
        assert not cache_path.exists()

    def test_corrupt_lines_skipped_with_warning(self, capsys, cache_path):
        run(capsys, "d", "2", "3", "5")
        with open(cache_path, "a") as fh:
            fh.write("{not json]]\n")
        code, out, err = run(capsys, "d", "2", "3", "5")
        assert code == 0 and out.strip() == "2"
        assert "corrupt" in err

    def test_entries_record_version_and_key(self, capsys, cache_path):
        run(capsys, "d", "2", "3", "5")
        entry = json.loads(cache_path.read_text().strip().split("\n")[0])
        assert set(entry) == {"key", "value", "tool_version", "timestamp"}
        key = json.loads(entry["key"])
        assert key["triple"] == [2, 3, 5]

    @pytest.mark.parametrize(
        "name, content, warnings",
        [
            ("missing/cache.jsonl", None, ["cannot write"]),
            (".", None, ["cannot read", "cannot write"]),
            ("cache.jsonl", b"\xff\xfe\n", ["cannot read"]),
            ("cache.jsonl", b"1\n[]\n" + D235_ENTRY.split(b'"value"')[0] + b'"value": 2}\n', ["skipping corrupt"] * 3),
        ],
        ids=["missing-directory", "directory", "not-utf8", "not-an-object"],
    )
    def test_unusable_cache_only_warns(self, capsys, tmp_path, monkeypatch, name, content, warnings):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        monkeypatch.setenv("PLUMBCALC_CACHE", str(path))
        code, out, err = run(capsys, "d", "2", "3", "5")
        assert code == 0 and out == "2\n"
        assert [" ".join(line.split()[1:3]) for line in err.splitlines()] == warnings
        assert all(line.startswith("warning: ") for line in err.splitlines())

    def test_only_d_is_cached(self, capsys, cache_path, tmp_path, monkeypatch):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(star_graph(-1, [[-2], [-3], [-7]]).to_json()))
        for argv in (
            ["lens-d", "23", "2", "1"],
            ["lens-d", "23", "2", "--all"],
            ["lens-d", "23", "2", "--all", "--oracle"],
            ["mubar", "2", "3", "7"],
            ["mubar", "--graph", str(graph)],
        ):
            code, _, _ = run(capsys, *argv)
            assert code == 0 and not cache_path.exists(), argv
        run(capsys, "d", "2", "3", "5")
        (line,) = cache_path.read_text().splitlines()
        entry = json.loads(line)
        assert entry["key"] == '{"command": "d", "triple": [2, 3, 5]}'
        assert entry["value"] == {"certificate": [0] * 8, "d": "2"}

        # an entry as earlier versions wrote it still serves d, with no recomputation
        cache_path.write_bytes(D235_ENTRY)
        monkeypatch.setattr(plumbcalc.cli, "d_from_plumbing", None)
        code, out, _ = run(capsys, "--json", "d", "5", "3", "2")
        assert code == 0
        assert json.loads(out) == {"command": "d", "triple": [2, 3, 5], "d": "2", "certificate": [0] * 8}

    def test_repeated_lens_query_is_identical(self, capsys, cache_path):
        outs = [run(capsys, "lens-d", "12", "5")[1] for _ in range(2)]
        assert outs[0] == outs[1] and outs[0].split("\n")[:3] == ["5/12", "1/6", "3/4"]


# Malformed command lines: every one must end in a clean exit code, never in
# an exception.  All of them finish in milliseconds.
FUZZ_TABLE = [
    ["d", "2", "4", "9"],
    ["d", "6", "10", "35"],
    ["lens-d", "6", "4"],
    ["lens-d", "5", "2", "5"],
    ["lens-d", "5", "2", "-1"],
    ["lens-d", "5", "2", "1", "--oracle"],
    ["mubar", "3", "9", "10"],
    ["verify", "thm1.2", "--families", "zz"],
    ["verify", "thm1.2", "--families", "i..zz"],
    ["verify", "rmk1.4", "--families", "xiii", "--n", "1"],
    ["verify", "thm1.2", "--families", "i", "--n", "a..b"],
    ["verify", "thm1.2", "--families", "i", "--n", "0"],
    ["verify", "thm1.3", "--families", "i", "--n", "-1..1"],
    ["verify", "cor1.6", "--families", "i", "--n", "1..x"],
    ["verify", "classify-e8", "--bound", "101"],
    ["verify", "thm1.2", "--families", "i", "--n", "1", "--report", "{missing}"],
    ["verify", "thm9.9"],
    ["bogus"],
    [],
]
FUZZ_VALUES = ["0", "-1", "-7", "x", "2.5", "1e3", ""]  # none is a valid size
FUZZ_TEMPLATES = [
    ["d", None, None, None],
    ["d", "2", "3", None, "--rank-guard", None],
    ["lens-d", None, None],
    ["lens-d", None, "1", None],
    ["lens-d", None, None, "--all", "--oracle"],
    ["mubar", None, None, None],
    ["verify", "thm1.2", "--families", "i", "--n", None],
    ["verify", "cor1.6", "--families", "i", "--n", None],
    ["verify", "classify-e8", "--bound", None],
]


def test_malformed_argv_exits_cleanly(capsys, cache_path, tmp_path):
    rng = random.Random(20181)
    templates = [rng.choice(FUZZ_TEMPLATES) for _ in range(150)]
    cases = FUZZ_TABLE + [[rng.choice(FUZZ_VALUES) if a is None else a for a in t] for t in templates]
    missing = str(tmp_path / "missing" / "out.jsonl")
    for argv in cases:
        argv = [missing if a == "{missing}" else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3) and "Traceback" not in err, argv
