import json
import os

import pytest

from plumbcalc.cli import main
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
        [[{"id": 0, "weight": -2}], {"vertices": [{"id": 0, "weight": None}], "edges": []}],
        ids=["top-level-list", "null-weight"],
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
