import hashlib
import json
from dataclasses import replace

import pytest

from fredpairs import PairInstance, cli
from fredpairs.cli import main

W2 = {"dim_x": 2, "dim_y": 1, "s": [[1, 0]], "t": [[0], [1]]}
NON_COMPLEX_CHAIN = {"dims": [1, 1, 1], "maps": [[[1]], [[1]]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPairReport:
    def test_w2(self, tmp_path, capsys):
        code, out, err = run(capsys, ["pair-report", write(tmp_path, "w2.json", W2)])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report == {
            "a": 0,
            "b": 0,
            "c": 0,
            "d": 1,
            "index": 1,
            "dim_range_st": 0,
            "dim_range_ts": 1,
        }

    def test_zero_maps(self, tmp_path, capsys):
        obj = {"dim_x": 3, "dim_y": 1, "s": [[0, 0, 0]], "t": [[0], [0], [0]]}
        code, out, _ = run(capsys, ["pair-report", write(tmp_path, "z.json", obj)])
        assert code == 0
        assert json.loads(out)["index"] == 2

    def test_zero_denominator_rejected(self, tmp_path, capsys):
        obj = {"dim_x": 1, "dim_y": 1, "s": [["1/0"]], "t": [[0]]}
        code, out, err = run(capsys, ["pair-report", write(tmp_path, "bad.json", obj)])
        assert code == 2
        assert out == "" and "denominator" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, out, err = run(capsys, ["pair-report", str(path)])
        assert code == 2 and err

    def test_shape_mismatch(self, tmp_path, capsys):
        obj = {"dim_x": 2, "dim_y": 2, "s": [[1, 0]], "t": [[0], [1]]}
        code, _, err = run(capsys, ["pair-report", write(tmp_path, "bad.json", obj)])
        assert code == 2 and err

    def test_boolean_dimension_rejected(self, tmp_path, capsys):
        obj = {"dim_x": True, "dim_y": 1, "s": [[1]], "t": [[0]]}
        code, out, err = run(capsys, ["pair-report", write(tmp_path, "bad.json", obj)])
        assert code == 2
        assert out == "" and "dim_x" in err

    @pytest.mark.parametrize("cell", ["1/0", "1/2/3", "x", True, 1.5])
    def test_bad_entries_rejected(self, tmp_path, capsys, cell):
        obj = {"dim_x": 2, "dim_y": 1, "s": [[1, cell]], "t": [[0], [1]]}
        code, out, err = run(capsys, ["pair-report", write(tmp_path, "bad.json", obj)])
        assert (code, out) == (2, "") and err.startswith("error: ")
        code, out, err = run(capsys, ["pinv", write(tmp_path, "m.json", [[cell]])])
        assert (code, out) == (2, "") and err.startswith("error: ")


class TestChainReport:
    def test_non_complex(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["chain-report", write(tmp_path, "c.json", NON_COMPLEX_CHAIN)]
        )
        assert code == 0
        report = json.loads(out)
        assert report["index"] == 1
        assert report["d"] == [0, -1, 0]
        assert report["euler_characteristic"] == 1

    def test_boolean_dimension_rejected(self, tmp_path, capsys):
        obj = {"dims": [True, 1], "maps": [[[1]]]}
        code, out, err = run(capsys, ["chain-report", write(tmp_path, "bad.json", obj)])
        assert code == 2
        assert out == "" and "dims" in err


class TestVerify:
    def test_w2_thm34(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["verify", write(tmp_path, "w2.json", W2), "--thm34"]
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["name"] for r in reports] == ["theorem_3_4"]
        assert reports[0]["passed"]

    def test_chain_all(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["verify", write(tmp_path, "c.json", NON_COMPLEX_CHAIN), "--all"]
        )
        assert code == 0
        names = [r["name"] for r in json.loads(out)["reports"]]
        assert names == ["remark_2_3", "theorem_4_2", "theorem_4_4", "theorem_3_4", "theorem_3_6"]

    def test_chain_checks_on_pair_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, ["verify", write(tmp_path, "w2.json", W2), "--thm42"]
        )
        assert code == 2 and err


class TestFuzz:
    def test_deterministic_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code1, out1, _ = run(capsys, ["fuzz", "--seed", "7", "--count", "8"])
        code2, out2, _ = run(capsys, ["fuzz", "--seed", "7", "--count", "8"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_lines_are_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["fuzz", "--seed", "3", "--count", "4"])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 5  # 4 instances + summary
        assert lines[-1]["summary"]["passed"] == 4
        kinds = [line["kind"] for line in lines[:-1]]
        assert set(kinds) == {"pair", "chain"}

    def test_failure_exits_1_and_writes_the_instances(self, tmp_path, capsys, monkeypatch):
        verify = cli.verify_theorem_3_6
        monkeypatch.setattr(cli, "verify_theorem_3_6", lambda p: replace(verify(p), passed=False))
        failures = tmp_path / "failures"
        code, out, _ = run(
            capsys, ["fuzz", "--seed", "5", "--count", "4", "--failures-dir", str(failures)]
        )
        assert code == 1
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["summary"] == {"count": 4, "passed": 2, "failed": 2, "seed": 5}
        failed = [line for line in lines[:-1] if line["passed"] is False]
        assert [line["kind"] for line in failed] == ["pair", "pair"]  # even ordinals
        assert '"passed": false' in out
        written = sorted(failures.iterdir())
        assert [p.name for p in written] == [f"instance_5_{line['ordinal']}.json" for line in failed]
        for path, line in zip(written, failed):
            obj = json.loads(path.read_text(encoding="utf-8"))
            assert obj == line["instance"]
            assert PairInstance.from_json_obj(obj) == PairInstance.from_json_obj(line["instance"])

    def test_empty_run(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--count", "0"])
        assert code == 0
        assert json.loads(out)["summary"]["count"] == 0

    # sha256 of the whole stdout: the bytes fuzz prints for a seed are a
    # contract, so a change that alters them the same way on every run fails.
    PINNED = [
        (
            ["--seed", "1", "--count", "100"],
            "4cc9e5be0fb31bb76291188d245506768c2362f548f2d467dcdd6ba0dc6bdbab",
        ),
        (
            ["--seed", "3", "--count", "20", "--max-dim", "16"],
            "2d2b2fff31ee813cfbb479d4f7529f23f7f7ec04e8e66369285b1aff6f113884",
        ),
    ]

    @pytest.mark.parametrize("flags, digest", PINNED, ids=["seed1-d6", "seed3-d16"])
    def test_output_bytes_are_pinned(self, tmp_path, capsys, monkeypatch, flags, digest):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["fuzz", *flags])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPinv:
    def test_scalar(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["pinv", write(tmp_path, "m.json", [[2]])])
        assert code == 0
        assert json.loads(out) == [["1/2"]]

    def test_row_vector(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["pinv", write(tmp_path, "m.json", [[1, 1]])])
        assert code == 0
        assert json.loads(out) == [["1/2"], ["1/2"]]

    def test_zero_matrix(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["pinv", write(tmp_path, "m.json", [[0, 0], [0, 0]])])
        assert code == 0
        assert json.loads(out) == [[0, 0], [0, 0]]

    def test_integer_past_the_digit_limit_rejected(self, tmp_path, capsys):
        # longer than Python's default limit of 4300 digits per int literal
        path = tmp_path / "m.json"
        path.write_text("[[" + "1" * 5000 + "]]", encoding="utf-8")
        code, out, err = run(capsys, ["pinv", str(path)])
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_deep_nesting_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, ["pinv", str(path)])
        assert (code, out) == (2, "") and err.startswith("error: ")


class TestParser:
    def test_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        path = write(tmp_path, "w2.json", W2)
        first = run(capsys, ["verify", "--thm34", path])
        second = run(capsys, ["verify", "--thm34", path])
        assert built == [1]
        assert first == second and first[0] == 0 and first[1]

    def test_parse_keeps_no_state(self, tmp_path, capsys):
        path = write(tmp_path, "w2.json", W2)
        _, one, _ = run(capsys, ["verify", "--thm34", path])
        _, both, _ = run(capsys, ["verify", path])
        _, again, _ = run(capsys, ["verify", "--thm34", path])
        assert one == again != both
