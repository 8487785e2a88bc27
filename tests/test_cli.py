import errno
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import fredpairs
from fredpairs import (
    DimensionError,
    PairInstance,
    RatMatrix,
    Subspace,
    cli,
    generators,
    pairs,
)
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
        # the keys print in the order PairDefects declares its fields
        assert out == '{"a": 0, "b": 0, "c": 0, "d": 1, "index": 1, "dim_range_st": 0, "dim_range_ts": 1}\n'

    def test_forms_no_composition(self, tmp_path, capsys, monkeypatch):
        # b and d are the composition ranks, so neither S T nor T S is formed
        obj = {"dim_x": 3, "dim_y": 2, "s": [[1, 0, 0], [0, 0, 0]], "t": [[1, 0], [1, 1], [0, 0]]}
        pair = PairInstance.from_json_obj(obj)
        operands = []
        matmul = RatMatrix.__matmul__

        def recording(a, b):
            operands.append((a, b))
            return matmul(a, b)

        monkeypatch.setattr(RatMatrix, "__matmul__", recording)
        code, out, _ = run(capsys, ["pair-report", write(tmp_path, "p.json", obj)])
        report = json.loads(out)
        assert code == 0 and (report["dim_range_st"], report["dim_range_ts"]) == (1, 1)
        assert (pair.s, pair.t) not in operands and (pair.t, pair.s) not in operands

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

    @pytest.mark.parametrize("dim_x, code", [(2048, 0), (2049, 2)])
    def test_total_dimension_limit(self, tmp_path, capsys, dim_x, code):
        obj = {"dim_x": dim_x, "dim_y": 0, "s": [], "t": [[]] * dim_x}
        got, out, err = run(capsys, ["pair-report", write(tmp_path, "big.json", obj)])
        assert got == code
        if code == 2:
            assert out == "" and err == "error: dim_x + dim_y must be at most 2048\n"

    @pytest.mark.parametrize("cell", ["1/0", "1/2/3", "x", True, 1.5, "1_0", "+3"])
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

    def test_single_space_builds_no_identity(self, tmp_path, capsys, monkeypatch):
        # The defects of {"dims": [N]} are counted from ranks; an N x N
        # identity basis of N(d_0) would cost N^2 memory.
        def refuse(n):
            raise AssertionError(f"built a {n}x{n} identity")

        monkeypatch.setattr(RatMatrix, "identity", staticmethod(refuse))
        path = write(tmp_path, "c.json", {"dims": [50], "maps": []})
        code, out, err = run(capsys, ["chain-report", path])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["a"], report["b"], report["index"]) == ([50], [0], 50)

    def test_boolean_dimension_rejected(self, tmp_path, capsys):
        obj = {"dims": [True, 1], "maps": [[[1]]]}
        code, out, err = run(capsys, ["chain-report", write(tmp_path, "bad.json", obj)])
        assert code == 2
        assert out == "" and "dims" in err

    @pytest.mark.parametrize("top, code", [(2048, 0), (2049, 2)])
    def test_total_dimension_limit(self, tmp_path, capsys, top, code):
        path = write(tmp_path, "big.json", {"dims": [0, top], "maps": [[]]})
        got, out, err = run(capsys, ["chain-report", path])
        assert got == code
        if code == 2:
            assert out == "" and err == "error: the dims must total at most 2048\n"

    @pytest.mark.parametrize("command", ["chain-report", "verify"])
    def test_dimension_past_any_matrix_exits_2(self, tmp_path, capsys, command):
        # 10**20 fits no matrix: the padding map RatMatrix.zero(10**20, 0)
        # overflowed before the limit, a traceback with exit 1
        path = write(tmp_path, "huge.json", {"dims": [0, 10**20], "maps": [[]]})
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (2, "")
        assert err == "error: the dims must total at most 2048\n"

    @pytest.mark.parametrize("degrees, code", [(2048, 0), (2049, 2)])
    def test_degree_count_limit(self, tmp_path, capsys, degrees, code):
        # zero-dimensional degrees pass the total-dimension limit, yet
        # 200,000 of them took seconds and hundreds of MB to verify
        obj = {"dims": [0] * degrees, "maps": [[]] * (degrees - 1)}
        got, out, err = run(capsys, ["chain-report", write(tmp_path, "long.json", obj)])
        assert got == code
        if code == 2:
            assert out == "" and err == "error: a chain may have at most 2048 degrees\n"


@pytest.mark.parametrize(
    "command, obj",
    [
        ("pair-report", [1, 2]),
        ("chain-report", [1, 2]),
        ("verify", [1, 2]),
        ("pair-report", {"dim_x": 1, "dim_y": 1, "s": [[1]]}),
        ("chain-report", {"dims": [1]}),
        ("chain-report", {"dims": [1, 1], "maps": []}),
    ],
    ids=[
        "pair-not-object",
        "chain-not-object",
        "verify-not-object",
        "pair-missing-t",
        "chain-missing-maps",
        "chain-too-few-maps",
    ],
)
def test_structural_refusals_exit_2(tmp_path, capsys, command, obj):
    code, out, err = run(capsys, [command, write(tmp_path, "bad.json", obj)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["pair-report", "chain-report", "verify", "pinv"])
def test_missing_file_exits_2(tmp_path, capsys, command):
    code, out, err = run(capsys, [command, str(tmp_path / "absent.json")])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


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

    def test_reports_in_a_fixed_order(self, tmp_path, capsys):
        # the flags out of order and one of them twice
        flags = ["--thm44", "--thm42", "--thm34", "--thm42"]
        code, out, _ = run(
            capsys, ["verify", write(tmp_path, "c.json", NON_COMPLEX_CHAIN), *flags]
        )
        assert code == 0
        names = [r["name"] for r in json.loads(out)["reports"]]
        assert names == ["theorem_4_2", "theorem_4_4", "theorem_3_4"]

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

    def test_invariant_error_fails_only_its_instance(self, tmp_path, capsys, monkeypatch):
        # An "induced map" that ignores its quotients leaves S~ T~ = S T, so
        # every pair that is not a complex raises InvariantError; the
        # complexes and the chains, which read chains.induced_map, still pass.
        flags = ["fuzz", "--seed", "5", "--count", "8", "--failures-dir", str(tmp_path / "f")]
        _, unpatched, _ = run(capsys, flags)
        monkeypatch.setattr(pairs, "induced_map", lambda a, q_dom, q_cod: a)
        code, out, err = run(capsys, flags)
        assert code == 3
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["summary"] == {
            "count": 8, "passed": 7, "failed": 1, "errors": 1, "seed": 5
        }
        errored = [line for line in lines[:-1] if "error" in line]
        assert [line["ordinal"] for line in errored] == [4]
        assert errored[0]["error"] == "the induced pair is not a complex"
        assert errored[0]["passed"] is False and "reports" not in errored[0]
        assert err == "invariant failed in instance 4: the induced pair is not a complex\n"
        # every other line is as before, and the errored line has the same instance
        expected = unpatched.splitlines()
        for got, want in zip(out.splitlines()[:-1], expected):
            if "error" in json.loads(got):
                assert json.loads(got)["instance"] == json.loads(want)["instance"]
            else:
                assert got == want
        written = [p.name for p in (tmp_path / "f").iterdir()]
        assert written == ["instance_5_4.json"]

    def test_any_package_error_fails_only_its_instance(self, tmp_path, capsys, monkeypatch):
        # A DimensionError in the first chain's theorem 4.4 is an internal
        # failure too: its line carries the error and the summary still comes.
        verify = cli.verify_theorem_4_4
        raised = []

        def fails_once(c):
            if not raised:
                raised.append(c)
                raise DimensionError("injected")
            return verify(c)

        monkeypatch.setattr(cli, "verify_theorem_4_4", fails_once)
        code, out, err = run(
            capsys, ["fuzz", "--seed", "5", "--count", "4", "--failures-dir", str(tmp_path / "f")]
        )
        assert code == 3
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["summary"] == {
            "count": 4, "passed": 3, "failed": 1, "errors": 1, "seed": 5
        }
        assert [line["ordinal"] for line in lines[:-1] if "error" in line] == [1]
        assert lines[1]["error"] == "injected" and lines[1]["passed"] is False
        assert err == "invariant failed in instance 1: injected\n"

    def test_generator_invariant_error_has_no_instance(self, tmp_path, capsys, monkeypatch):
        # With a kernel basis that spans everything, the complex-only
        # generators overrun their budgets from ordinal 3 on.
        monkeypatch.setattr(generators, "kernel_basis", lambda a: Subspace.full(a.cols))
        failures = tmp_path / "f"
        code, out, err = run(
            capsys,
            ["fuzz", "--seed", "0", "--count", "6", "--max-dim", "4", "--rank-budget", "0",
             "--complex-only", "--failures-dir", str(failures)],
        )
        assert code == 3
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["summary"] == {
            "count": 6, "passed": 3, "failed": 3, "errors": 3, "seed": 0
        }
        for line in lines[3:-1]:
            assert set(line) == {"ordinal", "kind", "seed", "error", "passed"}
            assert "over the budget" in line["error"] and line["passed"] is False
        assert err.count("invariant failed in instance") == 3
        assert not failures.exists()

    def test_failure_past_the_digit_limit_is_written(self, tmp_path, capsys, monkeypatch):
        # The instance's entry has more digits than Python's default limit of
        # 4300, so its failure file is encoded where the limit is lifted.
        big = RatMatrix.from_rows([[10**5000]])
        monkeypatch.setattr(
            cli, "_fuzz_instance", lambda cfg, kind: PairInstance(1, 1, big, RatMatrix.zero(1, 1))
        )
        verify = cli.verify_theorem_3_4
        monkeypatch.setattr(cli, "verify_theorem_3_4", lambda p: replace(verify(p), passed=False))
        failures = tmp_path / "f"
        code, out, err = run(
            capsys, ["fuzz", "--seed", "2", "--count", "1", "--failures-dir", str(failures)]
        )
        assert (code, err) == (1, "")
        line, summary = out.splitlines()
        assert json.loads(summary) == {"summary": {"count": 1, "passed": 0, "failed": 1, "seed": 2}}
        written = failures / "instance_2_0.json"
        text = written.read_text(encoding="utf-8")
        assert text == '{"dim_x": 1, "dim_y": 1, "s": [[1' + "0" * 5000 + ']], "t": [[0]]}'
        assert f'"instance": {text}' in line

    def test_failures_dir_that_is_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        verify = cli.verify_theorem_3_4
        monkeypatch.setattr(cli, "verify_theorem_3_4", lambda p: replace(verify(p), passed=False))
        not_a_dir = tmp_path / "f"
        not_a_dir.write_text("", encoding="utf-8")
        code, out, err = run(
            capsys, ["fuzz", "--seed", "5", "--count", "1", "--failures-dir", str(not_a_dir)]
        )
        assert code == 2
        assert json.loads(out)["passed"] is False  # the line came; the summary did not
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert not_a_dir.read_text(encoding="utf-8") == ""

    def test_empty_run(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--count", "0"])
        assert code == 0
        assert json.loads(out)["summary"]["count"] == 0

    def test_negative_count_rejected(self, capsys):
        code, out, err = run(capsys, ["fuzz", "--count", "-3"])
        assert (code, out) == (2, "") and "--count" in err

    @pytest.mark.parametrize(
        "max_dim, code", [("341", 0), ("342", 2), ("100000000000000000000", 2)]
    )
    def test_max_dim_limit(self, capsys, max_dim, code):
        # 341 = 2048 // 6: a chain of five maps has six degrees of at most
        # max_dim, so no instance passes the readers' total-dimension limit
        got, out, err = run(capsys, ["fuzz", "--count", "0", "--max-dim", max_dim])
        assert got == code
        if code == 2:
            assert out == "" and err == f"error: --max-dim must be at most 341, got {max_dim}\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-dim", "-1", "max_dim"),
            ("--entry-bound", "0", "entry_bound"),
            ("--rank-budget", "-1", "rank_budget"),
        ],
    )
    @pytest.mark.parametrize("count", ["0", "2"])
    def test_bad_generator_option_rejected(self, capsys, flag, value, message, count):
        # the options are checked before the first instance, so even a run
        # of no instances refuses them and prints nothing
        code, out, err = run(capsys, ["fuzz", "--count", count, flag, value])
        assert (code, out) == (2, "") and message in err

    # sha256 of the whole stdout: the bytes fuzz prints for a seed are a
    # contract, so a change that alters them the same way on every run fails.
    # The runs span the regimes: the defaults, larger dimensions, a rank
    # budget that leaves more composition ranges nonzero, and complexes only.
    PINNED = [
        (
            ["--seed", "1", "--count", "100"],
            "4cc9e5be0fb31bb76291188d245506768c2362f548f2d467dcdd6ba0dc6bdbab",
        ),
        (
            ["--seed", "3", "--count", "20", "--max-dim", "16"],
            "2d2b2fff31ee813cfbb479d4f7529f23f7f7ec04e8e66369285b1aff6f113884",
        ),
        (
            ["--seed", "1", "--count", "300"],
            "30230b4ac3c1bb54bd0889ebdc2c2b14d61e86434bdc841ece1d639ecb39401a",
        ),
        (
            ["--seed", "3", "--count", "10", "--max-dim", "32"],
            "0b60c8dc0a686d85b00104b40ba83af2b9a95e32f59227de0118f4eaa63c1d30",
        ),
        (
            ["--seed", "5", "--count", "200", "--rank-budget", "4"],
            "2804c4d0eb340c8f3b32c19c32142b2f79d98ae818410febbdf0736714cfdabd",
        ),
        (
            ["--seed", "7", "--count", "100", "--max-dim", "10"],
            "3e64920172660d08a4baf0fd0f2f296f3193bf864a45569e68076e98b46d71c5",
        ),
        (
            ["--seed", "9", "--count", "100", "--complex-only"],
            "fe7dfa3450a4f233906cd4d0ea94c1ad1be05887b010d16a8e50f8bb4787a8fb",
        ),
    ]

    @pytest.mark.parametrize(
        "flags, digest",
        PINNED,
        ids=[
            "seed1-d6",
            "seed3-d16",
            "seed1-d6-300",
            "seed3-d32",
            "seed5-budget4",
            "seed7-d10",
            "seed9-complex",
        ],
    )
    def test_output_bytes_are_pinned(self, tmp_path, capsys, monkeypatch, flags, digest):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["fuzz", *flags])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_large_entry_bound_stays_fast(self, tmp_path):
        # Each raw matrix goes over the lcm of the denominators it drew; the
        # lcm of 1..entry_bound has about 1.44 * entry_bound bits, so taking
        # it instead would spend minutes on this run, which takes well under
        # a second.
        src = str(Path(fredpairs.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "fredpairs.cli", "fuzz", "--seed", "2", "--count", "20",
             "--entry-bound", "1000000"],
            capture_output=True,
            timeout=20,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        digest = "446f42ea98147f8f68a1a77f80b43551af566ae80d99cf3953d5744ad7fbd826"
        assert hashlib.sha256(done.stdout).hexdigest() == digest


class BrokenStdout:
    """A stdout on descriptor ``fd`` whose every write and flush raises ``error``."""

    def __init__(self, error, fd):
        self.error, self.fd = error, fd

    def write(self, text):
        raise self.error

    def flush(self):
        raise self.error

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "error",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left on device")],
    ids=["broken-pipe", "disk-full"],
)
def test_unwritable_stdout_exits_2(tmp_path, capsys, monkeypatch, error):
    # One error line and exit 2, as for bad input; the descriptor then points
    # at os.devnull, so the interpreter's own flush at exit reports nothing.
    with open(tmp_path / "stdout", "wb") as handle:
        monkeypatch.setattr(sys, "stdout", BrokenStdout(error, handle.fileno()))
        code = main(["fuzz", "--seed", "1", "--count", "2", "--failures-dir", str(tmp_path)])
        monkeypatch.undo()
        assert os.path.samestat(os.fstat(handle.fileno()), os.stat(os.devnull))
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write output: {error}\n"


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

    def test_result_past_the_digit_limit_printed(self, tmp_path, capsys):
        # 3000-digit entries are accepted; the inverse has entries of about
        # 6000 digits, past Python's default limit of 4300
        a, b = int("1" * 3000), int("2" * 2999 + "3")
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, ["pinv", write(tmp_path, "m.json", [[a, b], [b, a]])])
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        det = a * a - b * b
        inverse = [[Fraction(a, det), Fraction(-b, det)], [Fraction(-b, det), Fraction(a, det)]]
        sys.set_int_max_str_digits(0)
        try:
            expected = [[f"{x.numerator}/{x.denominator}" for x in row] for row in inverse]
        finally:
            sys.set_int_max_str_digits(limit)
        assert json.loads(out) == expected

    @pytest.mark.parametrize("cols, code", [(2047, 0), (2048, 2)])
    def test_total_dimension_limit(self, tmp_path, capsys, cols, code):
        got, out, err = run(capsys, ["pinv", write(tmp_path, "m.json", [[0] * cols])])
        assert got == code
        if code == 2:
            assert out == "" and err == "error: a matrix's rows + cols must be at most 2048\n"
        else:
            assert json.loads(out) == [[0]] * cols

    def test_total_dimension_limit_comes_before_the_entries(self, tmp_path, capsys):
        code, out, err = run(capsys, ["pinv", write(tmp_path, "m.json", [["x"] * 2048])])
        assert (code, out) == (2, "")
        assert err == "error: a matrix's rows + cols must be at most 2048\n"

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
