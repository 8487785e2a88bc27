"""Self-tests of the benchmark (``python -m pytest bench``).

They run shrunken copies of the workloads, so they take seconds, not minutes.
"""

import dataclasses
import json
import statistics
import subprocess
import sys

import pytest

import measure
import run
import tracing
import workloads
from fredpairs import cli, matrices

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(name, **changes):
    changes = {"count": 12, **changes}
    return dataclasses.replace(workloads.WORKLOADS[name], **changes)


def run_once(workload, seed=5):
    items, paths, _, problems = measure.set_up(workload, seed, run.WORK / "test", 1)
    assert problems == []
    return items, paths


def failed_frac(workload, items, paths):
    outcomes = measure.Outcomes(workload, items)
    measure.run_ops(outcomes, paths, 0.0)
    return outcomes.failed / outcomes.attempted


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quotas_fill_the_list_and_leave_no_size_out(name):
    workload = workloads.WORKLOADS[name]
    for kind in workloads.KINDS:
        stratum_of, quotas = workloads.strata_plan(
            workload.max_dim, kind, workload.count // 2)
        assert sum(quotas) == workload.count // 2
        assert len(quotas) == max(stratum_of) + 1 and min(quotas) > 0


def test_same_seed_gives_identical_files(tmp_path):
    workload = small("fuzz-d6")
    for directory in ("a", "b"):
        measure.set_up(workload, 7, tmp_path / directory, 1)
    first = sorted((tmp_path / "a").iterdir())
    assert first
    for path in first:
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert workloads.generate(workload, 8) != workloads.generate(workload, 7)


def test_instances_and_reports_are_those_of_fuzz(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["fuzz", "--seed", "3", "--count", "6"]) == 0
    *lines, _summary = capsys.readouterr().out.splitlines()
    workload = workloads.WORKLOADS["fuzz-d6"]
    for line in map(json.loads, lines):
        kind, instance = workloads.fuzz_instance(workload.max_dim, 3, line["ordinal"])
        assert (kind, instance.to_json_obj()) == (line["kind"], line["instance"])
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(line["instance"]))
        item = workloads.Item(line["ordinal"], kind, path.read_text(), 0)
        code, out, _ = workloads.run_op(workloads.argv_for(workload, item, str(path)))
        assert code == 0 and json.loads(out)["reports"] == line["reports"]


def test_correct_program_has_no_failures():
    workload = small("fuzz-d6")
    assert failed_frac(workload, *run_once(workload)) == 0


def test_wrong_matmul_is_caught(monkeypatch):
    workload = small("fuzz-d6")
    items, paths = run_once(workload)
    original = matrices.mat_mul

    def off_by_one(a, b, m, k, n):
        out = original(a, b, m, k, n)
        if m and n:
            out[0][0] += 1
        return out

    monkeypatch.setattr(matrices, "mat_mul", off_by_one)
    assert failed_frac(workload, items, paths) > 0


def test_wrong_pseudoinverse_is_caught(monkeypatch):
    workload = small("fuzz-d6")
    items, paths = run_once(workload)
    pseudoinverse = matrices.RatMatrix.pseudoinverse

    def off_in_one_entry(self):
        good = pseudoinverse(self)
        if not good.rows or not good.cols:
            return good
        unit = [[int(i == j == 0) for j in range(good.cols)] for i in range(good.rows)]
        return good + matrices.RatMatrix(good.rows, good.cols, unit)

    monkeypatch.setattr(matrices.RatMatrix, "pseudoinverse", off_in_one_entry)
    assert failed_frac(workload, items, paths) > 0


def test_stdout_change_is_caught_on_the_default_seed(monkeypatch):
    # Printing integers as "n/1" passes every verifier and index check; only
    # the stdout recorded for the default seed catches it.
    workload = workloads.WORKLOADS["fuzz-d6"]
    items, paths, _, _ = measure.set_up(workload, run.DEFAULT_SEED, run.WORK / "seed", 1)
    reference = json.loads(run.EXPECTED.read_text())["stdout_sha256"][workload.name]
    head = slice(0, 12)

    def failures():
        outcomes = measure.Outcomes(workload, items[head], reference[head])
        measure.run_ops(outcomes, paths[head], 0.0)
        return outcomes.failed

    assert failures() == 0
    monkeypatch.setattr(matrices, "_encode_rat", lambda v: f"{v.numerator}/{v.denominator}")
    assert failures() > 0


def test_wrong_rank_is_caught_on_the_report_path(monkeypatch):
    workload = small("defects-d16", max_dim=6)
    items, paths = run_once(workload)
    original = matrices.rref_rows

    def lose_last_pivot(rows, ncols):
        reduced, pivots = original(rows, ncols)
        return reduced, pivots[:-1]

    monkeypatch.setattr(matrices, "rref_rows", lose_last_pivot)
    assert failed_frac(workload, items, paths) > 0


def printed_metrics(capsys, trace):
    assert run.main(["--workload", "fuzz-d6", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    *_, context, result = capsys.readouterr().out.strip().splitlines()
    result = json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert "kernel_backend" in json.loads(context)["context"]
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(capsys, monkeypatch, trace, section):
    monkeypatch.setitem(workloads.WORKLOADS, "fuzz-d6", small("fuzz-d6"))
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert printed_metrics(capsys, trace) == declared


def test_traced_counts_repeat_exactly(tmp_path):
    workload = small("fuzz-d6")

    def counts():
        _, metrics, _, problems = measure.per_layer(workload, 5, tmp_path / "w", tmp_path / "s")
        assert problems == []
        return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bits")
                or k.endswith(("repeat_frac", "zero_operand_frac"))}

    first = counts()
    assert first["kernels.rref_calls"] > 0
    assert counts() == first


def test_tracer_restores_every_binding():
    before = (matrices.rref_rows, matrices.RatMatrix.__dict__["rref"], cli.json)
    tracer = tracing.Tracer()
    tracer.install()
    assert matrices.rref_rows is not before[0]
    tracer.uninstall()
    after = (matrices.rref_rows, matrices.RatMatrix.__dict__["rref"], cli.json)
    assert after == before


def test_spans_round_trip(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        matrices.RatMatrix.identity(3).rank
    finally:
        tracer.uninstall()
    tracer.write(tmp_path / "spans")
    header, columns = tracing.read_spans(tmp_path / "spans")
    assert header["spans"] == 2
    names = [header["names"][i] for i in columns["name"]]
    assert names == ["matrices.rref", "kernels.rref_rows"]
    assert list(columns["parent"]) == [-1, 0]


def test_refuses_optimized_python():
    done = subprocess.run(
        [sys.executable, "-O", str(run.ROOT / "bench" / "run.py"), "--workload", "fuzz-d6",
         "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=run.ROOT,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert "-O" in done.stderr


def test_refuses_a_package_outside_the_tree():
    with pytest.raises(run.BenchError):
        run.check_package_location("/elsewhere/fredpairs/__init__.py")


def test_host_scale_follows_the_share_of_slow_calibrations():
    reference = measure.CALIBRATION_REFERENCE_S
    assert measure.host_scale([reference] * 20) == pytest.approx(1.0)
    # a tenth of outliers either way leaves the scale alone
    steady = [reference] * 16 + [reference / 100] * 2 + [reference * 100] * 2
    assert measure.host_scale(steady) == pytest.approx(1.0)
    # the median would jump to the slow mode; the scale moves by the share
    mixed = [reference] * 9 + [2 * reference] * 11
    assert measure.host_scale(mixed) == pytest.approx(reference / statistics.mean(
        sorted(mixed)[2:18]))
    assert 0.5 < measure.host_scale(mixed) < 0.7
