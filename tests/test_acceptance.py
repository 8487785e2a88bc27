"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact integer arithmetic over Q; there are no tolerances
anywhere.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

import json
import time

import pytest

from fredpairs import (
    GenConfig,
    Subspace,
    chain_defects,
    image_basis,
    induced_pair,
    kernel_basis,
    pair_defects,
    quotient_chain,
    random_chain,
    random_matrix,
    random_pair,
    verify_remark_2_3,
    verify_theorem_3_4,
    verify_theorem_3_6,
    verify_theorem_4_2,
    verify_theorem_4_4,
)
from fredpairs.cli import main

from _reference_subspaces import complement, push_image

PAIR_COUNT = 500
CHAIN_COUNT = 300


def report(number, label, failures, total, extra=""):
    status = "PASS" if failures == 0 else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {number} [{label}]: {status} {total - failures}/{total}{suffix}")
    assert failures == 0, f"criterion {number}: {failures} of {total} instances failed"


@pytest.fixture(scope="module")
def pairs():
    cfg = GenConfig(seed=20240824, max_dim=8, rank_budget=2)
    rng = cfg.rng()
    return [random_pair(cfg, rng) for _ in range(PAIR_COUNT)]


@pytest.fixture(scope="module")
def chains():
    cfg = GenConfig(seed=20240825, max_dim=6, rank_budget=2)
    rng = cfg.rng()
    return [random_chain(cfg, rng.randint(1, 5), rng) for _ in range(CHAIN_COUNT)]


def test_criterion_1_defect_identities(pairs):
    start = time.monotonic()
    failures = 0
    for p in pairs:
        d = pair_defects(p)
        ok = (
            d.b == d.dim_range_st
            and d.d == d.dim_range_ts
            and d.index == p.dim_x - p.dim_y
            and d.index == d.a - d.b - d.c + d.d
        )
        failures += not ok
    elapsed = time.monotonic() - start
    report(1, "defect identities", failures, len(pairs), f"{elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_2_theorem_3_4(pairs):
    failures = sum(not verify_theorem_3_4(p).passed for p in pairs)
    report(2, "theorem 3.4 index identities", failures, len(pairs))


def test_criterion_3_theorem_3_6(pairs):
    failures = 0
    for p in pairs:
        rep = verify_theorem_3_6(p)
        d = pair_defects(p)
        ok = (
            rep.passed
            and rep.details["block_diagonal"]
            and rep.details["rank_corrector"] <= d.dim_range_st + d.dim_range_ts
            and rep.details["nullity_lap_x_tilde"] == d.a
            and rep.details["nullity_lap_y_tilde"] == d.c
        )
        failures += not ok
    report(3, "theorem 3.6 Laplacians", failures, len(pairs))


def test_criterion_4_remark_2_3(chains):
    failures = 0
    for c in chains:
        rep = verify_remark_2_3(c)
        euler = sum(d if p % 2 == 0 else -d for p, d in enumerate(c.dims))
        failures += not (rep.passed and rep.details["chain_index"] == euler)
    report(4, "remark 2.3 folding", failures, len(chains))


def test_criterion_5_theorem_4_2(chains):
    failures = sum(not verify_theorem_4_2(c).passed for c in chains)
    report(5, "theorem 4.2 parity operators", failures, len(chains))


def test_criterion_6_theorem_4_4(chains):
    failures = 0
    for c in chains:
        rep = verify_theorem_4_4(c)
        defects = chain_defects(c)
        ok = rep.passed and all(
            entry["nullity_tilde"] == defects.a[entry["degree"]]
            and entry["rank_perturbation"] <= entry["rank_bound"]
            for entry in rep.details["degrees"]
        )
        failures += not ok
    report(6, "theorem 4.4 quotient Laplacians", failures, len(chains))


def test_criterion_7a_quotient_chain_structure(chains):
    failures = 0
    for c in chains:
        qc = quotient_chain(c)
        ok = True
        for d_t, d_p in zip(qc.maps_tilde, qc.inverses_tilde):
            ok = ok and d_t @ d_p @ d_t == d_t and d_p @ d_t @ d_p == d_p
        for i in range(len(qc.maps_tilde) - 1):
            ok = ok and (qc.maps_tilde[i] @ qc.maps_tilde[i + 1]).is_zero()
            ok = ok and (qc.inverses_tilde[i + 1] @ qc.inverses_tilde[i]).is_zero()
        failures += not ok
    report("7a", "quotient chain inverse family", failures, len(chains))


def test_criterion_7b_penrose_identities():
    cfg = GenConfig(seed=31337, max_dim=6)
    rng = cfg.rng()
    failures = 0
    total = 1000
    for _ in range(total):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        rank = rng.randint(0, min(rows, cols)) if min(rows, cols) else 0
        a = random_matrix(cfg, rows, cols, rank, rng)
        b = a.pseudoinverse()
        ok = (
            a @ b @ a == a
            and b @ a @ b == b
            and (a @ b).transpose() == a @ b
            and (b @ a).transpose() == b @ a
        )
        failures += not ok
    report("7b", "Penrose identities", failures, total)


def test_criterion_7c_complement_transport():
    cfg = GenConfig(seed=271828, max_dim=8, rank_budget=2)
    rng = cfg.rng()
    failures = 0
    total = 200
    for _ in range(total):
        p = random_pair(cfg, rng)
        ind = induced_pair(p)
        m = complement(image_basis(p.s), Subspace.full(p.dim_y)).complement
        r_tilde = image_basis(ind.s_tilde)
        pushed_m = push_image(ind.q_y.projection, m)
        ok = (r_tilde + pushed_m).dim == ind.q_y.quotient_dim and (r_tilde & pushed_m).dim == 0
        big = kernel_basis(p.s) + image_basis(p.t)
        r = complement(big, Subspace.full(p.dim_x)).complement
        n_tilde = kernel_basis(ind.s_tilde)
        pushed_r = push_image(ind.q_x.projection, r)
        ok = (
            ok
            and (n_tilde + pushed_r).dim == ind.q_x.quotient_dim
            and (n_tilde & pushed_r).dim == 0
            and n_tilde == push_image(ind.q_x.projection, big)
        )
        failures += not ok
    report("7c", "complement transport", failures, total)


class TestCriterion8WorkedExamples:
    """The W2 pair and the three hand-computed chains, through the CLI."""

    W2 = {"dim_x": 2, "dim_y": 1, "s": [[1, 0]], "t": [[0], [1]]}
    EXACT_COMPLEX = {"dims": [1, 2, 1], "maps": [[[0, 1]], [[1], [0]]]}
    ZERO_MAP = {"dims": [1, 1], "maps": [[[0]]]}
    NON_COMPLEX = {"dims": [1, 1, 1], "maps": [[[1]], [[1]]]}

    def run(self, tmp_path, capsys, obj, argv_tail):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code = main(argv_tail[:1] + [str(path)] + argv_tail[1:])
        out = capsys.readouterr().out
        return code, json.loads(out)

    def test_w2_report(self, tmp_path, capsys):
        code, rep = self.run(tmp_path, capsys, self.W2, ["pair-report"])
        assert code == 0
        assert rep == {
            "a": 0, "b": 0, "c": 0, "d": 1, "index": 1,
            "dim_range_st": 0, "dim_range_ts": 1,
        }

    def test_w2_verify(self, tmp_path, capsys):
        code, rep = self.run(tmp_path, capsys, self.W2, ["verify", "--all"])
        assert code == 0
        by_name = {r["name"]: r for r in rep["reports"]}
        assert by_name["theorem_3_4"]["details"]["index_s_plus_t_prime"] == 1
        assert by_name["theorem_3_4"]["details"]["index_t_plus_s_prime"] == -1
        assert by_name["theorem_3_6"]["details"]["nullity_lap_x_tilde"] == 0
        assert by_name["theorem_3_6"]["details"]["nullity_lap_y_tilde"] == 0

    @pytest.mark.parametrize(
        "obj,expected_d,expected_index",
        [
            (EXACT_COMPLEX, [0, 0, 0], 0),
            (ZERO_MAP, [1, 1], 0),
            (NON_COMPLEX, [0, -1, 0], 1),
        ],
    )
    def test_chain_reports(self, tmp_path, capsys, obj, expected_d, expected_index):
        code, rep = self.run(tmp_path, capsys, obj, ["chain-report"])
        assert code == 0
        assert rep["d"] == expected_d
        assert rep["index"] == expected_index

    @pytest.mark.parametrize("obj", [EXACT_COMPLEX, ZERO_MAP, NON_COMPLEX])
    def test_chain_verify_all(self, tmp_path, capsys, obj):
        code, rep = self.run(tmp_path, capsys, obj, ["verify", "--all"])
        assert code == 0
        assert all(r["passed"] for r in rep["reports"])

    def test_pinv_cli(self, tmp_path, capsys):
        code, rep = self.run(tmp_path, capsys, [[1, 1]], ["pinv"])
        assert code == 0
        assert rep == [["1/2"], ["1/2"]]

    def test_report_line(self):
        print("criterion 8 [worked-example regression via CLI]: PASS")


def test_criterion_9_fuzz_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code1 = main(["fuzz", "--seed", "42", "--count", "50"])
    out1 = capsys.readouterr().out
    code2 = main(["fuzz", "--seed", "42", "--count", "50"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    report(9, "fuzz determinism", 0 if ok else 1, 1)
