"""Internal invariants are explicit checks that raise ``InvariantError``.

They must hold under ``python -O`` too, and the CLI reports them with exit
code 3, apart from 1 (a verifier check failed) and 2 (bad input).
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fredpairs
from fredpairs import (
    GenConfig,
    InvariantError,
    PairInstance,
    RatMatrix,
    Subspace,
    build_extensions,
    chains,
    generators,
    matrices,
    pairs,
    quotient_chain,
    random_chain,
    random_pair,
    subspaces,
)
from fredpairs.cli import main

from conftest import mat

# d_1 d_2 = 0 and both maps are nonzero, so quotient_chain composes two
# nonzero pseudoinverses and checks that they compose to zero.
CHAIN = {"dims": [1, 2, 1], "maps": [[[0, 1]], [[1], [0]]]}
# S T = T S = 0, so S~ = S and T~ = T, both nonzero
PAIR = {"dim_x": 2, "dim_y": 2, "s": [[1, 0], [0, 0]], "t": [[0, 0], [0, 1]]}


def off_in_one_entry(pseudoinverse):
    def wrong(self):
        good = pseudoinverse(self)
        if not good.rows or not good.cols:
            return good
        unit = [[int(i == j == 0) for j in range(good.cols)] for i in range(good.rows)]
        return good + RatMatrix(good.rows, good.cols, unit)

    return wrong


@pytest.fixture
def wrong_pseudoinverse(monkeypatch):
    monkeypatch.setattr(
        RatMatrix, "pseudoinverse", off_in_one_entry(RatMatrix.pseudoinverse)
    )


@pytest.fixture
def zero_pseudoinverse(monkeypatch):
    # X = 0 satisfies X A X = X and composes to zero, but fails A X A = A
    monkeypatch.setattr(RatMatrix, "pseudoinverse", lambda self: RatMatrix.zero(self.cols, self.rows))


def test_build_extensions(zero_pseudoinverse):
    with pytest.raises(InvariantError, match="not a generalized inverse"):
        build_extensions(PairInstance.from_json_obj(PAIR))


def test_quotient_chain(wrong_pseudoinverse):
    with pytest.raises(InvariantError, match="inverses"):
        quotient_chain(chains.ChainInstance.from_json_obj(CHAIN))


def test_cli_exits_3(wrong_pseudoinverse, tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    assert main(["verify", str(path), "--thm42"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invariant failed: ")


@pytest.mark.parametrize(
    "instance, flags",
    [(PAIR, []), (CHAIN, ["--thm42"]), (CHAIN, ["--thm44"])],
    ids=["pair", "chain", "chain-thm44"],
)
def test_scaled_pseudoinverse_exits_3(monkeypatch, tmp_path, capsys, instance, flags):
    # For A != 0, X = 2 A+ gives X A X = 4 A+ != X: not normalized.  On the
    # chain the per-degree inverses still compose to zero, but
    # QuotientChain.__post_init__ checks each of them where it is taken and
    # refuses them before any theorem reads them, so theorem 4.4 alone fails
    # too.
    pseudoinverse = RatMatrix.pseudoinverse

    def doubled(self):
        good = pseudoinverse(self)
        return good + good

    monkeypatch.setattr(RatMatrix, "pseudoinverse", doubled)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main(["verify", str(path), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant failed: ")
    assert "not normalized" in captured.err


@pytest.mark.parametrize("instance, flags", [(PAIR, []), (CHAIN, ["--thm42"])], ids=["pair", "chain"])
def test_zero_pseudoinverse_exits_3(zero_pseudoinverse, tmp_path, capsys, instance, flags):
    # On the chain the per-degree inverses are zero and compose to zero, but
    # QuotientChain.__post_init__ checks each of them where it is taken and
    # refuses them: a zero X fails A X A = A for A != 0.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main(["verify", str(path), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant failed: ")
    assert "not a generalized inverse" in captured.err


@pytest.mark.parametrize(
    "instance, target, inverse, flags",
    [
        (PAIR, [[1, 0], [0, 0]], [[1, 1], [0, 0]], []),
        (CHAIN, [[1], [0]], [[1, 1]], ["--thm42"]),
        (CHAIN, [[1], [0]], [[1, 1]], ["--thm44"]),
    ],
    ids=["pair", "chain", "chain-thm44"],
)
def test_inverses_that_do_not_compose_to_zero_exit_3(
    monkeypatch, tmp_path, capsys, instance, target, inverse, flags
):
    # One inverse is replaced by another normalized generalized inverse of
    # its map, which passes X A X = X and A X A = A but not the products:
    # on the pair S~' T~' != 0, and on the chain d~'_2 d~'_1 != 0.
    pseudoinverse, target = RatMatrix.pseudoinverse, mat(target)

    def other_inverse(self):
        return mat(inverse) if self == target else pseudoinverse(self)

    monkeypatch.setattr(RatMatrix, "pseudoinverse", other_inverse)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main(["verify", str(path), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant failed: ")
    assert "do not compose to zero" in captured.err


def test_wrong_per_degree_inverses_exit_3(monkeypatch, tmp_path, capsys):
    # Only the quotient chain's own inverses are doubled; the extended ones,
    # which theorem 4.2 lifts and folds on the chain route, are left alone.
    # dataclasses.replace runs QuotientChain.__post_init__ again, which
    # refuses the doubled inverses before the folded pair can read them.
    quotient_chain = chains.quotient_chain

    def doubled_inverses(c):
        qc = quotient_chain(c)
        return dataclasses.replace(qc, inverses_tilde=tuple(m + m for m in qc.inverses_tilde))

    monkeypatch.setattr(chains, "quotient_chain", doubled_inverses)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    assert main(["verify", str(path), "--thm42"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant failed: ")
    assert "not normalized" in captured.err


def test_induced_pair(monkeypatch):
    # an "induced map" that ignores its quotients leaves S~ T~ = S T != 0
    monkeypatch.setattr(pairs, "induced_map", lambda a, q_dom, q_cod: a)
    pair = pairs.PairInstance(1, 1, mat([[1]]), mat([[1]]))
    with pytest.raises(InvariantError, match="complex"):
        pairs.induced_pair(pair)


def test_induced_chain_maps(monkeypatch):
    monkeypatch.setattr(chains, "induced_map", lambda a, q_dom, q_cod: a)
    chain = chains.ChainInstance((1, 1, 1), (mat([[1]]), mat([[1]])))
    with pytest.raises(InvariantError, match="induced maps"):
        quotient_chain(chain)


# S swaps the last two coordinates and T keeps the first, so R(TS), R(ST),
# and in the chain R(d_1 d_2) and R(d_2 d_3), are all span(e1), whose
# orthogonal complement span(e2, e3) has two vectors to drop one of.
SWAP = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
FIRST = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize(
    "instance, flags",
    [
        ({"dim_x": 3, "dim_y": 3, "s": SWAP, "t": FIRST}, []),
        ({"dims": [3, 3, 3, 3], "maps": [SWAP, FIRST, FIRST]}, ["--thm42"]),
    ],
    ids=["induced_pair", "quotient_chain"],
)
def test_internal_precondition_failure_exits_3(monkeypatch, tmp_path, capsys, instance, flags):
    # With a kernel basis that drops a vector, the quotients the package builds
    # itself no longer fit the maps: a bug in the package, not bad input.
    kernel_basis = subspaces.kernel_basis

    def dropping(a):
        k = kernel_basis(a)
        if not k.dim:
            return k
        return Subspace.spanned_by(RatMatrix(k.dim - 1, k.ambient_dim, k.basis.entries[:-1]))

    monkeypatch.setattr(subspaces, "kernel_basis", dropping)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main(["verify", str(path), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant failed: ")
    assert "killed_dom" in captured.err


NULL_ROW = "a null row of the rref is not in the null space"
GRAM = "the Gram matrix of a full-rank factor is singular"


@pytest.mark.parametrize(
    "command, instance, message",
    [
        ("pair-report", {"dim_x": 2, "dim_y": 1, "s": [[1, 0]], "t": [[0], [1]]}, NULL_ROW),
        ("pair-report", {"dim_x": 2, "dim_y": 2, "s": [[1, 0], [0, 1]], "t": [[0, 0]] * 2}, NULL_ROW),
        ("chain-report", {"dims": [1, 2], "maps": [[[1, 1]]]}, NULL_ROW),
        ("chain-report", {"dims": [2, 3], "maps": [[[1, 0, 0], [0, 1, 0]]]}, NULL_ROW),
        ("pinv", [[1, 2], [3, 4]], GRAM),
    ],
    ids=["pair-rank-0", "pair-null-row", "chain-rank-0", "chain-null-row", "pinv"],
)
def test_report_with_a_rank_too_small_exits_3(
    monkeypatch, tmp_path, capsys, command, instance, message
):
    # A row reduction that drops its last pivot gives a rank one too small.
    # Counted from ranks, the printed index is dim_x - dim_y (or the Euler
    # characteristic) even so; the defect numbers' own checks stop the
    # report: A then has a null row that it does not annihilate.  A one-row A
    # has rank 0, so every unit vector is a null row.  pinv reads the
    # invertible [[1, 2], [3, 4]] as rank 1, and the Gram solve of its
    # factor R, the identity read as rank 1, finds its Gram matrix singular:
    # a fault of the package, not a bad matrix.
    rref_rows = matrices.rref_rows

    def lose_last_pivot(rows, ncols):
        reduced, pivots = rref_rows(rows, ncols)
        return reduced, pivots[:-1]

    monkeypatch.setattr(matrices, "rref_rows", lose_last_pivot)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invariant failed: {message}"]


@pytest.mark.parametrize(
    "command, instance",
    [
        ("pair-report", {"dim_x": 2, "dim_y": 1, "s": [[1, 0]], "t": [[0], [1]]}),
        ("chain-report", {"dims": [2, 3], "maps": [[[1, 0, 0], [0, 1, 0]]]}),
        ("pinv", [[1, 2], [3, 4]]),
        ("pinv", [[1, 2], [2, 4]]),
    ],
    ids=["pair", "chain", "pinv", "pinv-rank-1"],
)
def test_report_with_a_wrong_product_exits_3(monkeypatch, tmp_path, capsys, command, instance):
    # The fault bench/test_bench.py injects: one entry of every nonempty
    # product off by one.  The defects form their products through the
    # binding on matrices that it and the tracer replace, so the null-row
    # check sees the fault.  pinv checks X A X = X and A X A = A before it
    # prints, so the wrong inverse is never printed.
    mat_mul = matrices.mat_mul

    def off_by_one(a, b, m, k, n):
        out = mat_mul(a, b, m, k, n)
        if m and n:
            out[0][0] += 1
        return out

    monkeypatch.setattr(matrices, "mat_mul", off_by_one)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("invariant failed: ")


def test_no_assert_in_the_package():
    # python -O strips assert statements, so no internal check may be one.
    package = Path(fredpairs.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_generator_budgets(monkeypatch):
    # With a kernel basis that spans everything, the complex-only
    # constructions no longer give maps that compose to zero.
    def everything(a):
        return fredpairs.Subspace.full(a.cols)

    monkeypatch.setattr(generators, "kernel_basis", everything)
    cfg = GenConfig(seed=0, max_dim=4, rank_budget=0, complex_only=True)
    with pytest.raises(InvariantError):
        for seed in range(20):
            seeded = dataclasses.replace(cfg, seed=seed)
            random_pair(seeded, seeded.rng())
    with pytest.raises(InvariantError):
        for seed in range(20):
            seeded = dataclasses.replace(cfg, seed=seed)
            random_chain(seeded, 3, seeded.rng())


def test_checks_survive_optimized_python(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    code = (
        "import sys\n"
        "from fredpairs import InvariantError, PairInstance, RatMatrix, build_extensions\n"
        "from fredpairs.cli import main\n"
        "print(__debug__)\n"
        "good = RatMatrix.pseudoinverse\n"
        "RatMatrix.pseudoinverse = lambda self: RatMatrix.zero(self.cols, self.rows)\n"
        "try:\n"
        f"    build_extensions(PairInstance.from_json_obj({PAIR!r}))\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
        "def wrong(self):\n"
        "    g = good(self)\n"
        "    unit = [[int(i == j == 0) for j in range(g.cols)] for i in range(g.rows)]\n"
        "    return g + RatMatrix(g.rows, g.cols, unit)\n"
        "RatMatrix.pseudoinverse = wrong\n"
        "sys.stdout.flush()\n"
        f"sys.exit(main(['verify', {str(path)!r}, '--thm42']))\n"
    )
    src = str(Path(fredpairs.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    penrose = "default s_tilde_prime is not a generalized inverse"
    assert (done.returncode, done.stdout) == (3, f"False\n{penrose}\n"), done.stderr
    assert done.stderr.startswith("invariant failed: ")
