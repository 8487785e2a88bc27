"""Every matrix goes through one door, ``RatMatrix._raw``, and leaves it canonical.

Equality and hashing compare ``(rows, cols, den, num)`` directly, so they are
right only while every matrix is canonical: ``den > 0``, ``gcd(den, every
entry) == 1``, and a grid of exactly rows x cols ints.  The sweep wraps the
door and checks each matrix that whole fuzz runs make, kernels, Gram solves,
folds and generators included; the ``ast`` check keeps the door the only
place that allocates a matrix, so the sweep sees them all.
"""

import ast
import hashlib
import itertools
from math import gcd
from pathlib import Path

import pytest

from fredpairs import RatMatrix, Subspace
from fredpairs.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "fredpairs"


def allocations(tree: ast.Module):
    """(scope, what) for each read of ``_new`` and each ``.__new__`` attribute.

    ``scope`` is the dotted name of the enclosing classes and functions, or
    ``"<module>"`` at the top level.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope != "<module>" else node.name
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            found.append((scope, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "_new" and isinstance(node.ctx, ast.Load):
            found.append((scope, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_the_door_allocates_a_matrix():
    sites = {
        path.name: allocations(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: sorted(found) for name, found in sites.items() if found} == {
        "matrices.py": [("<module>", "object.__new__"), ("RatMatrix._raw", "_new")],
    }


def counting_door(monkeypatch, check=lambda m: None):
    """Wrap ``RatMatrix._raw``; the returned list counts the matrices it makes."""
    raw = RatMatrix.__dict__["_raw"].__func__
    made = [0]

    def door(cls, rows, cols, num, den):
        m = raw(cls, rows, cols, num, den)
        made[0] += 1
        check(m)
        return m

    monkeypatch.setattr(RatMatrix, "_raw", classmethod(door))
    return made


@pytest.mark.parametrize(
    "build",
    [
        lambda: RatMatrix(1, 2, [[1, "1/2"]]),
        lambda: RatMatrix.from_rows([[1, 2], [3, 4]]),
        lambda: RatMatrix.from_json_obj([["2/4", 1]], rows=1, cols=2),
        lambda: RatMatrix.zero(2, 3),
        lambda: RatMatrix.identity(3),
        lambda: Subspace.zero(3).basis,
        lambda: Subspace.full(3).basis,
    ],
    ids=["constructor", "from_rows", "from_json_obj", "zero", "identity", "subspace-zero", "subspace-full"],
)
def test_each_public_door_builds_through_raw_once(monkeypatch, build):
    made = counting_door(monkeypatch)
    assert isinstance(build(), RatMatrix)
    assert made == [1]


def canonical_faults(m: RatMatrix) -> list[str]:
    faults = []
    if type(m.den) is not int or m.den <= 0:
        faults.append(f"den {m.den!r}")
    if len(m.num) != m.rows or any(len(row) != m.cols for row in m.num):
        faults.append(f"grid does not match shape {m.rows}x{m.cols}")
    entries = list(itertools.chain.from_iterable(m.num))
    if any(type(x) is not int for x in entries):
        faults.append("an entry is not an int")
    elif gcd(m.den, *entries) != 1:
        faults.append("common factor left in")
    return faults


@pytest.mark.parametrize(
    "flags, digest",
    [
        (
            ["--seed", "1", "--count", "100"],
            "4cc9e5be0fb31bb76291188d245506768c2362f548f2d467dcdd6ba0dc6bdbab",
        ),
        (
            ["--seed", "3", "--count", "6", "--max-dim", "16"],
            "593539901a670e8226f939bb1808d8bc5e9f3fa32990acd99b304c91d8343513",
        ),
    ],
    ids=["seed1-d6", "seed3-d16"],
)
def test_every_matrix_of_a_fuzz_run_is_canonical(
    tmp_path, capsys, monkeypatch, flags, digest
):
    faults = []

    def check(m):
        if len(faults) < 5:
            faults.extend(f"{m.rows}x{m.cols}: {f}" for f in canonical_faults(m))

    made = counting_door(monkeypatch, check)
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert faults == []
    assert made[0] > 500
