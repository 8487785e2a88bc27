"""Report-level differential oracle: printed numbers against sympy.

Each instance is written as JSON and run through ``pair-report`` or
``chain-report`` and ``verify --all`` in-process.  The numbers those print are
recomputed here with sympy from their definitions only, from the JSON the
instance was written as:

- a, b, c, d and the index of a pair.  Each meet N(A) & R(B) is spanned
  explicitly from the null space of [N | -R], with N and R sympy's bases of
  N(A) and R(B); each defect is a dimension minus the meet's.
- ``dim_range_st`` and ``dim_range_ts``: the ranks of ST and TS.
- ``rank_s_minus_s_one`` of theorem 3.4, with S1 = Q_y S Q_x and Q_x, Q_y the
  orthogonal projectors onto R(TS)^o and R(ST)^o.
- For a chain, each degree's a_p, b_p and d_p from the meet of N(d_p) and
  R(d_{p+1}), the index, remark 2.3's ``sum_b``, and each degree's
  ``rank_bound`` in theorem 4.4, rank d_{p+1} d_{p+2} + rank d_p d_{p+1}.

All of these are independent of bases.  Left out are the numbers that depend
on the canonical basis of each quotient, through the pseudoinverse taken in
its coordinates: theorem 3.6's ``corrector``, ``rank_corrector`` and
``nullity_lap_x_tilde``/``nullity_lap_y_tilde``, and theorem 4.4's
``nullity``, ``corank``, ``nullity_tilde`` and ``rank_perturbation``.

Half the instances come from a plain fuzz stream (seed 61), half from the
seed-71 stream filtered as ``tests/test_mutations.py`` filters its range set,
so that each has a nonzero composition range; both at max_dim 4.
"""

import json

import pytest

sympy = pytest.importorskip("sympy")

from fredpairs.cli import main  # noqa: E402
from fredpairs.generators import GenConfig, random_chain, random_pair  # noqa: E402


def _instances():
    plain = GenConfig(seed=61, max_dim=4)
    rng = plain.rng()
    pairs = [random_pair(plain, rng) for _ in range(5)]
    chains = [random_chain(plain, rng.randint(1, 4), rng) for _ in range(5)]
    ranges = GenConfig(seed=71, max_dim=4, rank_budget=4)
    rng = ranges.rng()
    range_pairs, range_chains = [], []
    while len(range_pairs) < 5:
        pair = random_pair(ranges, rng)
        if pair.range_st.dim or pair.range_ts.dim:
            range_pairs.append(pair)
    while len(range_chains) < 5:
        chain = random_chain(ranges, rng.randint(2, 4), rng)
        if any(r.dim for r in chain.composition_ranges):
            range_chains.append(chain)
    return pairs + range_pairs, chains + range_chains


PAIRS, CHAINS = _instances()


def run_json(capsys, tmp_path, command, obj):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main([*command, str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def matrix(rows, cols, grid):
    return sympy.Matrix(rows, cols, [sympy.Rational(str(x)) for row in grid for x in row])


def meet_dim(a, b) -> int:
    """dim (N(A) & R(B)), spanned as the vectors N x with [N | -R] (x, y) = 0."""
    null, span = a.nullspace(), b.columnspace()
    if not null or not span:
        return 0
    n = sympy.Matrix.hstack(*null)
    solutions = sympy.Matrix.hstack(n, -sympy.Matrix.hstack(*span)).nullspace()
    if not solutions:
        return 0
    return sympy.Matrix.hstack(*[n * z[: n.cols, :] for z in solutions]).rank()


def defects(a, b) -> tuple[int, int]:
    """(dim N(A) - meet, dim R(B) - meet) for A after B."""
    meet = meet_dim(a, b)
    return a.cols - a.rank() - meet, b.rank() - meet


def complement_projector(a):
    """The orthogonal projector onto R(A)^o."""
    n = a.rows
    basis = a.columnspace()
    if not basis:
        return sympy.eye(n)
    c = sympy.Matrix.hstack(*basis)
    return sympy.eye(n) - c * (c.T * c).inv() * c.T


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_pair(capsys, tmp_path, index):
    obj = PAIRS[index].to_json_obj()
    dim_x, dim_y = obj["dim_x"], obj["dim_y"]
    s, t = matrix(dim_y, dim_x, obj["s"]), matrix(dim_x, dim_y, obj["t"])
    a, b = defects(s, t)
    c, d = defects(t, s)
    assert run_json(capsys, tmp_path, ["pair-report"], obj) == {
        "a": a,
        "b": b,
        "c": c,
        "d": d,
        "index": a - b - c + d,
        "dim_range_st": (s * t).rank(),
        "dim_range_ts": (t * s).rank(),
    }

    s_one = complement_projector(s * t) * s * complement_projector(t * s)
    reports = run_json(capsys, tmp_path, ["verify", "--all"], obj)["reports"]
    thm34 = next(r["details"] for r in reports if r["name"] == "theorem_3_4")
    assert thm34["rank_s_minus_s_one"] == (s - s_one).rank()


@pytest.mark.parametrize("index", range(len(CHAINS)))
def test_chain(capsys, tmp_path, index):
    obj = CHAINS[index].to_json_obj()
    dims, n = obj["dims"], len(obj["dims"]) - 1
    # d_0..d_{n+1}, with the zero maps out of X_0 and into X_n at the ends
    down = [sympy.zeros(0, dims[0])]
    down += [matrix(dims[p - 1], dims[p], obj["maps"][p - 1]) for p in range(1, n + 1)]
    down += [sympy.zeros(dims[n], 0)]
    a, b = zip(*(defects(down[p], down[p + 1]) for p in range(n + 1)))
    d = [a_p - b_p for a_p, b_p in zip(a, b)]

    def composition_rank(p):  # rank d_p d_{p+1}, zero beyond the degrees 1..n
        return (down[p] * down[p + 1]).rank() if p + 1 < len(down) else 0

    assert run_json(capsys, tmp_path, ["chain-report"], obj) == {
        "a": list(a),
        "b": list(b),
        "d": d,
        "index": sum(d_p if p % 2 == 0 else -d_p for p, d_p in enumerate(d)),
        "dims": dims,
        "euler_characteristic": sum(x if p % 2 == 0 else -x for p, x in enumerate(dims)),
    }

    reports = run_json(capsys, tmp_path, ["verify", "--all"], obj)["reports"]
    details = {r["name"]: r["details"] for r in reports}
    assert details["remark_2_3"]["sum_b"] == sum(b)
    degrees = details["theorem_4_4"]["degrees"]
    assert [deg["a_p"] for deg in degrees] == list(a)
    assert [deg["rank_bound"] for deg in degrees] == [
        composition_rank(p + 1) + composition_rank(p) for p in range(n + 1)
    ]
