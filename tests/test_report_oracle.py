"""Report-level differential oracle: printed numbers against sympy.

Each instance is written as JSON and run through ``pair-report`` or
``chain-report`` and ``verify --all`` in-process.  Every value those print is
recomputed here with sympy from the paper's definitions only, from the JSON
the instance was written as, and each whole report is compared, verdicts and
details alike:

- a, b, c, d and the index of a pair.  Each meet N(A) & R(B) is spanned
  explicitly from the null space of [N | -R], with N and R sympy's bases of
  N(A) and R(B); each defect is a dimension minus the meet's.
- ``dim_range_st`` and ``dim_range_ts``: the ranks of ST and TS.
- The canonical quotient of Q^n by a range R: C is the reduced echelon basis
  of R^o (sympy's rref of its null space basis, as rows), the section is C^T
  and the projection (C C^T)^-1 C.  Through them S~, T~, their
  pseudoinverses (sympy's ``pinv``) and the lifts S', T', and so every value
  of theorems 3.4 and 3.6: theorem 3.6's ``corrector`` entry by entry,
  ``rank_corrector`` and ``nullity_lap_x_tilde``/``nullity_lap_y_tilde``.
  ``rank_s_minus_s_one`` is also recomputed with the orthogonal projectors
  onto R(TS)^o and R(ST)^o, which need no basis.
- For a chain, each degree's a_p, b_p and d_p from the meet of N(d_p) and
  R(d_{p+1}), the index, remark 2.3, theorem 4.2, and theorem 4.4 from the
  per-degree quotients by R(d_{p+1} d_{p+2}): each degree's ``nullity``,
  ``corank``, ``nullity_tilde``, ``rank_perturbation`` and ``rank_bound``.
  Theorems 3.4 and 3.6 on the folded pair quotient the fold as a plain pair,
  and theorem 4.2's two routes are compared in sympy: S + T' with T' folded
  from the per-degree extended inverses, against S + T' of that plain pair.

The printed values do not depend on the choice of quotient basis: with a
chain-compatible bundle the corrector is diag(TS, ST), and the quotient
Laplacian nullities are homology dimensions.  So S~, T~ and their inverses
are pinned here only through what they print; ``tests/test_oracle.py``
checks the pseudoinverse itself.

Half the instances come from a plain fuzz stream (seed 61), half from the
seed-71 stream filtered as ``tests/test_mutations.py`` filters its range set,
so that each has a nonzero composition range; both at max_dim 4.  The fuzz
streams draw dim R(ST) != dim R(TS) in about one pair of 900, so the pairs
end with the 12 plain pairs of ``tests/test_mutations.py`` that are built
with those ranks unequal, up to dimension 6.
"""

import json

import pytest

sympy = pytest.importorskip("sympy")

from fredpairs.cli import main  # noqa: E402
from fredpairs.generators import GenConfig, random_chain, random_pair  # noqa: E402
from test_mutations import UNEQUAL_PAIRS  # noqa: E402


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
    return pairs + range_pairs + UNEQUAL_PAIRS, chains + range_chains


PAIRS, CHAINS = _instances()


def run_json(capsys, tmp_path, command, obj):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main([*command, str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def matrix(rows, cols, grid):
    return sympy.Matrix(rows, cols, [sympy.Rational(str(x)) for row in grid for x in row])


def encode(m):
    """The JSON of a matrix: an int for an integer entry, else "p/q"."""
    return [[int(x.p) if x.q == 1 else f"{x.p}/{x.q}" for x in row] for row in m.tolist()]


def rank(m) -> int:
    return m.rank() if m.rows and m.cols else 0


def is_zero(m) -> bool:
    return all(x == 0 for x in m)


def pinv(a):
    return a.pinv() if rank(a) else sympy.zeros(a.cols, a.rows)


def embed(shape, *placed):
    """A zero matrix of ``shape`` with each block of ``placed`` = (row, col,
    block) written in at its offset."""
    out = sympy.zeros(*shape)
    for r0, c0, m in placed:
        for r in range(m.rows):
            for c in range(m.cols):
                out[r0 + r, c0 + c] = m[r, c]
    return out


def direct_sum(*blocks):
    placed, rows, cols = [], 0, 0
    for m in blocks:
        placed.append((rows, cols, m))
        rows, cols = rows + m.rows, cols + m.cols
    return embed((rows, cols), *placed)


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
    return a.cols - rank(a) - meet, rank(b) - meet


def complement_projector(a):
    """The orthogonal projector onto R(A)^o."""
    n = a.rows
    basis = a.columnspace()
    if not basis:
        return sympy.eye(n)
    c = sympy.Matrix.hstack(*basis)
    return sympy.eye(n) - c * (c.T * c).inv() * c.T


def quotient(killing):
    """(section, projection) of Q^n / R(killing), ``killing`` with n rows.

    C is the reduced echelon basis of R(killing)^o = N(killing^T), as rows;
    the section is C^T and the projection (C C^T)^-1 C.
    """
    null = killing.T.nullspace()
    if not null:  # everything is killed
        return sympy.zeros(killing.rows, 0), sympy.zeros(0, killing.rows)
    c = sympy.Matrix.vstack(*[v.T for v in null]).rref()[0]
    return c.T, (c * c.T).inv() * c


def report(name, details, checks):
    return {"name": name, "passed": all(checks.values()), "details": details}


def pair_reports(s, t):
    """The reports of ``verify --all`` on the pair (S, T), and its S + T' and
    T + S', recomputed from the definitions."""
    dim_y, dim_x = s.shape
    a, b = defects(s, t)
    c, d = defects(t, s)
    index = a - b - c + d
    range_st, range_ts = rank(s * t), rank(t * s)
    sec_x, proj_x = quotient(t * s)
    sec_y, proj_y = quotient(s * t)
    s_tilde, t_tilde = proj_y * s * sec_x, proj_x * t * sec_y
    s_tp, t_tp = pinv(s_tilde), pinv(t_tilde)
    s_prime, t_prime = sec_x * s_tp * proj_y, sec_y * t_tp * proj_x
    s_plus, t_plus = s + t_prime, t + s_prime
    s_one = sec_y * s_tilde * proj_x
    rank_bound = range_st + range_ts

    index_s_plus, index_t_plus = dim_x - dim_y, dim_y - dim_x
    tilde_index = proj_x.rows - proj_y.rows
    rank_diff = rank(s - s_one)
    checks34 = {
        "index_eq_s_plus": index == index_s_plus,
        "index_eq_neg_t_plus": index == -index_t_plus,
        "intermediate_identity": index - range_ts + range_st == tilde_index,
        "s_one_same_index": True,  # S1 + T' has the shape of S + T'
        "finite_rank_difference": rank_diff <= rank_bound,
    }
    thm34 = {
        "index": index,
        "index_s_plus_t_prime": index_s_plus,
        "index_t_plus_s_prime": index_t_plus,
        "index_tilde_pair": tilde_index,
        "index_s_one_plus_t_prime": index_s_plus,
        "rank_s_minus_s_one": rank_diff,
        "dim_range_st": range_st,
        "dim_range_ts": range_ts,
        **checks34,
    }

    v = embed((dim_x + dim_y, dim_x + dim_y), (0, dim_x, t_plus), (dim_x, 0, s_plus))
    v2 = v * v
    lap_x, lap_y = t * t_prime + s_prime * s, s * s_prime + t_prime * t
    f = v2 - direct_sum(lap_x, lap_y)
    nullity_x = proj_x.rows - rank(t_tilde * t_tp + s_tp * s_tilde)
    nullity_y = proj_y.rows - rank(s_tilde * s_tp + t_tp * t_tilde)
    chain_compatible = is_zero(s_tp * t_tp) and is_zero(t_tp * s_tp)
    checks36 = {"block_diagonal": v2 == direct_sum(t_plus * s_plus, s_plus * t_plus)}
    if chain_compatible:
        checks36["corrector_rank_bound"] = rank(f) <= rank_bound
        checks36["hodge_nullity_a"] = nullity_x == a
        checks36["hodge_nullity_c"] = nullity_y == c
    thm36 = {
        "rank_corrector": rank(f),
        "rank_bound": rank_bound,
        "nullity_lap_x_tilde": nullity_x,
        "nullity_lap_y_tilde": nullity_y,
        "a": a,
        "c": c,
        "chain_compatible": chain_compatible,
        "corrector": encode(f),
        **checks36,
    }
    reports = [report("theorem_3_4", thm34, checks34), report("theorem_3_6", thm36, checks36)]
    return reports, s_plus, t_plus


def chain_reports(dims, maps):
    """The reports of ``verify --all`` on the chain of ``maps``, recomputed
    from the definitions, and the chain's a_p and b_p."""
    n = len(dims) - 1
    # d_0..d_{n+1}, with the zero maps out of X_0 and into X_n at the ends
    down = [sympy.zeros(0, dims[0]), *maps, sympy.zeros(dims[n], 0)]
    a, b = zip(*(defects(down[p], down[p + 1]) for p in range(n + 1)))
    d = [a_p - b_p for a_p, b_p in zip(a, b)]
    index = sum(d_p if p % 2 == 0 else -d_p for p, d_p in enumerate(d))
    euler = sum(x if p % 2 == 0 else -x for p, x in enumerate(dims))

    # what degree p is quotiented by: R(d_{p+1} d_{p+2}), zero at degree n
    killing = [down[p + 1] * down[p + 2] for p in range(n)] + [sympy.zeros(dims[n], 0)]
    killed = [rank(k) for k in killing]
    sections, projections = zip(*map(quotient, killing))
    q_dims = [proj.rows for proj in projections]
    maps_t = [projections[p - 1] * maps[p - 1] * sections[p] for p in range(1, n + 1)]
    inverses_t = [pinv(m) for m in maps_t]
    extended = [sections[p] * inverses_t[p - 1] * projections[p - 1] for p in range(1, n + 1)]
    up = [sympy.zeros(dims[0], 0), *extended, sympy.zeros(0, dims[n])]
    down_t = [sympy.zeros(0, q_dims[0]), *maps_t, sympy.zeros(q_dims[n], 0)]
    up_t = [sympy.zeros(q_dims[0], 0), *inverses_t, sympy.zeros(0, q_dims[n])]

    s, t = direct_sum(*down[0::2]), direct_sum(*down[1::2])
    folded, s_plus, t_plus = pair_reports(s, t)
    pair = folded[0]["details"]  # theorem 3.4 on the fold gives its index and ranges
    pair_index, range_st, range_ts = pair["index"], pair["dim_range_st"], pair["dim_range_ts"]
    checks23 = {
        "index_matches_pair": index == pair_index,
        "index_matches_euler": index == euler,
        "composition_defects_match": sum(b) == range_st + range_ts,
    }
    remark23 = {
        "chain_index": index,
        "pair_index": pair_index,
        "euler_characteristic": euler,
        "sum_b": sum(b),
        "dim_range_st": range_st,
        "dim_range_ts": range_ts,
        **checks23,
    }

    # theorem 4.2's chain route: S + T' and T + S' with T' and S' the folds of
    # the extended inverses, against the folded pair's own S + T' and T + S'
    e, o = s + direct_sum(*up[1::2]), t + direct_sum(*up[0::2])
    checks42 = {
        "index_even": e.cols - e.rows == index,
        "index_odd": o.cols - o.rows == -index,
        "even_matches_folded": e == s_plus,
        "odd_matches_folded": o == t_plus,
    }
    thm42 = {
        "chain_index": index,
        "index_even_operator": e.cols - e.rows,
        "index_odd_operator": o.cols - o.rows,
        **checks42,
    }

    checks44, degrees = {}, []
    for p in range(n + 1):
        lap = down[p + 1] * up[p + 1] + up[p] * down[p]
        lap_t = down_t[p + 1] * up_t[p + 1] + up_t[p] * down_t[p]
        nullity, nullity_t = dims[p] - rank(lap), q_dims[p] - rank(lap_t)
        rank_pert = rank(lap - sections[p] * lap_t * projections[p])
        rank_bound = killed[p] + (killed[p - 1] if p else 0)
        checks44[f"nullity_matches_a_{p}"] = nullity_t == a[p]
        checks44[f"zero_index_{p}"] = True  # every Laplacian is square
        checks44[f"perturbation_rank_{p}"] = rank_pert <= rank_bound
        degrees.append(
            {
                "degree": p,
                "nullity": nullity,
                "corank": nullity,
                "index": 0,
                "nullity_tilde": nullity_t,
                "a_p": a[p],
                "rank_perturbation": rank_pert,
                "rank_bound": rank_bound,
            }
        )
    thm44 = {"degrees": degrees, **checks44}
    reports = [
        report("remark_2_3", remark23, checks23),
        report("theorem_4_2", thm42, checks42),
        report("theorem_4_4", thm44, checks44),
        *folded,
    ]
    return reports, a, b


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

    reports = run_json(capsys, tmp_path, ["verify", "--all"], obj)["reports"]
    assert reports == pair_reports(s, t)[0]
    s_one = complement_projector(s * t) * s * complement_projector(t * s)
    assert reports[0]["details"]["rank_s_minus_s_one"] == (s - s_one).rank()


@pytest.mark.parametrize("index", range(len(CHAINS)))
def test_chain(capsys, tmp_path, index):
    obj = CHAINS[index].to_json_obj()
    dims, n = obj["dims"], len(obj["dims"]) - 1
    maps = [matrix(dims[p - 1], dims[p], obj["maps"][p - 1]) for p in range(1, n + 1)]
    expected, a, b = chain_reports(dims, maps)
    d = [a_p - b_p for a_p, b_p in zip(a, b)]
    assert run_json(capsys, tmp_path, ["chain-report"], obj) == {
        "a": list(a),
        "b": list(b),
        "d": d,
        "index": sum(d_p if p % 2 == 0 else -d_p for p, d_p in enumerate(d)),
        "dims": dims,
        "euler_characteristic": sum(x if p % 2 == 0 else -x for p, x in enumerate(dims)),
    }
    assert run_json(capsys, tmp_path, ["verify", "--all"], obj)["reports"] == expected
