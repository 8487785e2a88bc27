from fractions import Fraction
import itertools
import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_kernels as reference
from fredpairs import (
    DimensionError,
    InputError,
    InvariantError,
    RatMatrix,
    Subspace,
    block,
    direct_sum,
    hstack,
    vstack,
)
from fredpairs import matrices
from fredpairs._kernels import mat_mul, rref_rows
from fredpairs.generators import GenConfig, SplitMix64, random_matrix
from fredpairs.matrices import _gram_solve, _reduced

from conftest import mat


class TestRref:
    def test_zero_matrix_is_fixed(self):
        z = RatMatrix.zero(2, 2)
        result = z.rref()
        # no nonzero row: the rref has none, and is not the matrix itself
        assert result.reduced == RatMatrix.zero(0, 2)
        assert result.reduced is not z
        assert result.pivot_columns == ()
        assert result.rank == 0

    def test_rank_one(self):
        result = mat([[2, 4], [1, 2]]).rref()
        assert result.reduced == mat([[1, 2]])
        assert result.pivot_columns == (0,)
        assert result.rank == 1

    def test_identity_is_fixed(self):
        eye = RatMatrix.identity(3)
        result = eye.rref()
        assert result.reduced == eye
        assert result.pivot_columns == (0, 1, 2)

    def test_idempotent(self):
        a = mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        red = a.rref().reduced
        assert red.rref().reduced == red

    def test_empty_shapes(self):
        assert RatMatrix.zero(0, 3).rref().rank == 0
        assert RatMatrix.zero(3, 0).rref().rank == 0


class TestAlgebra:
    def test_multiply_identity(self):
        a = mat([[1, 2], [3, 4]])
        assert RatMatrix.identity(2) @ a == a

    def test_transpose(self):
        assert mat([[1, 2]]).transpose() == mat([[1], [2]])
        assert RatMatrix.zero(0, 3).transpose().shape == (3, 0)

    def test_direct_sum(self):
        assert direct_sum(mat([[1]]), mat([[2]])) == mat([[1, 0], [0, 2]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            mat([[1]]) + mat([[1, 2]])
        with pytest.raises(DimensionError):
            mat([[1, 2]]) @ mat([[1, 2]])

    def test_stacking(self):
        a = mat([[1, 2]])
        assert hstack(a, a) == mat([[1, 2, 1, 2]])
        assert vstack(a, a) == mat([[1, 2], [1, 2]])

    def test_exact_fractions(self):
        a = mat([["1/3", "1/6"]])
        assert a[0, 0] + a[0, 1] == Fraction(1, 2)

    # With no rows, no entry checks the column count, so the shape alone must.
    def test_constructor_refuses_a_negative_column_count(self):
        with pytest.raises(DimensionError):
            RatMatrix(0, -3, [])

    def test_from_rows_refuses_a_negative_column_count(self):
        with pytest.raises(DimensionError):
            RatMatrix.from_rows([], cols=-2)

    def test_constructor_refuses_a_bool_column_count(self):
        with pytest.raises(DimensionError):
            RatMatrix(0, True, [])

    # These doors read no grid, so only the shape test in RatMatrix._raw,
    # which every matrix passes through, can refuse their shapes.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RatMatrix.zero(0, -3),
            lambda: RatMatrix.zero(True, 2),
            lambda: RatMatrix.identity(-1),
            lambda: Subspace.zero(-2),
            lambda: Subspace.full(-1),
            lambda: RatMatrix.from_json_obj([[1]], rows=True),
        ],
        ids=["zero-negative", "zero-bool", "identity", "subspace-zero", "subspace-full", "json-hint"],
    )
    def test_every_door_refuses_a_bad_shape(self, build):
        with pytest.raises(DimensionError):
            build()


def penrose_identities_hold(a, b):
    return (
        a @ b @ a == a
        and b @ a @ b == b
        and (a @ b).transpose() == a @ b
        and (b @ a).transpose() == b @ a
    )


class TestPseudoinverse:
    def test_invertible_1x1(self):
        assert mat([[2]]).pseudoinverse() == mat([["1/2"]])

    def test_row_vector(self):
        assert mat([[1, 1]]).pseudoinverse() == mat([["1/2"], ["1/2"]])

    def test_zero(self):
        assert RatMatrix.zero(2, 3).pseudoinverse() == RatMatrix.zero(3, 2)

    def test_penrose_identities_random(self):
        cfg = GenConfig(seed=7, max_dim=6)
        rng = cfg.rng()
        for _ in range(25):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            rank = rng.randint(0, min(rows, cols)) if min(rows, cols) else 0
            a = random_matrix(cfg, rows, cols, rank, rng)
            b = a.pseudoinverse()
            assert penrose_identities_hold(a, b)
            assert b.pseudoinverse() == a

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        )
    )
    def test_penrose_identities_hypothesis(self, rows):
        a = mat(rows)
        assert penrose_identities_hold(a, a.pseudoinverse())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
            min_size=2,
            max_size=4,
        )
    )
    def test_rank_nullity_hypothesis(self, rows):
        from fredpairs import kernel_basis, image_basis

        a = mat(rows)
        assert kernel_basis(a).dim + a.rank == a.cols
        assert image_basis(a).dim == a.rank


class TestConstructedRank:
    def test_requested_rank_is_exact(self):
        cfg = GenConfig(seed=3, max_dim=6)
        rng = cfg.rng()
        for rank in range(5):
            assert random_matrix(cfg, 5, 6, rank, rng).rank == rank


class TestJson:
    def test_roundtrip(self):
        a = mat([[1, "2/3"], ["-3/7", 0]])
        assert RatMatrix.from_json_obj(a.to_json_obj()) == a

    def test_integers_stay_integers(self):
        assert mat([[2, "4/2"]]).to_json_obj() == [[2, 2]]

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError):
            RatMatrix.from_json_obj([["1/0"]])

    def test_canonicalizes_on_read(self):
        a = RatMatrix.from_json_obj([["2/4"]])
        assert a[0, 0] == Fraction(1, 2)

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            RatMatrix.from_json_obj([[1.5]])

    def test_rejects_ragged(self):
        with pytest.raises(InputError):
            RatMatrix.from_json_obj([[1, 2], [3]])


def test_splitmix_reference_values():
    # first outputs for seed 1234567, per the public splitmix64 test vectors
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


def test_refuses_attribute_assignment():
    # the package fills a matrix and its rref cache through the slot setters;
    # every assignment from outside is refused
    m = mat([[1, 2], ["1/2", 1]])
    for name in ("rows", "cols", "num", "den", "_rref", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    assert m.rref() is m.rref() and hash(m) == hash(mat([["2/2", "4/2"], ["1/2", "2/2"]]))


# -- representation: integer rows over one canonical denominator --------

scalars = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-(2**120), 2**120), st.integers(1, 2**100)),
)


def grid(rows, cols):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def rat_matrices(draw, rows=None, cols=None, max_dim=4):
    rows = draw(st.integers(0, max_dim)) if rows is None else rows
    cols = draw(st.integers(0, max_dim)) if cols is None else cols
    return RatMatrix(rows, cols, draw(grid(rows, cols)))


@st.composite
def same_shape(draw, count=2):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return [draw(rat_matrices(rows, cols)) for _ in range(count)]


def canonical(m):
    """den > 0, gcd(den, every entry) == 1, rows are int lists of the right shape."""
    assert type(m.num) is list and len(m.num) == m.rows
    assert all(type(row) is list and len(row) == m.cols for row in m.num)
    assert all(type(x) is int for row in m.num for x in row)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *[x for row in m.num for x in row]) == 1
    return True


def grid_of(m):
    return [list(row) for row in m.entries]


def plain_inverse(entries):
    """Gauss-Jordan on [A | I] with the reference Fraction loops."""
    n = len(entries)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(entries)]
    rows, pivots = reference.rref_rows(aug, 2 * n)
    assert pivots == list(range(n))
    return [row[n:] for row in rows]


# One or more matrices for each branch of RatMatrix.pseudoinverse.
PINV_BRANCHES = {
    "zero": [RatMatrix.zero(r, c) for r, c in ((2, 3), (0, 3), (3, 0), (0, 0))],
    "full_column_rank": [mat([[1, 0], [1, 1], [0, 1]]), mat([["1/2"], [3], ["-2/7"]])],
    "full_row_rank": [mat([[1, 2, 0], [0, 1, 1]]), mat([[0, "5/3", 0, 1]])],
    "square_invertible": [mat([[2, 1], [1, 1]]), mat([[0, 1, 0], [0, 0, "1/2"], [3, 0, 0]])],
    "rank_deficient": [
        mat([[1, 2], [2, 4]]),
        mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        mat([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]]),
    ],
}


# How many times RatMatrix.pseudoinverse calls matrices._gram_solve on each branch.
PINV_SOLVES = {
    "zero": 0,
    "full_column_rank": 1,
    "full_row_rank": 1,
    "square_invertible": 1,
    "rank_deficient": 2,
}


def pinv_branch(a):
    rank = a.rank
    if not rank:
        return "zero"
    if rank == a.rows == a.cols:
        return "square_invertible"
    if rank == a.cols:
        return "full_column_rank"
    if rank == a.rows:
        return "full_row_rank"
    return "rank_deficient"


class TestPseudoinverseBranches:
    """Every branch gives what the general two-solve formula gives."""

    CASES = [(branch, a) for branch, cases in PINV_BRANCHES.items() for a in cases]

    @pytest.mark.parametrize(
        "branch, a", CASES, ids=[f"{branch}-{a.rows}x{a.cols}" for branch, a in CASES]
    )
    def test_explicit_cases(self, monkeypatch, branch, a):
        assert pinv_branch(a) == branch
        expected = reference.pseudoinverse_two_solves(a)
        # the shortcuts solve once, or not at all for zero; only a deficient
        # rank takes the two Gram solves of the general formula
        solves = []

        def counted(m):
            solves.append(m)
            return _gram_solve(m)

        monkeypatch.setattr(matrices, "_gram_solve", counted)
        got = a.pseudoinverse()
        assert len(solves) == PINV_SOLVES[branch]
        assert canonical(got)
        assert got == expected
        assert penrose_identities_hold(a, got)

    @settings(max_examples=150, deadline=None)
    @given(rat_matrices())
    def test_matches_two_solves(self, a):
        got = a.pseudoinverse()
        assert canonical(got)
        assert got == reference.pseudoinverse_two_solves(a)


class TestRepresentation:
    @settings(max_examples=80, deadline=None)
    @given(same_shape())
    def test_entrywise_operations(self, pair):
        a, b = pair
        for result, expected in [
            (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)]),
            (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)]),
            (a.transpose(), [list(c) for c in zip(*a.entries)] if a.rows else [[]] * a.cols),
        ]:
            assert canonical(result)
            assert grid_of(result) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_product(self, data):
        m, k, n = (data.draw(st.integers(0, 4)) for _ in range(3))
        a, b = data.draw(rat_matrices(m, k)), data.draw(rat_matrices(k, n))
        product = a @ b
        assert canonical(product)
        assert grid_of(product) == reference.mat_mul(grid_of(a), grid_of(b), m, k, n)

    def test_zero_operand_product_matches_the_kernel(self):
        # The zero short-cut must give what mat_mul and the gcd pass give.
        def halves(rows, cols):
            return RatMatrix(rows, cols, [["1/2"] * cols] * rows)

        for m, k, n in itertools.product(range(3), repeat=3):
            for a, b in [
                (RatMatrix.zero(m, k), halves(k, n)),
                (halves(m, k), RatMatrix.zero(k, n)),
                (RatMatrix.zero(m, k), RatMatrix.zero(k, n)),
            ]:
                result = a @ b
                kernel = RatMatrix._raw(
                    m, n, *_reduced(mat_mul(a.num, b.num, m, k, n), a.den * b.den)
                )
                assert canonical(result)
                assert (result.shape, result.num, result.den) == (
                    kernel.shape,
                    kernel.num,
                    kernel.den,
                )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stacking(self, data):
        rows, c1, c2 = (data.draw(st.integers(0, 3)) for _ in range(3))
        r2 = data.draw(st.integers(0, 3))
        a, b = data.draw(rat_matrices(rows, c1)), data.draw(rat_matrices(rows, c2))
        c, d = data.draw(rat_matrices(r2, c1)), data.draw(rat_matrices(r2, c2))
        h, v, blk = hstack(a, b), vstack(a, c), block([[a, b], [c, d]])
        for result in (h, v, blk):
            assert canonical(result)
        assert grid_of(h) == [x + y for x, y in zip(grid_of(a), grid_of(b))]
        assert grid_of(v) == grid_of(a) + grid_of(c)
        assert grid_of(blk) == [x + y for x, y in zip(grid_of(v), grid_of(vstack(b, d)))]

    @settings(max_examples=80, deadline=None)
    @given(rat_matrices())
    def test_rref_and_pseudoinverse(self, a):
        result = a.rref()
        rows, pivots = reference.rref_rows(grid_of(a), a.cols)
        assert canonical(result.reduced)
        assert grid_of(result.reduced) == rows[: result.rank]
        assert list(result.pivot_columns) == pivots
        # the reference keeps the zero rows past the rank, which the rref drops
        assert len(rows) == a.rows and not any(any(row) for row in rows[result.rank :])
        # the four Penrose identities, in plain Fractions, pin down the pseudoinverse
        g = a.pseudoinverse()
        assert canonical(g)
        x, y = grid_of(a), grid_of(g)
        m, n = a.shape

        def mul(p, q, rows, inner, cols):
            return reference.mat_mul(p, q, rows, inner, cols)

        xy, yx = mul(x, y, m, n, m), mul(y, x, n, m, n)
        assert mul(xy, x, m, m, n) == x and mul(yx, y, n, n, m) == y
        assert xy == [list(c) for c in zip(*xy)] and yx == [list(c) for c in zip(*yx)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: rat_matrices(n, n)))
    def test_inverse(self, a):
        if a.rank < a.rows:
            with pytest.raises(DimensionError):
                a.inverse()
            return
        inv = a.inverse()
        assert canonical(inv)
        assert grid_of(inv) == plain_inverse(grid_of(a))

    def test_singular_matrices_are_refused(self):
        # refused by rank, as bad input, before any solve
        for rows in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 1]]):
            with pytest.raises(DimensionError, match="matrix is singular"):
                mat(rows).inverse()
        assert RatMatrix.zero(0, 0).inverse() == RatMatrix.zero(0, 0)

    @settings(max_examples=80, deadline=None)
    @given(rat_matrices())
    def test_gram_solve(self, m):
        # a Gram matrix is singular exactly when M lacks full row rank, which
        # every caller has ruled out: then the solve is an internal failure
        if m.rank < m.rows:
            with pytest.raises(InvariantError):
                _gram_solve(m)
            with pytest.raises(ValueError):
                reference.gram_solve(m)
            return
        x = _gram_solve(m)
        assert canonical(x)
        assert (m @ m.transpose()) @ x == m
        assert x == reference.gram_solve(m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5))
    def test_zero_rref_matches_the_kernel(self, rows, cols):
        z = RatMatrix.zero(rows, cols)
        kernel_rows, kernel_pivots = rref_rows(z.num, cols)
        result = z.rref()
        assert kernel_rows == []
        assert result.reduced == RatMatrix._raw(0, cols, kernel_rows, 1)
        assert result.reduced is not z
        assert canonical(result.reduced)
        assert list(result.pivot_columns) == kernel_pivots == []
        assert result.rank == 0

    @settings(max_examples=60, deadline=None)
    @given(rat_matrices())
    def test_json_round_trip(self, a):
        back = RatMatrix.from_json_obj(a.to_json_obj(), rows=a.rows, cols=a.cols)
        assert canonical(back) and back == a and grid_of(back) == grid_of(a)

    @settings(max_examples=150, deadline=None)
    @given(same_shape())
    def test_equal_exactly_when_entries_equal(self, pair):
        a, b = pair
        assert (a == b) == (a.entries == b.entries)
        assert a == RatMatrix(a.rows, a.cols, a.entries)
        assert hash(a) == hash(RatMatrix(a.rows, a.cols, a.entries))

    def test_equal_matrices_hash_equal_when_small(self):
        values = [0, 1, -1, "1/2", "2/4", "-3/6", "6/3", 2]
        cells = [(x, y) for x in values for y in values]
        mats = [RatMatrix(1, 2, [cell]) for cell in cells]
        for a in mats:
            for b in mats:
                assert (a == b) == (a.entries == b.entries)
                if a == b:
                    assert hash(a) == hash(b)

    @settings(max_examples=60, deadline=None)
    @given(rat_matrices())
    def test_double_is_not_equal(self, a):
        double = a + a
        assert canonical(double)
        assert (double == a) == a.is_zero()
        if a.den % 2 == 0:
            # same numerators, half the denominator
            assert double.num == a.num and double.den * 2 == a.den

    def test_same_num_different_den(self):
        a = mat([["1/2", "3/2"]])
        double = a + a
        assert a.num == double.num == [[1, 3]]
        assert (a.den, double.den) == (2, 1)
        assert a != double and double == mat([[1, 3]])


class TestParse:
    WIDE = "1" + "0" * 120

    def test_json_and_constructor_agree(self):
        cells = [3, -7, "4/2", "6/-4", "-0/3", "0", self.WIDE, f"-{self.WIDE}/3", f"2/{self.WIDE}"]
        expected = [
            Fraction(3), Fraction(-7), Fraction(2), Fraction(-3, 2), Fraction(0), Fraction(0),
            Fraction(int(self.WIDE)), Fraction(-int(self.WIDE), 3), Fraction(2, int(self.WIDE)),
        ]
        parsed = RatMatrix.from_json_obj([cells])
        built = RatMatrix(1, len(cells), [cells])
        assert canonical(parsed) and canonical(built)
        assert parsed == built == RatMatrix(1, len(cells), [expected])
        assert list(parsed.entries[0]) == expected
        assert hash(parsed) == hash(built)

    @pytest.mark.parametrize("cell", ["4/2", "6/-4", "-0/3", "12/8"])
    def test_reduced_single_entries(self, cell):
        parsed = RatMatrix.from_json_obj([[cell]])
        assert canonical(parsed)
        assert parsed == RatMatrix(1, 1, [[Fraction(*map(int, cell.split("/")))]])

    # int() alone would read "1_0" as 10, " 2 / 3 " as 2/3, and "\u0663", an
    # Arabic-Indic digit, as 3; only ASCII digits with an optional "-" pass.
    @pytest.mark.parametrize(
        "cell",
        ["1/0", "1/2/3", "x", "", True, 1.5, None, [1], "1_0", " 2 / 3 ", "+3", "\u0663", "1/+2"],
    )
    def test_rejections(self, cell):
        with pytest.raises(InputError):
            RatMatrix.from_json_obj([[cell]])
        # the constructor reads entries by the same rules, a bool included
        with pytest.raises(InputError):
            RatMatrix(1, 1, [[cell]])

    # A str or bytes iterates by character or byte; the JSON reader only
    # takes lists, and the constructor refuses text as a grid or as a row.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RatMatrix(1, 2, ["12"]),
            lambda: RatMatrix.from_rows(["12", "34"]),
            lambda: RatMatrix(2, 1, "12"),
            lambda: RatMatrix(1, 2, [b"12"]),
            lambda: RatMatrix(1, 2, [bytearray(b"12")]),
        ],
        ids=["str-row", "str-rows", "str-grid", "bytes-row", "bytearray-row"],
    )
    def test_text_is_neither_a_grid_nor_a_row(self, build):
        with pytest.raises(InputError):
            build()

    def test_a_one_shot_grid_is_read_once(self):
        grid = iter([[1, "1/2"], (3, Fraction(1, 4))])
        assert RatMatrix(2, 2, grid) == mat([[1, "1/2"], [3, "1/4"]])

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01-/+_ \t\n\x1c٣x", max_size=7))
    def test_grammar(self, text):
        # a string parses exactly when it is -?[0-9]+(/-?[0-9]+)? with a
        # nonzero denominator, in the JSON reader and the constructor alike
        match = re.fullmatch(r"(-?[0-9]+)(?:/(-?[0-9]+))?", text)
        if match and int(match[2] or 1):
            value = Fraction(int(match[1]), int(match[2] or 1))
            parsed = RatMatrix.from_json_obj([[text]])
            assert parsed == RatMatrix(1, 1, [[text]]) == mat([[value]])
        else:
            with pytest.raises(InputError):
                RatMatrix.from_json_obj([[text]])
            with pytest.raises(InputError):
                RatMatrix(1, 1, [[text]])

    # the alphabet of test_grammar; a near miss is a string that int() may
    # still read, one stray character away from the grammar
    CELL = st.one_of(
        st.text(alphabet="01-/+_ \t\n\x1c٣x", max_size=7),
        st.from_regex(r"[-+_ \t\n\x1c٣]?[01]{1,2}[_ ]?(/[-+ ]?[01٣]{1,2})?", fullmatch=True),
        st.integers(-9, 9),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CELL, min_size=1, max_size=3))
    def test_grammar_per_grid(self, cells):
        # the strings of a grid are screened once, joined: a grid passes
        # exactly when every cell does, a bad cell beside good ones included
        values = []
        for cell in cells:
            if type(cell) is int:
                values.append(Fraction(cell))
                continue
            match = re.fullmatch(r"(-?[0-9]+)(?:/(-?[0-9]+))?", cell)
            if not (match and int(match[2] or 1)):
                break
            values.append(Fraction(int(match[1]), int(match[2] or 1)))
        if len(values) == len(cells):
            parsed = RatMatrix.from_json_obj([cells])
            assert parsed == RatMatrix(1, len(cells), [cells]) == mat([values])
        else:
            with pytest.raises(InputError):
                RatMatrix.from_json_obj([cells])
            with pytest.raises(InputError):
                RatMatrix(1, len(cells), [cells])

    @pytest.mark.parametrize(
        "cells, bad",
        [
            ([1, "2/3", "1_0"], "1_0"),
            (["4/2", "5/0"], "5/0"),
            (["1/2", " 3", 4], " 3"),
            (["1/2/3", "-1"], "1/2/3"),
            ([0, "6/-4", None], None),
            (["7", True], True),
        ],
    )
    def test_error_names_the_bad_entry(self, cells, bad):
        with pytest.raises(InputError) as parsed:
            RatMatrix.from_json_obj([cells])
        with pytest.raises(InputError) as built:
            RatMatrix(1, len(cells), [cells])
        assert repr(bad) in str(parsed.value) and repr(bad) in str(built.value)


def fraction_json(m):
    """The JSON encoding built from Fractions: an int where the denominator is 1."""
    return [[int(e) if e.denominator == 1 else f"{e.numerator}/{e.denominator}" for e in row]
            for row in m.entries]


json_scalars = st.one_of(
    scalars,
    st.integers(-(2**130), 2**130).map(Fraction),  # integer-valued, often beside den > 1
    st.sampled_from([Fraction(-4, 2), Fraction(6, 3), Fraction(0), Fraction(-1)]),
)


@st.composite
def json_matrices(draw, max_dim=4):
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    cells = st.lists(json_scalars, min_size=cols, max_size=cols)
    return RatMatrix(rows, cols, draw(st.lists(cells, min_size=rows, max_size=rows)))


@settings(max_examples=200, deadline=None)
@given(json_matrices())
def test_json_encoding_matches_the_fraction_encoding(m):
    assert m.to_json_obj() == fraction_json(m)


def test_json_encoding_of_integers_beside_fractions():
    big = 2**100 + 7
    m = mat([[2, "1/2", 0, -3], [big, -big, "-6/4", "4/2"]])
    assert m.den == 2
    assert m.to_json_obj() == fraction_json(m) == [[2, "1/2", 0, -3], [big, -big, "-3/2", 2]]
