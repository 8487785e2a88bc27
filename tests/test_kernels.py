"""The integer kernels agree with the plain Fraction loops of the reference.

The kernels take and return integer rows.  ``rref_rows`` returns only the
nonzero rows of the reduced form, each scaled to primitive integers with a
positive pivot, so its rows are divided by their pivots before they are
compared with the reference, which runs on the same integers as
``Fraction``s and keeps the zero rows past the rank.
"""

import copy
import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_kernels as reference
from fredpairs._kernels import RREF_BUDGET_BITS, mat_mul, rref_rows

BIG = 2**200

small = st.integers(-9, 9)
big = st.integers(-BIG * 8, BIG * 8)
# Mostly zeros, then small values, occasionally entries of 200 bits and more.
entries = st.one_of(st.just(0), st.just(0), small, big)


def grids(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def matrices(draw, max_dim=6):
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    return draw(grids(rows, cols)), cols


@st.composite
def low_rank_matrices(draw, max_dim=6):
    """A product of an m x r and an r x n matrix with r below both m and n."""
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    rank = draw(st.integers(0, min(rows, cols) - 1))
    left, right = draw(grids(rows, rank)), draw(grids(rank, cols))
    product = reference.mat_mul(left, right, rows, rank, cols)
    return [[int(x) for x in row] for row in product], cols


@st.composite
def products(draw, max_dim=5):
    m, k, n = (draw(st.integers(0, max_dim)) for _ in range(3))
    return draw(grids(m, k)), draw(grids(k, n)), m, k, n


def as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def all_ints(rows):
    return all(type(x) is int for row in rows for x in row)


def check_primitive(out, pivots):
    """One row per pivot, each primitive with a positive pivot entry."""
    assert len(out) == len(pivots)
    for row, p in zip(out, pivots):
        assert gcd(*row) == 1 and row[p] > 0


def check_rref(rows, ncols):
    before = copy.deepcopy(rows)
    ids = [id(row) for row in rows]
    out, pivots = rref_rows(rows, ncols)
    expected, expected_pivots = reference.rref_rows(as_fractions(before), ncols)
    assert pivots == expected_pivots
    rank = len(pivots)
    assert len(out) == rank and all(len(row) == ncols for row in out)
    divided = [[Fraction(x, row[p]) for x in row] for row, p in zip(out, pivots)]
    assert divided == expected[:rank]
    # the reference keeps the zero rows past the rank, which the kernel drops
    assert len(expected) == len(rows) and not any(any(row) for row in expected[rank:])
    assert all_ints(out)
    check_primitive(out, pivots)
    assert rows == before and [id(row) for row in rows] == ids


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    check_rref(*case)


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices())
def test_rref_matches_reference_rank_deficient(case):
    rows, ncols = case
    check_rref(rows, ncols)
    assert len(rref_rows(rows, ncols)[1]) < min(len(rows), ncols)


@settings(max_examples=200, deadline=None)
@given(products())
def test_mat_mul_matches_reference(case):
    a, b, m, k, n = case
    before = copy.deepcopy((a, b))
    out = mat_mul(a, b, m, k, n)
    assert out == reference.mat_mul(as_fractions(a), as_fractions(b), m, k, n)
    assert len(out) == m and all(len(row) == n for row in out)
    assert all_ints(out)
    assert len({id(row) for row in out}) == m  # fresh rows, never shared
    assert (a, b) == before


def test_empty_shapes():
    assert rref_rows([], 0) == ([], [])
    assert rref_rows([], 3) == ([], [])
    assert rref_rows([[], []], 0) == ([], [])
    assert mat_mul([], [], 0, 0, 0) == []
    assert mat_mul([[], []], [], 2, 0, 3) == [[0] * 3] * 2
    assert mat_mul([[1]], [[]], 1, 1, 0) == [[]]


def test_zero_and_wide_entries():
    zero = [[0] * 3 for _ in range(2)]
    check_rref(zero, 3)
    wide = [[BIG + 1, -BIG * 3], [7, 5 * BIG * BIG]]
    check_rref(wide, 2)
    expected = reference.mat_mul(as_fractions(wide), as_fractions(wide), 2, 2, 2)
    assert mat_mul(wide, wide, 2, 2, 2) == expected


def test_rref_results_are_primitive_integer_rows():
    out, pivots = rref_rows([[-2, -4, 6], [3, 6, 1]], 3)
    assert pivots == [0, 2]
    assert out == [[1, 2, 0], [0, 0, 1]]
    assert all_ints(out)
    out, pivots = rref_rows([[0, -6, 4]], 3)
    assert (out, pivots) == ([[0, 3, -2]], [1])


def random_grid(seed, rows, cols, bits):
    rng = random.Random(seed)
    return [[rng.randrange(-(2**bits), 2**bits) for _ in range(cols)] for _ in range(rows)]


# ``rref_rows`` divides an updated row by its gcd only once the bit lengths of
# the pivots chosen so far add up to more than RREF_BUDGET_BITS.  The three
# cases below spend that budget at the first pivot, part of the way through,
# and never; each must give the reference's rref.


def test_rref_budget_spent_at_the_first_pivot():
    assert RREF_BUDGET_BITS == 512  # the bit counts below are against it
    # Entries of about 600 bits.  The first row holds a 1, so it is already
    # primitive and its pivot keeps 601 bits: the first pivot alone is over
    # the budget, and every updated row is normalised.
    grid = random_grid(1, 5, 6, 600)
    grid[0][0], grid[0][5] = 2**600 + 1, 1
    check_rref(grid, 6)
    check_rref(grid[:3] + [[2 * x for x in grid[0]]], 6)


def test_rref_budget_runs_out_midway():
    # A dense full-rank 24 x 24 grid of entries of about 40 bits.  Its
    # primitive pivots have 40, 79, 118, 151 and 193 bits, which add up to
    # 388 bits after four pivots and 581 after five, so the first four
    # pivots update rows without normalising them and the other twenty do.
    check_rref(random_grid(24, 24, 24, 40), 24)


def test_rref_budget_never_spent():
    # Rank 6 from entries below 10: the pivots add up to 96 bits, so no
    # updated row is normalised before the final pass.
    rng = random.Random(6)
    left = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(8)]
    right = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(6)]
    product = reference.mat_mul(left, right, 8, 6, 7)
    rows = [[int(x) for x in row] for row in product]
    check_rref(rows, 7)
    assert len(rref_rows(rows, 7)[1]) == 6
