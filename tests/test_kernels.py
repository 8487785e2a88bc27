"""The integer kernels agree with the plain Fraction loops of the reference."""

import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_kernels as reference
from fredpairs._kernels import mat_mul, rref_rows

BIG = 2**200

small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
big = st.builds(Fraction, st.integers(-BIG * 8, BIG * 8), st.integers(1, BIG * 8))
# Mostly zeros, then small values, occasionally entries of 200 bits and more.
entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small, big)


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
    return reference.mat_mul(left, right, rows, rank, cols), cols


@st.composite
def products(draw, max_dim=5):
    m, k, n = (draw(st.integers(0, max_dim)) for _ in range(3))
    return draw(grids(m, k)), draw(grids(k, n)), m, k, n


def all_fractions(rows):
    return all(type(e) is Fraction for row in rows for e in row)


def check_rref(rows, ncols):
    before = copy.deepcopy(rows)
    ids = [id(row) for row in rows]
    out, pivots = rref_rows(rows, ncols)
    assert (out, pivots) == reference.rref_rows(before, ncols)
    assert len(out) == len(rows) and all(len(row) == ncols for row in out)
    assert all_fractions(out)
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
    assert out == reference.mat_mul(*before, m, k, n)
    assert len(out) == m and all(len(row) == n for row in out)
    assert all_fractions(out)
    assert (a, b) == before


def test_empty_shapes():
    assert rref_rows([], 0) == ([], [])
    assert rref_rows([], 3) == ([], [])
    assert rref_rows([[], []], 0) == ([[], []], [])
    assert mat_mul([], [], 0, 0, 0) == []
    assert mat_mul([[], []], [], 2, 0, 3) == [[Fraction(0)] * 3] * 2
    assert mat_mul([[Fraction(1)]], [[]], 1, 1, 0) == [[]]


def test_zero_and_wide_entries():
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    check_rref(zero, 3)
    wide = [[Fraction(BIG + 1, 3), Fraction(-BIG, 7)], [Fraction(1, BIG), Fraction(5)]]
    check_rref(wide, 2)
    assert mat_mul(wide, wide, 2, 2, 2) == reference.mat_mul(wide, wide, 2, 2, 2)


def test_rref_results_are_fractions():
    out, pivots = rref_rows([[Fraction(2), Fraction(4)]], 2)
    assert pivots == [0]
    assert out == [[Fraction(1), Fraction(2)]]
    assert all_fractions(out)
