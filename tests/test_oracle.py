"""Differential oracle: the exact algebra against sympy's, on small matrices.

sympy computes the Moore-Penrose inverse and the reduced row-echelon form by
its own exact rational code, so agreement on every entry checks the rewritten
pseudoinverse and the integer row reduction independently of this package.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from fredpairs import RatMatrix, kernel_basis  # noqa: E402

entries = st.builds(
    Fraction, st.one_of(st.just(0), st.integers(-9, 9)), st.integers(1, 9)
)


@st.composite
def matrices(draw):
    """Up to 5 x 5, entries p/q with |p|, q <= 9; often rank deficient."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = draw(
        st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    if rows >= 2 and draw(st.booleans()):
        grid[-1] = list(grid[0])
    return RatMatrix(rows, cols, grid)


def to_sympy(a: RatMatrix):
    return sympy.Matrix(
        a.rows, a.cols, [sympy.Rational(x.numerator, x.denominator) for row in a.entries for x in row]
    )


def grid_of(m) -> tuple:
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows)
    )


# one or more matrices for each branch of RatMatrix.pseudoinverse: zero
# (with the empty shapes), full column rank, full row rank, square
# invertible and rank deficient
@settings(max_examples=120, deadline=None)
@given(matrices())
@example(RatMatrix.zero(2, 3))
@example(RatMatrix.zero(0, 3))
@example(RatMatrix.zero(3, 0))
@example(RatMatrix.from_rows([[1, 0], [1, 1], [0, 1]]))
@example(RatMatrix.from_rows([[1, 2, 0], [0, 1, 1]]))
@example(RatMatrix.from_rows([[2, 1], [1, 1]]))
@example(RatMatrix.from_rows([[1, 2], [2, 4]]))
@example(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
def test_pseudoinverse_matches_sympy(a):
    assert a.pseudoinverse().entries == grid_of(to_sympy(a).pinv())


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_rank_and_nullity_match_sympy(a):
    reduced, pivots = to_sympy(a).rref()
    result = a.rref()
    expected = grid_of(reduced)
    assert result.reduced.entries == expected[: len(pivots)]
    # sympy keeps the zero rows past the rank, which the rref drops
    assert len(expected) == a.rows and not any(any(row) for row in expected[len(pivots) :])
    assert result.pivot_columns == tuple(pivots)
    assert a.rank == result.rank == len(pivots)
    assert kernel_basis(a).dim == len(to_sympy(a).nullspace()) == a.cols - len(pivots)
