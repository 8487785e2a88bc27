"""Reference kernels for the parity tests in ``test_kernels.py``.

Straightforward Gauss-Jordan reduction and matrix multiplication working
directly on ``Fraction`` entries.  Given the same integers, the library's
integer kernels in ``fredpairs._kernels`` must return the same product, and
the same pivots and nonzero reduced rows once each row is divided by its
pivot entry.  The reference keeps the zero rows past the rank, which the
library's ``rref_rows`` drops.

``pseudoinverse_two_solves`` is the general rank-factorization formula for
the Moore-Penrose inverse, which ``RatMatrix.pseudoinverse`` applies only to
matrices of deficient rank; every branch must give the matrix it gives.
"""

from fractions import Fraction

from fredpairs.matrices import RatMatrix, _solve

_ZERO = Fraction(0)


def rref_rows(rows, ncols):
    """Reduce ``rows`` (lists of Fractions) to reduced row-echelon form.

    Returns ``(new_rows, pivots)`` where ``pivots`` lists the pivot column of
    each nonzero row in order; ``new_rows`` has a row for every input row, so
    the rows past the rank are zero.  The input lists are not modified.
    """
    rows = [list(row) for row in rows]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        lead = rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def mat_mul(a, b, m, k, n):
    """Multiply an m x k by a k x n list-of-rows matrix of Fractions."""
    out = []
    for i in range(m):
        arow = a[i]
        orow = []
        for j in range(n):
            acc = _ZERO
            for t in range(k):
                acc += arow[t] * b[t][j]
            orow.append(acc)
        out.append(orow)
    return out


def pseudoinverse_two_solves(a):
    """The pseudoinverse of a ``RatMatrix`` of any rank and shape, from its full
    rank factorization A = C R as R^T (R R^T)^-1 (C^T C)^-1 C^T in solve form.

    C holds the pivot columns of A, read entry by entry, and R the reduced
    rows of rref(A).  A zero matrix has empty factors, so the two solves are
    0 x 0 and their product is the zero matrix of the transposed shape.
    """
    result = a.rref()
    pivots = result.pivot_columns
    c = RatMatrix(a.rows, len(pivots), [[a[i, j] for j in pivots] for i in range(a.rows)])
    r = result.reduced
    ct = c.transpose()
    return _solve(r @ r.transpose(), r).transpose() @ _solve(ct @ c, ct)
