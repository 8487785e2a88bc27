"""Exact kernels on integers: fraction-free Gauss-Jordan reduction and matmul.

Both kernels take and return lists of ``Fraction`` rows, but work on plain
Python ints inside each call: every row (and, for ``mat_mul``, every column of
the right factor) is scaled by the lcm of its denominators once, the loop runs
on integers, and ``Fraction`` objects are built only for the result.  The
integer copies are local to the call.

The elimination is fraction-free in the sense of E. H. Bareiss (1968),
integer-preserving Gaussian elimination, but keeps entries small by dividing
each updated row by the gcd of its entries rather than by the previous pivot:
Bareiss' exact division would also rescale every row whose entry in the
pivot column is already zero.
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _integer_row(row):
    """Return ``(den, ints)`` with ``ints[j] == row[j] * den`` and ``den`` minimal."""
    den = lcm(*[e.denominator for e in row])
    return den, [e.numerator * (den // e.denominator) for e in row]


def rref_rows(rows, ncols):
    """Reduce ``rows`` (lists of Fractions) to reduced row-echelon form.

    Returns ``(new_rows, pivots)`` where ``pivots`` lists the pivot column of
    each nonzero row in order.  Every entry of ``new_rows`` is a ``Fraction``.
    The input lists are not modified.
    """
    # Scaling a row by a nonzero constant leaves the row space, hence the
    # rref, unchanged, so each row is cleared of denominators on its own.
    irows = [_integer_row(row)[1] for row in rows]
    m = len(irows)
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, m):
            if irows[i][c]:
                break
        else:
            continue
        irows[r], irows[i] = irows[i], irows[r]
        lead = irows[r]
        p = lead[c]
        for i in range(m):
            row = irows[i]
            f = row[c]
            if not f or i == r:
                continue
            # (p/g) * row - (f/g) * lead clears column c and stays integral;
            # dividing it by the gcd of its entries keeps them small.
            g = gcd(p, f)
            pg, fg = p // g, f // g
            new = [x * pg - y * fg for x, y in zip(row, lead)]
            g = gcd(*new)
            if g > 1:
                new = [x // g for x in new]
            irows[i] = new
        pivots.append(c)
        r += 1
        if r == m:
            break
    out = []
    for i, row in enumerate(irows):
        if i < r:
            p = row[pivots[i]]
            out.append([Fraction(x, p) if x else _ZERO for x in row])
        else:
            out.append([_ZERO] * ncols)
    return out, pivots


def mat_mul(a, b, m, k, n):
    """Multiply an m x k by a k x n list-of-rows matrix of Fractions.

    Row i of ``a`` is scaled by ``da_i`` and column j of ``b`` by ``db_j`` to
    integers, so entry (i, j) of the product is ``num / (da_i * db_j)`` with
    ``num`` an integer dot product.  Each integer output row is accumulated
    as a sum of integer rows of ``b``, skipping the zero entries of ``a``.
    """
    dbs = [lcm(*[row[j].denominator for row in b]) for j in range(n)]
    ib = [[e.numerator * (d // e.denominator) for e, d in zip(row, dbs)] for row in b]
    out = []
    for row in a:
        da, ia = _integer_row(row)
        acc = [0] * n
        for x, brow in zip(ia, ib):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append([Fraction(s, da * db) if s else _ZERO for s, db in zip(acc, dbs)])
    return out
