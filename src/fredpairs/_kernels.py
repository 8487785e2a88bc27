"""The two hot-loop kernels on integers: fraction-free Gauss-Jordan reduction
and matrix multiplication.

Both kernels take and return lists of integer rows.  A rational matrix
reaches them as integer rows over one common denominator (see
``fredpairs.matrices``), so neither kernel sees a ``Fraction``: the caller
keeps track of the denominator.  ``BACKEND`` names this one backend.

The elimination is fraction-free in the sense of E. H. Bareiss (1968),
integer-preserving Gaussian elimination, but keeps entries small by dividing
each updated row by the gcd of its entries rather than by the previous pivot:
Bareiss' exact division would also rescale every row whose entry in the
pivot column is already zero.
"""

from math import gcd

BACKEND = "integer"


def rref_rows(rows, ncols):
    """Row-reduce integer ``rows`` to reduced row-echelon form, up to row scaling.

    Returns ``(new_rows, pivots)``: the nonzero rows of the rref only, one per
    pivot, and ``pivots`` lists the pivot column of each in order.  Row i of
    ``new_rows`` is the i-th row of the rref scaled to primitive integers (the
    gcd of its entries is 1) with a positive entry in column ``pivots[i]``.
    The input rows are not modified, but an output row may be an input row
    that needed no change.
    """
    # Scaling a row by a nonzero constant leaves the row space, hence the
    # rref, unchanged, which is why integer rows suffice.
    irows = list(rows)
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
    for i in range(r):
        row = irows[i]
        g = gcd(*row)
        if row[pivots[i]] < 0:
            g = -g
        out.append(row if g == 1 else [x // g for x in row])
    return out, pivots


def mat_mul(a, b, m, k, n):
    """Multiply an m x k by a k x n matrix, both lists of integer rows.

    Each output row is accumulated as a sum of rows of ``b``, skipping the
    zero entries of ``a``.  Every output row is a new list.
    """
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                if acc is None:
                    acc = [x * y for y in brow]
                else:
                    acc = [s + x * y for s, y in zip(acc, brow)]
        out.append([0] * n if acc is None else acc)
    return out
