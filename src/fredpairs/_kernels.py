"""The two hot-loop kernels on integers: fraction-free Gauss-Jordan reduction
and matrix multiplication.

Both kernels take and return lists of integer rows.  A rational matrix
reaches them as integer rows over one common denominator (see
``fredpairs.matrices``), so neither kernel sees a ``Fraction``: the caller
keeps track of the denominator.  ``BACKEND`` names this one backend.

The elimination is fraction-free in the sense of E. H. Bareiss (1968),
integer-preserving Gaussian elimination, but keeps entries small by dividing
rows by the gcd of their entries rather than by the previous pivot: Bareiss'
exact division would also rescale every row whose entry in the pivot column
is already zero.  Each pivot row is made primitive when it is chosen.  An
updated row is divided by its gcd only once the bit lengths of the pivots
used so far add up to more than ``RREF_BUDGET_BITS``; below that, the gcd
and the division pass cost more than the growth they prevent.
"""

from math import gcd

BACKEND = "integer"

# An update multiplies a row by at most its pivot, so while the pivots used
# so far total at most this many bits, a row left unnormalised carries at
# most this many extra bits until it leads or the final pass reduces it.
# Without a budget, entries grow with the square of the rank.
RREF_BUDGET_BITS = 512


def rref_rows(rows, ncols):
    """Row-reduce integer ``rows`` to reduced row-echelon form, up to row scaling.

    Returns ``(new_rows, pivots)``: the nonzero rows of the rref only, one per
    pivot, and ``pivots`` lists the pivot column of each in order.  Row i of
    ``new_rows`` is the i-th row of the rref scaled to primitive integers (the
    gcd of its entries is 1) with a positive entry in column ``pivots[i]``.
    The input rows are not modified, but an output row may be an input row
    that needed no change.

    Each pivot row is divided by the gcd of its entries when it is chosen.
    The rows it updates are divided by theirs only once the pivots chosen so
    far total more than ``RREF_BUDGET_BITS`` bits; the final pass makes
    every output row primitive either way, so the budget never changes the
    result.
    """
    # Scaling a row by a nonzero constant leaves the row space, hence the
    # rref, unchanged, which is why integer rows suffice.
    irows = list(rows)
    m = len(irows)
    pivots = []
    spent = 0
    r = 0
    for c in range(ncols):
        for i in range(r, m):
            if irows[i][c]:
                break
        else:
            continue
        lead = irows[i]
        irows[i] = irows[r]
        g = gcd(*lead)
        if g > 1:
            lead = [x // g for x in lead]
        irows[r] = lead
        p = lead[c]
        spent += p.bit_length()
        normalise = spent > RREF_BUDGET_BITS
        for i in range(m):
            row = irows[i]
            f = row[c]
            if not f or i == r:
                continue
            # (p/g) * row - (f/g) * lead clears column c and stays integral;
            # past the budget, dividing it by the gcd of its entries keeps
            # them small.
            g = gcd(p, f)
            pg, fg = p // g, f // g
            new = [x * pg - y * fg for x, y in zip(row, lead)]
            if normalise:
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
