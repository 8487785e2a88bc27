"""Reference chain constructions that the tests use as oracles.

``block_fold`` assembles the operators between the two parities of a chain
as ``chains`` did before it padded each map family and took direct sums: a
grid of one block per pair of degrees, mostly zero, in ascending order of
the degrees.  Both must return the identical canonical matrix.
"""

from fredpairs import RatMatrix, block


def block_fold(dims, down, up=()) -> tuple[RatMatrix, RatMatrix]:
    """The even-to-odd and the odd-to-even block operator on degrees of ``dims``.

    Column p carries down[p-1] (degree p to p-1) and, when ``up`` is given,
    up[p] (degree p to p+1); every other block is zero.
    """

    def block_at(q, p):  # from degree p to degree q
        if p == q + 1:
            return down[p - 1]
        if p == q - 1 and up:
            return up[p]
        return RatMatrix.zero(dims[q], dims[p])

    def operator(source, target):
        if not target or not source:
            return RatMatrix.zero(sum(dims[q] for q in target), sum(dims[p] for p in source))
        return block([[block_at(q, p) for p in source] for q in target])

    even, odd = range(0, len(dims), 2), range(1, len(dims), 2)
    return operator(even, odd), operator(odd, even)
