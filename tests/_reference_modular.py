"""Exact ranks modulo the prime P = 2^61 - 1, by code of their own.

The reference for ranks at sizes the sympy oracle cannot reach.  A rational
matrix, given as integer rows over one denominator, becomes a matrix of
residues modulo P: each row times the inverse of the denominator.  Products,
sums and differences are then taken entry by entry in GF(P), and a rank by
Gaussian elimination there.  Nothing is imported from ``fredpairs``: no
kernel of the package, no rref and no product of its runs here.

Reduction modulo P is a ring map on the rationals whose denominators P does
not divide, so the rank of a reduced matrix is at most the rational rank:
it falls short only when P divides every nonzero minor of the largest size.
So a printed rank above the mod-P rank is either that coincidence or a bug,
and one below it is always a bug.  For a fixed matrix the coincidence either
happens or it does not, so a comparison on a pinned stream cannot flake.
"""

from __future__ import annotations

P = (1 << 61) - 1


class ModMatrix:
    """A rows x cols matrix of residues modulo P, as a list of rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[int]]):
        self.rows, self.cols, self.data = rows, cols, data

    @classmethod
    def of(cls, rows: int, cols: int, num: list[list[int]], den: int) -> "ModMatrix":
        """The residues of the integer rows ``num`` over ``den``."""
        if not den % P:
            raise ZeroDivisionError("the denominator is a multiple of P")
        inverse = pow(den, -1, P)
        return cls(rows, cols, [[x * inverse % P for x in row] for row in num])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ModMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for x, other_row in zip(row, other.data):
                if x:
                    acc = [s + x * y for s, y in zip(acc, other_row)]
            out.append([s % P for s in acc])
        return ModMatrix(self.rows, other.cols, out)

    def _entrywise(self, other: "ModMatrix", sign: int) -> "ModMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        data = [[(x + sign * y) % P for x, y in zip(r, s)] for r, s in zip(self.data, other.data)]
        return ModMatrix(self.rows, self.cols, data)

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        return self._entrywise(other, 1)

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        return self._entrywise(other, -1)

    def rank(self) -> int:
        """The rank over GF(P), by forward elimination on a copy of the rows."""
        rows = [row for row in self.data if any(row)]
        r = 0
        for c in range(self.cols):
            if r == len(rows):
                break
            pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            lead = rows[r]
            inverse = pow(lead[c], -1, P)
            for i in range(r + 1, len(rows)):
                f = rows[i][c] * inverse % P
                if f:
                    rows[i] = [(x - f * y) % P for x, y in zip(rows[i], lead)]
            r += 1
        return r
