"""Dense exact matrices over the rationals.

Scalars are ``fractions.Fraction`` values: arbitrary-precision, always in
canonical form (positive denominator, reduced), so every computation in the
package is exact and tolerance-free.  A linear map ``A: Q^n -> Q^m`` is stored
as an m x n matrix acting on column vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ._kernels import mat_mul, rref_rows
from .errors import DimensionError, InputError

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce an int, string like ``"p/q"``, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rat_string(value)
    raise InputError(f"not a rational scalar: {value!r}")


def _parse_rat_string(text: str) -> Fraction:
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
        else:
            raise ValueError(text)
    except ValueError:
        raise InputError(f"malformed rational: {text!r}") from None
    if den == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def _encode_rat(value: Fraction):
    if value.denominator == 1:
        return int(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class RrefResult:
    reduced: "RatMatrix"
    pivot_columns: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class RankFactorization:
    """A = left * right with left of full column rank, right of full row rank."""

    left: "RatMatrix"
    right: "RatMatrix"
    rank: int


class RatMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries", "_rref", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable]):
        self._fill(rows, cols, tuple(tuple(rat(e) for e in row) for row in entries))

    @classmethod
    def _of(cls, rows: int, cols: int, entries: Iterable[Iterable[Fraction]]) -> "RatMatrix":
        """Build from rows that already hold only Fractions: shape-checked, not coerced.

        For kernel results and rearrangements of existing matrices; anything
        from outside the package goes through the validating constructor.
        """
        self = object.__new__(cls)
        self._fill(rows, cols, tuple(map(tuple, entries)))
        return self

    def _fill(self, rows: int, cols: int, grid: tuple[tuple[Fraction, ...], ...]):
        if len(grid) != rows or any(len(row) != cols for row in grid):
            raise DimensionError(f"entry grid does not match shape {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "_rref", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        rows = list(rows)
        if cols is None:
            if not rows:
                raise DimensionError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._of(rows, cols, [(_ZERO,) * cols] * rows)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._of(n, n, [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, vector: Sequence) -> "RatMatrix":
        return cls(len(vector), 1, [[v] for v in vector])

    # -- basic protocol -----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    # -- arithmetic ---------------------------------------------------

    def _require_same_shape(self, other: "RatMatrix"):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix._of(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix._of(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def scale(self, factor) -> "RatMatrix":
        f = rat(factor)
        return RatMatrix._of(self.rows, self.cols, [[f * e for e in row] for row in self.entries])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        rows = mat_mul(
            [list(r) for r in self.entries],
            [list(r) for r in other.entries],
            self.rows,
            self.cols,
            other.cols,
        )
        return RatMatrix._of(self.rows, other.cols, rows)

    def transpose(self) -> "RatMatrix":
        columns = zip(*self.entries) if self.rows else [()] * self.cols
        return RatMatrix._of(self.cols, self.rows, columns)

    # -- decompositions -----------------------------------------------

    def rref(self) -> RrefResult:
        """Unique reduced row-echelon form, cached."""
        cached = self._rref
        if cached is None:
            rows, pivots = rref_rows([list(r) for r in self.entries], self.cols)
            reduced = RatMatrix._of(self.rows, self.cols, rows)
            cached = RrefResult(reduced, tuple(pivots), len(pivots))
            object.__setattr__(self, "_rref", cached)
        return cached

    @property
    def rank(self) -> int:
        return self.rref().rank

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise DimensionError("only square matrices are invertible")
        n = self.rows
        aug = hstack(self, RatMatrix.identity(n))
        result = aug.rref()
        if result.rank < n:
            raise DimensionError("matrix is singular")
        red = result.reduced
        return RatMatrix._of(n, n, [red.row(i)[n:] for i in range(n)])

    def rank_factorization(self) -> RankFactorization:
        """Full rank factorization A = C * R from the rref of A.

        C collects the pivot columns of A, R the nonzero rows of rref(A).
        A zero matrix factors through rank 0 with empty factors.
        """
        result = self.rref()
        r = result.rank
        left = RatMatrix._of(
            self.rows, r, [[row[c] for c in result.pivot_columns] for row in self.entries]
        )
        right = RatMatrix._of(r, self.cols, result.reduced.entries[:r])
        return RankFactorization(left, right, r)

    def pseudoinverse(self) -> "RatMatrix":
        """The Moore-Penrose pseudoinverse, exact over Q.

        Computed from the full rank factorization A = C R as
        R^T (R R^T)^-1 (C^T C)^-1 C^T; both Gram matrices are invertible
        because C and R have full rank.  The result satisfies all four
        Penrose identities with the ordinary transpose.
        """
        fact = self.rank_factorization()
        if fact.rank == 0:
            return RatMatrix.zero(self.cols, self.rows)
        c, r = fact.left, fact.right
        rt, ct = r.transpose(), c.transpose()
        return rt @ (r @ rt).inverse() @ (ct @ c).inverse() @ ct

    # -- JSON ---------------------------------------------------------

    def to_json_obj(self) -> list:
        return [[_encode_rat(e) for e in row] for row in self.entries]

    @classmethod
    def from_json_obj(cls, obj, rows: int | None = None, cols: int | None = None) -> "RatMatrix":
        """Parse the matrix JSON encoding (list of rows, int or "p/q" entries).

        Shape hints, when given, are enforced; without them an empty list is
        read as a 0 x 0 matrix.
        """
        if not isinstance(obj, list) or any(not isinstance(row, list) for row in obj):
            raise InputError("matrix JSON must be a list of rows")
        for row in obj:
            for e in row:
                if not isinstance(e, (int, str)) or isinstance(e, bool):
                    raise InputError(f"matrix entries must be integers or 'p/q' strings: {e!r}")
        if rows is None:
            rows = len(obj)
        if cols is None:
            cols = len(obj[0]) if obj else 0
        if len(obj) != rows or any(len(row) != cols for row in obj):
            raise InputError(f"matrix JSON does not have shape {rows}x{cols}")
        try:
            return cls(rows, cols, obj)
        except InputError:
            raise
        except DimensionError as exc:
            raise InputError(str(exc)) from None


# -- stacking and block assembly --------------------------------------


def hstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack requires equal row counts")
    return RatMatrix._of(
        rows,
        sum(m.cols for m in mats),
        [[e for m in mats for e in m.row(i)] for i in range(rows)],
    )


def vstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack requires equal column counts")
    return RatMatrix._of(
        sum(m.rows for m in mats), cols, [row for m in mats for row in m.entries]
    )


def block(grid: Sequence[Sequence[RatMatrix]]) -> RatMatrix:
    """Assemble a block matrix from a rectangular grid of blocks."""
    return vstack(*[hstack(*row) for row in grid])


def direct_sum(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return block(
        [
            [a, RatMatrix.zero(a.rows, b.cols)],
            [RatMatrix.zero(b.rows, a.cols), b],
        ]
    )
