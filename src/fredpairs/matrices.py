"""Dense exact matrices over the rationals.

A matrix is stored as integer rows ``num`` over one positive common
denominator ``den``, in canonical form: ``gcd(den, every entry of num) == 1``.
The pair is then unique, so equality and hashing compare it directly, and the
kernels and every operation run on Python ints with no tolerance anywhere.
``fractions.Fraction`` values are built only where the public API hands
entries out (``entries``, ``row``, ``col``, indexing, JSON).  A linear map
``A: Q^n -> Q^m`` is stored as an m x n matrix acting on column vectors.

Rows are lists, and no code mutates a row it did not just allocate: matrices
share rows freely (a zero matrix repeats one row, a reduced matrix may reuse
its input's rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from ._kernels import mat_mul, rref_rows
from .errors import DimensionError, InputError

def _scalar(value) -> tuple[int, int]:
    """An int, ``"p/q"`` string or Fraction as ``(n, d)`` in lowest terms, d > 0."""
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, str):
        return _parse_rat_string(value)
    raise InputError(f"not a rational scalar: {value!r}")


def _parse_rat_string(text: str) -> tuple[int, int]:
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return int(parts[0]), 1
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
        else:
            raise ValueError(text)
    except ValueError:
        raise InputError(f"malformed rational: {text!r}") from None
    if den == 0:
        raise InputError(f"zero denominator: {text!r}")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _encode_rat(value: Fraction):
    if value.denominator == 1:
        return int(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _over_common_den(grid: list[list[tuple[int, int]]]) -> tuple[list[list[int]], int]:
    """Integer rows over the lcm of the denominators of reduced ``(n, d)`` pairs.

    The result is canonical: a prime power dividing the lcm exactly divides
    some d exactly, and that entry's n is prime to d.
    """
    den = lcm(*[d for row in grid for _, d in row])
    if den == 1:
        return [[n for n, _ in row] for row in grid], 1
    return [[n * (den // d) for n, d in row] for row in grid], den


def _rescaled(m: "RatMatrix", den: int) -> list[list[int]]:
    """The rows of ``m`` over ``den``, a multiple of ``m.den``."""
    f = den // m.den
    if f == 1:
        return m.num
    return [[x * f for x in row] for row in m.num]


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
    """Immutable dense rational matrix: integer rows ``num`` over ``den``."""

    __slots__ = ("rows", "cols", "num", "den", "_rref", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable]):
        grid = [[_scalar(e) for e in row] for row in entries]
        if len(grid) != rows or any(len(row) != cols for row in grid):
            raise DimensionError(f"entry grid does not match shape {rows}x{cols}")
        self._set(rows, cols, *_over_common_den(grid))

    @classmethod
    def _raw(cls, rows: int, cols: int, num: list[list[int]], den: int) -> "RatMatrix":
        """Wrap integer rows that are already canonical over ``den``; nothing is checked."""
        self = object.__new__(cls)
        self._set(rows, cols, num, den)
        return self

    @classmethod
    def _canonical(cls, rows: int, cols: int, num: list[list[int]], den: int) -> "RatMatrix":
        """Wrap integer rows over ``den > 0`` after dividing out their common factor."""
        g = den
        for row in num:
            if g == 1:
                break
            g = gcd(g, *row)
        if g > 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        return cls._raw(rows, cols, num, den)

    def _set(self, rows: int, cols: int, num: list[list[int]], den: int):
        set_slot = object.__setattr__
        set_slot(self, "rows", rows)
        set_slot(self, "cols", cols)
        set_slot(self, "num", num)
        set_slot(self, "den", den)
        set_slot(self, "_rref", None)
        set_slot(self, "_hash", None)

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
        return cls._raw(rows, cols, [[0] * cols] * rows, 1)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._raw(n, n, [[int(i == j) for j in range(n)] for i in range(n)], 1)

    # -- basic protocol -----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as a grid of Fractions, built on each access."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self.num[i][j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num[i])

    def col(self, j: int) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(row[j], den) for row in self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.den, tuple(map(tuple, self.num))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.num)

    # -- arithmetic ---------------------------------------------------

    def _require_same_shape(self, other: "RatMatrix"):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        den = lcm(self.den, other.den)
        num = [
            [x + y for x, y in zip(r1, r2)]
            for r1, r2 in zip(_rescaled(self, den), _rescaled(other, den))
        ]
        return RatMatrix._canonical(self.rows, self.cols, num, den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        den = lcm(self.den, other.den)
        num = [
            [x - y for x, y in zip(r1, r2)]
            for r1, r2 in zip(_rescaled(self, den), _rescaled(other, den))
        ]
        return RatMatrix._canonical(self.rows, self.cols, num, den)

    def __neg__(self) -> "RatMatrix":
        num = [[-x for x in row] for row in self.num]
        return RatMatrix._raw(self.rows, self.cols, num, self.den)

    def scale(self, factor) -> "RatMatrix":
        fn, fd = _scalar(factor)
        num = [[fn * x for x in row] for row in self.num]
        return RatMatrix._canonical(self.rows, self.cols, num, fd * self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        num = mat_mul(self.num, other.num, self.rows, self.cols, other.cols)
        return RatMatrix._canonical(self.rows, other.cols, num, self.den * other.den)

    def transpose(self) -> "RatMatrix":
        num = [list(c) for c in zip(*self.num)] if self.rows else [[]] * self.cols
        return RatMatrix._raw(self.cols, self.rows, num, self.den)

    # -- decompositions -----------------------------------------------

    def rref(self) -> RrefResult:
        """Unique reduced row-echelon form, cached.

        The kernel returns each nonzero row as primitive integers with a
        positive pivot p_i; over den = lcm(p_i) every pivot entry becomes den,
        and the result is canonical because each row is primitive.
        """
        cached = self._rref
        if cached is None:
            rows, pivots = rref_rows(self.num, self.cols)
            den = lcm(*[rows[i][c] for i, c in enumerate(pivots)])
            for i, c in enumerate(pivots):
                f = den // rows[i][c]
                if f != 1:
                    rows[i] = [x * f for x in rows[i]]
            reduced = RatMatrix._raw(self.rows, self.cols, rows, den)
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
        # A is invertible exactly when every pivot of [A | I] lies in A's half.
        if result.pivot_columns != tuple(range(n)):
            raise DimensionError("matrix is singular")
        red = result.reduced
        # The left half of the reduced rows is den times the identity, so the
        # right half alone is still canonical over den.
        return RatMatrix._raw(n, n, [row[n:] for row in red.num], red.den)

    def rank_factorization(self) -> RankFactorization:
        """Full rank factorization A = C * R from the rref of A.

        C collects the pivot columns of A, R the nonzero rows of rref(A).
        A zero matrix factors through rank 0 with empty factors.
        """
        result = self.rref()
        r = result.rank
        left = RatMatrix._canonical(
            self.rows, r, [[row[c] for c in result.pivot_columns] for row in self.num], self.den
        )
        right = RatMatrix._raw(r, self.cols, result.reduced.num[:r], result.reduced.den)
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
        den = self.den
        return [[_encode_rat(Fraction(x, den)) for x in row] for row in self.num]

    @classmethod
    def from_json_obj(cls, obj, rows: int | None = None, cols: int | None = None) -> "RatMatrix":
        """Parse the matrix JSON encoding (list of rows, int or "p/q" entries).

        Shape hints, when given, are enforced; without them an empty list is
        read as a 0 x 0 matrix.  Entries go straight to integers over one
        denominator.
        """
        if not isinstance(obj, list) or any(not isinstance(row, list) for row in obj):
            raise InputError("matrix JSON must be a list of rows")
        if rows is None:
            rows = len(obj)
        if cols is None:
            cols = len(obj[0]) if obj else 0
        if len(obj) != rows or any(len(row) != cols for row in obj):
            raise InputError(f"matrix JSON does not have shape {rows}x{cols}")
        grid = [[_json_scalar(e) for e in row] for row in obj]
        return cls._raw(rows, cols, *_over_common_den(grid))


def _json_scalar(value) -> tuple[int, int]:
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        return _parse_rat_string(value)
    raise InputError(f"matrix entries must be integers or 'p/q' strings: {value!r}")


# -- stacking and block assembly --------------------------------------


def hstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack requires equal row counts")
    den = lcm(*[m.den for m in mats])
    parts = [_rescaled(m, den) for m in mats]
    num = [[x for part in parts for x in part[i]] for i in range(rows)]
    return RatMatrix._raw(rows, sum(m.cols for m in mats), num, den)


def vstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack requires equal column counts")
    den = lcm(*[m.den for m in mats])
    num = [row for m in mats for row in _rescaled(m, den)]
    return RatMatrix._raw(sum(m.rows for m in mats), cols, num, den)


def block(grid: Sequence[Sequence[RatMatrix]]) -> RatMatrix:
    """Assemble a block matrix from a rectangular grid of blocks.

    Every block is brought to the lcm of the denominators, which keeps the
    result canonical: no gcd pass is needed.
    """
    return vstack(*[hstack(*row) for row in grid])


def direct_sum(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return block(
        [
            [a, RatMatrix.zero(a.rows, b.cols)],
            [RatMatrix.zero(b.rows, a.cols), b],
        ]
    )
