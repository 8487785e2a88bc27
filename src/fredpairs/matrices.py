"""Dense exact matrices over the rationals.

A matrix is stored as integer rows ``num`` over one positive common
denominator ``den``, in canonical form: ``gcd(den, every entry of num) == 1``.
The pair is then unique, so equality and hashing compare it directly, and the
kernels and every operation run on Python ints with no tolerance anywhere.
``fractions.Fraction`` values are built only where the public API hands
entries out (``entries``, indexing); JSON is encoded from the integer rows,
each entry reduced against ``den`` by one gcd.  A linear map
``A: Q^n -> Q^m`` is stored as an m x n matrix acting on column vectors.

Every matrix is made by ``RatMatrix._raw``, the one place that checks a shape
(two nonnegative ints, never a bool) and fills the slots: the constructor,
``zero``, ``identity``, the JSON reader and every operation go through it.

One grid reader, ``_read_grid``, takes in every entry of the constructor and
of the JSON reader, so both refuse the same entries, a bool among them.  The
JSON reader takes only lists of rows; the constructor takes any iterable of
iterables, but refuses a str, bytes or bytearray as the grid or as a row
rather than read it one character or byte at a time.

Rows are lists, and no code mutates a row it did not just allocate: matrices
share rows freely (a zero matrix repeats one row, a reduced matrix may reuse
its input's rows).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from ._kernels import mat_mul, rref_rows
from .errors import DimensionError, InputError, InvariantError

# The largest rows + cols of a matrix the JSON reader takes, and the largest
# total dimension an instance file may give: verify --all on a chain of one
# degree this large takes seconds and a few hundred MB.
MAX_TOTAL_DIM = 2048


def _is_dimension(d) -> bool:
    """Whether ``d`` is a dimension: a nonnegative int.  bool is a subclass of
    int, but True is not a dimension, so the type is tested exactly."""
    return type(d) is int and d >= 0


def _off_grammar(text: str) -> bool:
    """Whether ``text`` holds what int() takes beyond -?[0-9]+.

    On ASCII text that is only blanks (" " or not printable), "+" and "_".
    Each is a test of single characters, so a join of strings passes exactly
    when every string does.
    """
    return not (text.isascii() and text.isprintable()) or " " in text or "+" in text or "_" in text


# Text types, iterable by character or byte: never a grid or a row of one.
_TEXT = frozenset((str, bytes, bytearray))


def _read_grid(grid: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """Ints, ``"p/q"`` strings and Fractions as canonical integer rows over one den.

    The strings are screened once, joined; each is then read by one
    ``partition("/")`` and two int() calls, so exactly -?[0-9]+(/-?[0-9]+)?
    with a nonzero denominator passes.  The int test is by exact type, so a
    bool is refused.  The (numerator, denominator) pairs read go to
    ``_over_lcm``.  A failure raises ``InputError`` naming an offending entry.
    A str, bytes or bytearray, as the grid or as a row, is refused by exact
    type, not read as one entry per character; the grid itself, which may be
    an iterator, is read once.
    """
    rows = [grid] if type(grid) in _TEXT else list(grid)
    if not _TEXT.isdisjoint(map(type, rows)):
        text = next(row for row in rows if type(row) in _TEXT)
        raise InputError(f"an entry grid and its rows must not be strings: {text!r}")
    grid = [list(row) for row in rows]
    strings = [e for row in grid for e in row if isinstance(e, str)]
    if _off_grammar("".join(strings)):
        raise InputError(f"malformed rational: {next(filter(_off_grammar, strings))!r}")
    pairs = []
    for row in grid:
        out = []
        for e in row:
            if type(e) is int:
                out.append((e, 1))
            elif isinstance(e, str):
                head, slash, tail = e.partition("/")
                try:
                    n, d = int(head), int(tail) if slash else 1
                except ValueError:
                    raise InputError(f"malformed rational: {e!r}") from None
                if d <= 0:
                    if not d:
                        raise InputError(f"zero denominator: {e!r}")
                    n, d = -n, -d
                out.append((n, d))
            elif isinstance(e, Fraction):
                out.append((e.numerator, e.denominator))
            else:
                raise InputError(f"not an integer, 'p/q' string or Fraction: {e!r}")
        pairs.append(out)
    return _over_lcm(pairs)


def _over_lcm(pairs: list[list[tuple[int, int]]]) -> tuple[list[list[int]], int]:
    """Rows of (n, d > 0) pairs as canonical integer rows over the lcm of the d.

    Integer entries take the same path: over den 1 every factor is 1, and
    ``_reduced`` stops at its first row.
    """
    den = lcm(*[d for row in pairs for _, d in row])
    return _reduced([[n * (den // d) for n, d in row] for row in pairs], den)


def _reduced(num: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """Integer rows over ``den > 0`` with their common factor divided out."""
    g = den
    for row in num:
        if g == 1:
            break
        g = gcd(g, *row)
    if g > 1:
        num = [[x // g for x in row] for row in num]
        den //= g
    return num, den


def _encode_rat(value: int) -> int:
    """The JSON encoding of an integer entry, which is the int itself."""
    return value


def _encode_reduced(x: int, den: int):
    """The JSON encoding of x/den, for den > 0, reduced by one gcd."""
    g = gcd(x, den)
    if g == den:
        return _encode_rat(x // den)
    return f"{x // g}/{den // g}"


def _aligned(mats: Sequence["RatMatrix"]) -> tuple[int, list[list[list[int]]]]:
    """The lcm of the denominators of ``mats`` and each one's rows over it, canonical stacked."""
    den = lcm(*[m.den for m in mats])
    parts = []
    for m in mats:
        f = den // m.den
        parts.append(m.num if f == 1 else [[x * f for x in row] for row in m.num])
    return den, parts


@dataclass(frozen=True)
class RrefResult:
    """The nonzero rows of the rref, rank x cols, and the pivot column of each."""

    reduced: "RatMatrix"
    pivot_columns: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_columns)


class RatMatrix:
    """Immutable dense rational matrix: integer rows ``num`` over ``den``."""

    __slots__ = ("rows", "cols", "num", "den", "_rref")

    def __new__(cls, rows: int, cols: int, entries: Iterable[Iterable]):
        num, den = _read_grid(entries)
        if len(num) != rows or any(len(row) != cols for row in num):
            raise DimensionError(f"entry grid does not match shape {rows}x{cols}")
        return cls._raw(rows, cols, num, den)

    @classmethod
    def _raw(cls, rows: int, cols: int, num: list[list[int]], den: int) -> "RatMatrix":
        """The one door of every matrix: wrap integer rows already canonical over ``den``.

        The shape is checked here and nowhere else; the rows are not checked.
        """
        if not (_is_dimension(rows) and _is_dimension(cols)):
            raise DimensionError(f"a shape must be two nonnegative integers, got {rows!r}x{cols!r}")
        self = _new(cls)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_num(self, num)
        _set_den(self, den)
        _set_rref(self, None)
        return self

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
        return hash((self.rows, self.cols, self.den, tuple(map(tuple, self.num))))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    # -- arithmetic ---------------------------------------------------

    def _entrywise(self, other: "RatMatrix", op) -> "RatMatrix":
        """``op`` applied entry by entry over the two matrices' common denominator."""
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")
        den, (left, right) = _aligned((self, other))
        num = [list(map(op, r1, r2)) for r1, r2 in zip(left, right)]
        return RatMatrix._raw(self.rows, self.cols, *_reduced(num, den))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._entrywise(other, operator.sub)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        if self.is_zero() or other.is_zero():
            return RatMatrix.zero(self.rows, other.cols)
        num = mat_mul(self.num, other.num, self.rows, self.cols, other.cols)
        return RatMatrix._raw(self.rows, other.cols, *_reduced(num, self.den * other.den))

    def transpose(self) -> "RatMatrix":
        num = [list(c) for c in zip(*self.num)] if self.rows else [[]] * self.cols
        return RatMatrix._raw(self.cols, self.rows, num, self.den)

    # -- decompositions -----------------------------------------------

    def rref(self) -> RrefResult:
        """Unique reduced row-echelon form, cached: its nonzero rows only.

        The kernel returns each nonzero row as primitive integers with a
        positive pivot p_i; over den = lcm(p_i) every pivot entry becomes den,
        and the result is canonical because each row is primitive.  A zero
        matrix takes the same path: the kernel returns no rows, and the lcm
        of no pivots is 1.
        """
        cached = self._rref
        if cached is None:
            rows, pivots = rref_rows(self.num, self.cols)
            den = lcm(*[rows[i][c] for i, c in enumerate(pivots)])
            for i, c in enumerate(pivots):
                f = den // rows[i][c]
                if f != 1:
                    rows[i] = [x * f for x in rows[i]]
            cached = RrefResult(RatMatrix._raw(len(rows), self.cols, rows, den), tuple(pivots))
            _set_rref(self, cached)
        return cached

    @property
    def rank(self) -> int:
        return self.rref().rank

    def inverse(self) -> "RatMatrix":
        """A^-1 = (A^T A)^-1 A^T, refused by rank for a singular A."""
        if self.rows != self.cols:
            raise DimensionError("only square matrices are invertible")
        if self.rank < self.rows:
            raise DimensionError("matrix is singular")
        return _gram_solve(self.transpose())

    def pseudoinverse(self) -> "RatMatrix":
        """The Moore-Penrose pseudoinverse, exact over Q, chosen by rank shape.

        - rank 0: the zero matrix of the transposed shape.
        - full column rank: (A^T A)^-1 A^T, the Gram solve of A^T.  A square
          invertible A takes this branch too.
        - full row rank: A^T (A A^T)^-1, the transpose of the Gram solve of A.
        - otherwise, from A = C R with C the pivot columns of A and R the
          reduced rows of rref(A), as R^T (R R^T)^-1 (C^T C)^-1 C^T: the Gram
          solves of R and C^T, both of full row rank, joined by one product.

        The pseudoinverse is unique and a RatMatrix canonical, so every
        branch gives the matrix the general formula would.  The result
        satisfies all four Penrose identities with the ordinary transpose.
        """
        rank = self.rank
        if not rank:
            return RatMatrix.zero(self.cols, self.rows)
        if rank == self.cols:
            return _gram_solve(self.transpose())
        if rank == self.rows:
            return _gram_solve(self).transpose()
        result, t = self.rref(), self.transpose().num
        pivot_rows = [t[c] for c in result.pivot_columns]
        ct = RatMatrix._raw(rank, self.rows, *_reduced(pivot_rows, self.den))
        return _gram_solve(result.reduced).transpose() @ _gram_solve(ct)

    # -- JSON ---------------------------------------------------------

    def to_json_obj(self) -> list:
        """The matrix JSON encoding: an int per integer entry, else "p/q".

        Each entry x/den is reduced by one gcd, over den 1 too; no Fraction
        is built.
        """
        den = self.den
        return [[_encode_reduced(x, den) for x in row] for row in self.num]

    @classmethod
    def from_json_obj(cls, obj, rows: int | None = None, cols: int | None = None) -> "RatMatrix":
        """Parse the matrix JSON encoding (list of rows, int or "p/q" entries).

        Shape hints, when given, are enforced; without them an empty list is
        read as a 0 x 0 matrix.  A shape whose rows + cols exceed
        ``MAX_TOTAL_DIM`` is refused before any entry is read.  Entries go
        straight to integers over one denominator, read by the constructor's
        rules.
        """
        if not isinstance(obj, list) or any(not isinstance(row, list) for row in obj):
            raise InputError("matrix JSON must be a list of rows")
        if rows is None:
            rows = len(obj)
        if cols is None:
            cols = len(obj[0]) if obj else 0
        if rows + cols > MAX_TOTAL_DIM:
            raise InputError(f"a matrix's rows + cols must be at most {MAX_TOTAL_DIM}")
        if len(obj) != rows or any(len(row) != cols for row in obj):
            raise InputError(f"matrix JSON does not have shape {rows}x{cols}")
        return cls._raw(rows, cols, *_read_grid(obj))


# The slot descriptors' own setters fill a new matrix and its rref cache, since
# RatMatrix.__setattr__ refuses every assignment; they cost less than
# object.__setattr__, which looks each name up again.
_new = object.__new__
_set_rows = RatMatrix.rows.__set__
_set_cols = RatMatrix.cols.__set__
_set_num = RatMatrix.num.__set__
_set_den = RatMatrix.den.__set__
_set_rref = RatMatrix._rref.__set__


def _gram_solve(m: RatMatrix) -> RatMatrix:
    """(M M^T)^-1 M, the Gram solve of M, from one row reduction of [M M^T | M].

    M M^T is invertible exactly when M has full row rank n, that is when the
    pivots are columns 0..n-1.  Every caller has read full rank first, so
    otherwise ``InvariantError`` is raised.  The reduced left half is then
    den times the identity, so the right half alone is still canonical.
    """
    n = m.rows
    result = hstack(m @ m.transpose(), m).rref()
    if result.pivot_columns != tuple(range(n)):
        raise InvariantError("the Gram matrix of a full-rank factor is singular")
    red = result.reduced
    return RatMatrix._raw(n, m.cols, [row[n:] for row in red.num], red.den)


# -- stacking and block assembly --------------------------------------


def hstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack requires equal row counts")
    den, parts = _aligned(mats)
    num = [[x for part in parts for x in part[i]] for i in range(rows)]
    return RatMatrix._raw(rows, sum(m.cols for m in mats), num, den)


def vstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack requires equal column counts")
    den, parts = _aligned(mats)
    num = [row for part in parts for row in part]
    return RatMatrix._raw(sum(m.rows for m in mats), cols, num, den)


def block(grid: Sequence[Sequence[RatMatrix]]) -> RatMatrix:
    """Assemble a block matrix from a rectangular grid of blocks."""
    return vstack(*[hstack(*row) for row in grid])


def direct_sum(*mats: RatMatrix) -> RatMatrix:
    """The block-diagonal matrix with ``mats`` down its diagonal, in order.

    Of no blocks it is the 0 x 0 matrix.
    """
    cols = sum(m.cols for m in mats)
    den, parts = _aligned(mats)
    num, left = [], 0
    for m, part in zip(mats, parts):
        pad_left, pad_right = [0] * left, [0] * (cols - left - m.cols)
        num.extend(pad_left + row + pad_right for row in part)
        left += m.cols
    return RatMatrix._raw(sum(m.rows for m in mats), cols, num, den)
