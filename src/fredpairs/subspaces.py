"""Canonical subspaces of Q^n and quotient-space machinery.

Every subspace is stored by the reduced matrix of the rref of a spanning
set, which holds the nonzero rows only, so two subspaces are equal iff their
basis matrices are identical.  Complements are always the orthogonal
complement under the standard dot product, which makes every choice in the
package deterministic.

The defect numbers need only dimensions, so ``defect_numbers`` builds no
subspace: by Grassmann's formula dim(U & V) = dim U + dim V - dim(U + V),
the meet of N(A) and R(B) is counted from the ranks already cached on A and
B and the rank of one rank(A) x rank(B) product: the reduced rows of A
times the pivot columns of B, the Schur complement left when the stack of a
basis of each is eliminated by its null rows.  Since such counts satisfy
rank-nullity whatever the ranks are, A is checked to annihilate the null
rows that are counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices
from .errors import DimensionError, InvariantError, PreconditionError
from .matrices import RatMatrix, RrefResult, _solve, vstack


@dataclass(frozen=True)
class Subspace:
    basis: RatMatrix  # dim x ambient_dim, an rref's reduced matrix: no zero row

    @staticmethod
    def spanned_by(rows: RatMatrix) -> "Subspace":
        """Canonicalize a spanning set (rows of a matrix) into a Subspace."""
        return Subspace(rows.rref().reduced)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(RatMatrix.zero(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(RatMatrix.identity(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def _require_same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __add__(self, other: "Subspace") -> "Subspace":
        self._require_same_ambient(other)
        return Subspace.spanned_by(vstack(self.basis, other.basis))

    def __and__(self, other: "Subspace") -> "Subspace":
        """The intersection, as the orthogonal complement of the sum of the
        two complements: U & V = (U^o + V^o)^o.

        The package counts every meet it reports by Grassmann's formula in
        ``defect_numbers``; this one is for callers that need the subspace.
        """
        return orthogonal_complement(orthogonal_complement(self) + orthogonal_complement(other))

    def contains(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        return (self + other).dim == self.dim


@dataclass(frozen=True)
class QuotientStructure:
    """A quotient Q^n / K materialized as a coordinate space by two maps.

    ``projection`` is the matrix of the quotient map pi, whose kernel is K,
    and ``section`` a right inverse of it whose image is the orthogonal
    complement of K.  Each dimension is read off the projection's shape, of
    full row rank: dim K is its cols - rows.
    """

    projection: RatMatrix  # quotient_dim x ambient_dim
    section: RatMatrix  # ambient_dim x quotient_dim

    @property
    def ambient_dim(self) -> int:
        return self.projection.cols

    @property
    def quotient_dim(self) -> int:
        return self.projection.rows

    @property
    def killed_dim(self) -> int:
        return self.projection.cols - self.projection.rows


def _null_rows(result: RrefResult) -> list[list[int]]:
    """A basis of {x : Ax = 0} as integer rows, one per free column of
    ``result`` = rref(A): independent but not reduced.

    The vector of free column f is den at f, minus column f of the reduced
    rows at the pivots and zero elsewhere; scaling by den keeps it integral
    and does not change the span.  A reduced row is zero before its pivot,
    so the vector is zero past f.
    """
    red, pivots = result.reduced, result.pivot_columns
    pivot_set = set(pivots)
    vectors = []
    for free in range(red.cols):
        if free in pivot_set:
            continue
        v = [0] * red.cols
        v[free] = red.den
        for r, p in enumerate(pivots):
            v[p] = -red.num[r][free]
        vectors.append(v)
    return vectors


def kernel_basis(a: RatMatrix) -> Subspace:
    """The null space {x : Ax = 0} as a canonical subspace of the domain.

    It is read off one row reduction of A with its columns reversed.  In the
    original column order each null vector of that rref leads at its own
    free column with entry den and is zero at every other free column, so
    the vectors, taken from the last free column to the first, are already
    the reduced rows of the kernel's rref over den.  They are canonical
    because the reduced rows are: den and the entries at the free columns
    share no common factor.  A zero A gives the identity rows, an injective A none, over den 1.
    """
    reversed_a = RatMatrix._raw(a.rows, a.cols, [row[::-1] for row in a.num], a.den)
    result = reversed_a.rref()
    rows = [v[::-1] for v in reversed(_null_rows(result))]
    return Subspace(RatMatrix._raw(len(rows), a.cols, rows, result.reduced.den))


def defect_numbers(a: RatMatrix, b: RatMatrix) -> tuple[int, int]:
    """(dim N(A)/(N(A) & R(B)), dim R(B)/(N(A) & R(B))) for A after B.

    By Grassmann's formula the meet has dimension
    nullity(A) + rank(B) - dim(N(A) + R(B)).  The null rows of A and the
    pivot columns B_c of B are bases of N(A) and R(B), and B's common
    denominator scales the columns without changing their span.  Eliminating
    the stack of both bases by its null-row block (a Schur complement) leaves
    (Red B_c)^T / den, where Red holds the nonzero rows of rref(A): on the
    free columns the null rows are den times the identity, and each reduced
    row is den at its own pivot.  So dim(N(A) + R(B)) = nullity(A) +
    rank(Red B_c), the meet has dimension rank(B) - rank(Red B_c), and the
    second defect is rank(Red B_c) itself.  That product is only
    rank(A) x rank(B), and zero when R(B) lies in N(A).  No canonical basis
    is built, and nothing is derived from the product AB.  It and the
    null-row check below run on integer rows; an injective A leaves the
    check's product empty, and a zero B the Schur product.

    The two numbers differ by cols(A) - rank(A) - rank(B) whatever the ranks
    are, so an index summed from them cannot show a rank that is too small.
    A is therefore checked to map each null row to zero, which bounds
    rank(A) from above, and fails for a rref that gives a nonzero A rank 0;
    a failure raises ``InvariantError``.
    """
    if a.cols != b.rows:
        raise DimensionError(f"cannot compose {a.shape} after {b.shape}")
    if a.is_zero():  # N(A) is everything, so the meet is R(B)
        return a.cols - b.rank, 0
    result = a.rref()
    null = _null_rows(result)
    if any(map(any, matrices.mat_mul(null, a.transpose().num, len(null), a.cols, a.rows))):
        raise InvariantError("a null row of the rref is not in the null space")
    pivots = b.rref().pivot_columns
    b_c = [[row[c] for c in pivots] for row in b.num]
    schur = matrices.mat_mul(result.reduced.num, b_c, result.rank, a.cols, len(pivots))
    b_defect = len(matrices.rref_rows(schur, len(pivots))[1])
    return a.cols - result.rank - len(pivots) + b_defect, b_defect


def image_basis(a: RatMatrix) -> Subspace:
    """The column span of A as a canonical subspace of the codomain."""
    return Subspace.spanned_by(a.transpose())


def orthogonal_complement(u: Subspace) -> Subspace:
    """Orthogonal complement of U in its ambient space (standard dot product)."""
    return kernel_basis(u.basis)


def quotient(killed: Subspace) -> QuotientStructure:
    """Materialize Q^n / killed, n = killed.ambient_dim, with orthogonal section.

    With C the echelon basis of the orthogonal complement of ``killed`` (rows),
    the section is C^T and the projection (C C^T)^-1 C, taken in solve form
    from one row reduction of [C C^T | C], so that
    projection @ section = identity and killed is exactly the kernel of the
    projection.  When ``killed`` is zero, C is the identity and both maps are
    the identity, which is returned directly.
    """
    if not killed.dim:
        identity = RatMatrix.identity(killed.ambient_dim)
        return QuotientStructure(identity, identity)
    c = orthogonal_complement(killed).basis
    section = c.transpose()
    return QuotientStructure(projection=_solve(c @ section, c), section=section)


def induced_map(a: RatMatrix, q_dom: QuotientStructure, q_cod: QuotientStructure) -> RatMatrix:
    """Factor A through the two quotients.

    Requires A(killed_dom) contained in killed_cod; the returned map A~
    satisfies A~ @ projection_dom = projection_cod @ A exactly.  That square
    is the test of the requirement: section_dom @ projection_dom is the
    orthogonal projector with kernel killed_dom and the kernel of
    projection_cod is killed_cod, so the square commutes exactly when A maps
    killed_dom into killed_cod.  A quotient that kills nothing has identity
    projection and section, so its factor is skipped; when killed_dom is zero
    A~ is projection_cod @ A and the requirement holds trivially.
    """
    if a.cols != q_dom.ambient_dim or a.rows != q_cod.ambient_dim:
        raise DimensionError("matrix shape does not match the quotient structures")
    projected = q_cod.projection @ a if q_cod.killed_dim else a
    if not q_dom.killed_dim:
        return projected
    a_tilde = projected @ q_dom.section
    if a_tilde @ q_dom.projection != projected:
        raise PreconditionError("A does not map killed_dom into killed_cod")
    return a_tilde


def composes_to_zero(
    a_tilde: RatMatrix, b_tilde: RatMatrix, a: RatMatrix, b: RatMatrix, range_ab: Subspace
) -> bool:
    """Whether A~ B~ = 0, for A~ and B~ induced by ``induced_map`` from A and
    B, where ``range_ab`` is R(AB).

    When both maps passed through unchanged, A~ B~ is A B, so R(AB) answers
    without a product; otherwise A~ B~ is formed.
    """
    if a_tilde is a and b_tilde is b:
        return not range_ab.dim
    return (a_tilde @ b_tilde).is_zero()


def lift(m: RatMatrix, q_dom: QuotientStructure, q_cod: QuotientStructure) -> RatMatrix:
    """Lift a map between the quotients to section_cod @ m @ projection_dom.

    The lift vanishes on killed_dom and maps into the orthogonal complement
    of killed_cod.  A quotient that kills nothing contributes an identity
    factor, which is skipped.
    """
    if m.cols != q_dom.quotient_dim or m.rows != q_cod.quotient_dim:
        raise DimensionError("matrix shape does not match the quotient structures")
    if q_cod.killed_dim:
        m = q_cod.section @ m
    if q_dom.killed_dim:
        m = m @ q_dom.projection
    return m
