"""Reference subspace constructions that the tests use as oracles.

``zassenhaus_meet`` intersects by Zassenhaus' sum-intersection elimination,
an algorithm that shares no step with ``Subspace.__and__``, which takes the
orthogonal complement of the sum of the complements; both must return the
identical canonical subspace.
``stacked_defect_numbers`` counts the defects as ``defect_numbers`` did
before it eliminated by the null rows: from the rank of the stack of the
null rows of A and the pivot columns of B.
``spanned_kernel_basis`` builds N(A) as ``kernel_basis`` did before it read
the reduced rows off one row reduction of A with its columns reversed: from
the null rows of rref(A), row-reduced a second time.
``push_image`` and ``complement`` build the images and complements in which
the tests state the paper's transport identities; the package itself never
needs them.
"""

from bisect import bisect_left
from dataclasses import dataclass

from fredpairs import DimensionError, PreconditionError, RatMatrix, Subspace, block
from fredpairs import orthogonal_complement
from fredpairs.subspaces import _null_rows


def zassenhaus_meet(u: Subspace, v: Subspace) -> Subspace:
    """U & V by Zassenhaus' elimination.

    The rows of [[U, U], [V, 0]] span pairs (u + v, u); the reduced rows
    whose left half vanishes, those pivoting in column n or later, carry
    exactly the u in U & V.  Their right halves are already reduced echelon
    rows, so they are the canonical basis with no second rref; only their
    common denominator may shrink.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionError(f"ambient mismatch: {u.ambient_dim} vs {v.ambient_dim}")
    n = u.ambient_dim
    if not u.dim or not v.dim:
        return Subspace.zero(n)
    result = block([[u.basis, u.basis], [v.basis, RatMatrix.zero(v.dim, n)]]).rref()
    first = bisect_left(result.pivot_columns, n)
    red = result.reduced
    rows = [row[n:] for row in red.num[first:]]
    return Subspace(RatMatrix._canonical(len(rows), n, rows, red.den))


def stacked_defect_numbers(a: RatMatrix, b: RatMatrix) -> tuple[int, int]:
    """(dim N(A) - meet, dim R(B) - meet) by Grassmann's formula, with
    dim(N(A) + R(B)) the rank of [null rows of A; pivot columns of B]."""
    n = a.cols
    rows = _null_rows(a.rref()) + [[row[c] for row in b.num] for c in b.rref().pivot_columns]
    meet = n - a.rank + b.rank - RatMatrix._raw(len(rows), n, rows, 1).rank
    return n - a.rank - meet, b.rank - meet


def spanned_kernel_basis(a: RatMatrix) -> Subspace:
    """N(A) as the canonical span of the null rows of rref(A): two row reductions."""
    if not a.rank:
        return Subspace.full(a.cols)
    vectors = _null_rows(a.rref())
    return Subspace.spanned_by(RatMatrix._raw(len(vectors), a.cols, vectors, 1))


def push_image(a: RatMatrix, u: Subspace) -> Subspace:
    """The image A(U) as a canonical subspace of the codomain."""
    if a.cols != u.ambient_dim:
        raise DimensionError("matrix does not act on the subspace's ambient space")
    return Subspace.spanned_by((a @ u.basis.transpose()).transpose())


@dataclass(frozen=True)
class ComplementWitness:
    within: Subspace
    part: Subspace
    complement: Subspace


def complement(part: Subspace, within: Subspace) -> ComplementWitness:
    """Orthogonal complement of ``part`` inside ``within``.

    The standard dot product is positive definite on Q^n, so the complement
    always exists and the direct-sum invariants hold exactly.
    """
    if not within.contains(part):
        raise PreconditionError("complement requires part contained in within")
    comp = within & orthogonal_complement(part)
    return ComplementWitness(within=within, part=part, complement=comp)
