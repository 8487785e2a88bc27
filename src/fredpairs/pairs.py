"""Fredholm pairs: defect numbers, induced quotient pairs, zero-extended
generalized inverses, and exact verifiers for the pair-level index identities.

A pair is (S, T) with S: X -> Y and T: Y -> X on finite-dimensional rational
coordinate spaces.  All verifier outcomes are exact integer identities; a
failed report signals an implementation bug, not a numerical issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DimensionError, InputError, InvariantError, PreconditionError
from .matrices import RatMatrix, block, direct_sum
from .subspaces import (
    ComplementWitness,
    QuotientStructure,
    Subspace,
    complement,
    image_basis,
    induced_map,
    kernel_basis,
    quotient,
)


@dataclass(frozen=True)
class PairInstance:
    dim_x: int
    dim_y: int
    s: RatMatrix  # dim_y x dim_x
    t: RatMatrix  # dim_x x dim_y

    def __post_init__(self):
        if self.s.shape != (self.dim_y, self.dim_x):
            raise DimensionError(f"S must be {self.dim_y}x{self.dim_x}, got {self.s.shape}")
        if self.t.shape != (self.dim_x, self.dim_y):
            raise DimensionError(f"T must be {self.dim_x}x{self.dim_y}, got {self.t.shape}")

    # The derived objects are computed on first use and kept on the instance,
    # so every verifier run on it shares them.  They live in the instance's
    # __dict__, which the dataclass's equality, hash and repr never read.

    @cached_property
    def range_st(self) -> Subspace:
        """R(ST), a subspace of Y."""
        return image_basis(self.s @ self.t)

    @cached_property
    def range_ts(self) -> Subspace:
        """R(TS), a subspace of X."""
        return image_basis(self.t @ self.s)

    @cached_property
    def defects(self) -> "PairDefects":
        return pair_defects(self)

    @cached_property
    def induced(self) -> "InducedPair":
        return induced_pair(self)

    @cached_property
    def extensions(self) -> "InverseBundle":
        """The default (pseudoinverse) extensions."""
        return build_extensions(self)

    def to_json_obj(self) -> dict:
        return {
            "dim_x": self.dim_x,
            "dim_y": self.dim_y,
            "s": self.s.to_json_obj(),
            "t": self.t.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PairInstance":
        if not isinstance(obj, dict):
            raise InputError("pair JSON must be an object")
        try:
            dim_x, dim_y = obj["dim_x"], obj["dim_y"]
            s_obj, t_obj = obj["s"], obj["t"]
        except KeyError as exc:
            raise InputError(f"pair JSON is missing key {exc}") from None
        # bool is a subclass of int, but a JSON true is not a dimension
        if any(type(d) is not int or d < 0 for d in (dim_x, dim_y)):
            raise InputError("dim_x and dim_y must be nonnegative integers")
        s = RatMatrix.from_json_obj(s_obj, rows=dim_y, cols=dim_x)
        t = RatMatrix.from_json_obj(t_obj, rows=dim_x, cols=dim_y)
        return cls(dim_x, dim_y, s, t)


@dataclass(frozen=True)
class PairDefects:
    a: int
    b: int
    c: int
    d: int
    index: int
    dim_range_st: int
    dim_range_ts: int

    def to_json_obj(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "index": self.index,
            "dim_range_st": self.dim_range_st,
            "dim_range_ts": self.dim_range_ts,
        }


@dataclass(frozen=True)
class InducedPair:
    """The pair induced on X/R(TS) and Y/R(ST); always a two-term complex."""

    q_x: QuotientStructure
    q_y: QuotientStructure
    s_tilde: RatMatrix
    t_tilde: RatMatrix


@dataclass(frozen=True)
class InverseBundle:
    """Generalized inverses of the induced pair plus their zero extensions.

    s_prime / t_prime act on the original spaces and vanish on R(TS) and
    R(ST) respectively; s_plus / t_plus are the operators S + T' and T + S'
    that the verifiers test.  ``normalized`` and ``chain_compatible`` record
    which extra identities the quotient-level inverses satisfy.
    """

    s_tilde_prime: RatMatrix
    t_tilde_prime: RatMatrix
    s_prime: RatMatrix  # dim_x x dim_y
    t_prime: RatMatrix  # dim_y x dim_x
    s_plus: RatMatrix  # S + T', dim_y x dim_x
    t_plus: RatMatrix  # T + S', dim_x x dim_y
    normalized: bool
    chain_compatible: bool


@dataclass(frozen=True)
class TheoremReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        encoded = {}
        for key, value in self.details.items():
            if isinstance(value, RatMatrix):
                encoded[key] = value.to_json_obj()
            elif isinstance(value, (list, tuple)):
                encoded[key] = list(value)
            else:
                encoded[key] = value
        return {"name": self.name, "passed": self.passed, "details": encoded}


# -- defect numbers ---------------------------------------------------


def pair_defects(p: PairInstance) -> PairDefects:
    """The four defect numbers and the index a - b - c + d."""
    n_s, r_t = kernel_basis(p.s), image_basis(p.t)
    n_t, r_s = kernel_basis(p.t), image_basis(p.s)
    meet_x, meet_y = n_s & r_t, n_t & r_s
    a, b = n_s.dim - meet_x.dim, r_t.dim - meet_x.dim
    c, d = n_t.dim - meet_y.dim, r_s.dim - meet_y.dim
    dim_st, dim_ts = composition_ranges(p)
    return PairDefects(
        a=a,
        b=b,
        c=c,
        d=d,
        index=a - b - c + d,
        dim_range_st=dim_st,
        dim_range_ts=dim_ts,
    )


def composition_ranges(p: PairInstance) -> tuple[int, int]:
    """(dim R(ST), dim R(TS)); ST acts on Y, TS on X."""
    return p.range_st.dim, p.range_ts.dim


def fredholm_data(a: RatMatrix) -> tuple[int, int, int]:
    """(nullity, corank, index) of a single matrix; index = cols - rows."""
    nullity = a.cols - a.rank
    corank = a.rows - a.rank
    return nullity, corank, nullity - corank


# -- quotient pair and inverses ---------------------------------------


def induced_pair(p: PairInstance) -> InducedPair:
    """Quotient X by R(TS) and Y by R(ST) and factor S, T through.

    The induced maps always compose to zero in both orders, and the kernel of
    S~ is the projected image of N(S) + R(T).  That the induced maps compose
    to zero is checked; a failure raises ``InvariantError``.
    """
    q_x = quotient(p.dim_x, p.range_ts)
    q_y = quotient(p.dim_y, p.range_st)
    s_tilde = induced_map(p.s, q_x, q_y)
    t_tilde = induced_map(p.t, q_y, q_x)
    if not ((s_tilde @ t_tilde).is_zero() and (t_tilde @ s_tilde).is_zero()):
        raise InvariantError("the induced pair is not a complex")
    return InducedPair(q_x=q_x, q_y=q_y, s_tilde=s_tilde, t_tilde=t_tilde)


def regularity_witness(
    a: RatMatrix,
) -> tuple[ComplementWitness, ComplementWitness, RatMatrix]:
    """Orthogonal complements of N(A) and R(A) plus the inverse they induce.

    The generalized inverse determined by the two orthogonal complements is
    the pseudoinverse: gi @ A projects onto the kernel complement along N(A),
    A @ gi projects onto R(A) along its complement.  ``InvariantError`` is
    raised if gi fails the Penrose identity A gi A = A.
    """
    kernel_comp = complement(kernel_basis(a), Subspace.full(a.cols))
    range_comp = complement(image_basis(a), Subspace.full(a.rows))
    gi = a.pseudoinverse()
    if a @ gi @ a != a:
        raise InvariantError("the pseudoinverse fails A @ gi @ A == A")
    return kernel_comp, range_comp, gi


def _is_generalized_inverse(a: RatMatrix, b: RatMatrix) -> bool:
    return a @ b @ a == a


def build_extensions(
    p: PairInstance,
    s_tilde_prime: RatMatrix | None = None,
    t_tilde_prime: RatMatrix | None = None,
) -> InverseBundle:
    """Build zero-extended generalized inverses S', T' for the pair.

    Default mode takes pseudoinverses of the induced maps, which are
    normalized and compose to zero (the induced pair is a complex, so the
    pseudoinverse family is one too).  Supplying custom quotient-level
    inverses exercises the "any extensions" variant; they must actually be
    generalized inverses of S~ and T~.
    """
    ind = p.induced
    if (s_tilde_prime is None) != (t_tilde_prime is None):
        raise PreconditionError("supply both custom inverses or neither")
    if s_tilde_prime is None:
        s_tilde_prime = ind.s_tilde.pseudoinverse()
        t_tilde_prime = ind.t_tilde.pseudoinverse()
    else:
        if not _is_generalized_inverse(ind.s_tilde, s_tilde_prime):
            raise PreconditionError("custom s_tilde_prime is not a generalized inverse")
        if not _is_generalized_inverse(ind.t_tilde, t_tilde_prime):
            raise PreconditionError("custom t_tilde_prime is not a generalized inverse")
    normalized = (
        _is_generalized_inverse(s_tilde_prime, ind.s_tilde)
        and _is_generalized_inverse(t_tilde_prime, ind.t_tilde)
    )
    chain_compatible = (s_tilde_prime @ t_tilde_prime).is_zero() and (
        t_tilde_prime @ s_tilde_prime
    ).is_zero()
    s_prime = ind.q_x.section @ s_tilde_prime @ ind.q_y.projection
    t_prime = ind.q_y.section @ t_tilde_prime @ ind.q_x.projection
    return InverseBundle(
        s_tilde_prime=s_tilde_prime,
        t_tilde_prime=t_tilde_prime,
        s_prime=s_prime,
        t_prime=t_prime,
        s_plus=p.s + t_prime,
        t_plus=p.t + s_prime,
        normalized=normalized,
        chain_compatible=chain_compatible,
    )


def build_v(p: PairInstance, b: InverseBundle) -> RatMatrix:
    """The swap operator on X (+) Y: (x, y) |-> ((T + S')y, (S + T')x)."""
    return block(
        [
            [RatMatrix.zero(p.dim_x, p.dim_x), b.t_plus],
            [b.s_plus, RatMatrix.zero(p.dim_y, p.dim_y)],
        ]
    )


# -- theorem verifiers ------------------------------------------------


def verify_theorem_3_4(p: PairInstance) -> TheoremReport:
    """Exact index identities relating the pair index to S + T' and T + S'.

    Checks, with the default (pseudoinverse) extensions:
      1. ind(S, T) = index(S + T')
      2. ind(S, T) = -index(T + S')
      3. ind(S, T) - dim R(TS) + dim R(ST) = ind(S~, T~)
      4. index(S + T') = index(S1 + T') where S1 lifts S~ and vanishes on
         R(TS); rank(S - S1) <= dim R(ST) + dim R(TS)
    """
    defects, ind, bundle = p.defects, p.induced, p.extensions
    _, _, index_s_plus = fredholm_data(bundle.s_plus)
    _, _, index_t_plus = fredholm_data(bundle.t_plus)

    tilde_pair = PairInstance(
        ind.q_x.quotient_dim, ind.q_y.quotient_dim, ind.s_tilde, ind.t_tilde
    )
    tilde_index = pair_defects(tilde_pair).index

    s_one = ind.q_y.section @ ind.s_tilde @ ind.q_x.projection
    _, _, index_s_one_plus = fredholm_data(s_one + bundle.t_prime)
    rank_diff = (p.s - s_one).rank
    rank_bound = defects.dim_range_st + defects.dim_range_ts

    checks = {
        "index_eq_s_plus": defects.index == index_s_plus,
        "index_eq_neg_t_plus": defects.index == -index_t_plus,
        "intermediate_identity": defects.index
        - defects.dim_range_ts
        + defects.dim_range_st
        == tilde_index,
        "s_one_same_index": index_s_plus == index_s_one_plus,
        "finite_rank_difference": rank_diff <= rank_bound,
    }
    return TheoremReport(
        name="theorem_3_4",
        passed=all(checks.values()),
        details={
            "index": defects.index,
            "index_s_plus_t_prime": index_s_plus,
            "index_t_plus_s_prime": index_t_plus,
            "index_tilde_pair": tilde_index,
            "index_s_one_plus_t_prime": index_s_one_plus,
            "rank_s_minus_s_one": rank_diff,
            "dim_range_st": defects.dim_range_st,
            "dim_range_ts": defects.dim_range_ts,
            **checks,
        },
    )


def verify_theorem_3_6(p: PairInstance, b: InverseBundle | None = None) -> TheoremReport:
    """Laplacian-type operators built from the pair and its inverse bundle.

    V^2 must be block diagonal with blocks (T+S')(S+T') and (S+T')(T+S').
    The corrector F = V^2 - diag(S'S + TT', T'T + SS') is recorded; its rank
    bound and the quotient-level kernel identities (nullity of the two
    quotient Laplacians equal to a and c) are asserted only for
    chain-compatible bundles, and merely reported otherwise.
    """
    defects, ind = p.defects, p.induced
    if b is None:
        b = p.extensions
    v = build_v(p, b)
    v2 = v @ v
    dx, dy = p.dim_x, p.dim_y
    top, bottom, den = v2.num[:dx], v2.num[dx:], v2.den
    xx_block = RatMatrix._canonical(dx, dx, [row[:dx] for row in top], den)
    xy_block = RatMatrix._canonical(dx, dy, [row[dx:] for row in top], den)
    yx_block = RatMatrix._canonical(dy, dx, [row[:dx] for row in bottom], den)
    yy_block = RatMatrix._canonical(dy, dy, [row[dx:] for row in bottom], den)
    block_diagonal = (
        xy_block.is_zero()
        and yx_block.is_zero()
        and xx_block == b.t_plus @ b.s_plus
        and yy_block == b.s_plus @ b.t_plus
    )

    lap_x = b.s_prime @ p.s + p.t @ b.t_prime
    lap_y = b.t_prime @ p.t + p.s @ b.s_prime
    f = v2 - direct_sum(lap_x, lap_y)
    rank_bound = defects.dim_range_st + defects.dim_range_ts

    lap_x_tilde = b.s_tilde_prime @ ind.s_tilde + ind.t_tilde @ b.t_tilde_prime
    lap_y_tilde = b.t_tilde_prime @ ind.t_tilde + ind.s_tilde @ b.s_tilde_prime
    nullity_x, _, _ = fredholm_data(lap_x_tilde)
    nullity_y, _, _ = fredholm_data(lap_y_tilde)

    checks = {"block_diagonal": block_diagonal}
    if b.chain_compatible:
        checks["corrector_rank_bound"] = f.rank <= rank_bound
        checks["hodge_nullity_a"] = nullity_x == defects.a
        checks["hodge_nullity_c"] = nullity_y == defects.c
    return TheoremReport(
        name="theorem_3_6",
        passed=all(checks.values()),
        details={
            "rank_corrector": f.rank,
            "rank_bound": rank_bound,
            "nullity_lap_x_tilde": nullity_x,
            "nullity_lap_y_tilde": nullity_y,
            "a": defects.a,
            "c": defects.c,
            "chain_compatible": b.chain_compatible,
            "corrector": f,
            **checks,
        },
    )
