"""Fredholm pairs: defect numbers, induced quotient pairs, zero-extended
generalized inverses, and exact verifiers for the pair-level index identities.

A pair is (S, T) with S: X -> Y and T: Y -> X on finite-dimensional rational
coordinate spaces.  All verifier outcomes are exact integer identities; a
failed report signals an implementation bug, not a numerical issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionError, InputError, InvariantError, PreconditionError
from .matrices import MAX_TOTAL_DIM, RatMatrix, _is_dimension, block, direct_sum
from .subspaces import (
    QuotientStructure,
    Subspace,
    composes_to_zero,
    defect_numbers,
    image_basis,
    induced_map,
    lift,
    quotient,
)


@dataclass(frozen=True)
class PairInstance:
    dim_x: int
    dim_y: int
    s: RatMatrix  # dim_y x dim_x
    t: RatMatrix  # dim_x x dim_y

    def __post_init__(self):
        if not (_is_dimension(self.dim_x) and _is_dimension(self.dim_y)):
            raise DimensionError("dim_x and dim_y must be nonnegative integers")
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
        if not (_is_dimension(dim_x) and _is_dimension(dim_y)):
            raise InputError("dim_x and dim_y must be nonnegative integers")
        if dim_x + dim_y > MAX_TOTAL_DIM:
            raise InputError(f"dim_x + dim_y must be at most {MAX_TOTAL_DIM}")
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
        return dict(vars(self))  # the fields in the order they are declared


@dataclass(frozen=True)
class InducedPair:
    """The pair induced on X/R(TS) and Y/R(ST); always a two-term complex.

    ``s_tilde_pinv`` and ``t_tilde_pinv`` are the Moore-Penrose inverses of
    S~ and T~, which the default extensions take; ``induced_pair`` checks
    them, or on a folded pair ``QuotientChain`` checks each block.
    """

    q_x: QuotientStructure
    q_y: QuotientStructure
    s_tilde: RatMatrix
    t_tilde: RatMatrix
    s_tilde_pinv: RatMatrix  # dim X/R(TS) x dim Y/R(ST)
    t_tilde_pinv: RatMatrix  # dim Y/R(ST) x dim X/R(TS)


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
    details: dict

    @classmethod
    def of(cls, name: str, values: dict, checks: dict) -> "TheoremReport":
        """The report that passes when every check passes; its details are
        the values followed by the checks."""
        return cls(name, all(checks.values()), {**values, **checks})

    def to_json_obj(self) -> dict:
        encoded = {
            key: value.to_json_obj() if isinstance(value, RatMatrix) else value
            for key, value in self.details.items()
        }
        return {"name": self.name, "passed": self.passed, "details": encoded}


# -- defect numbers ---------------------------------------------------


def pair_defects(p: PairInstance) -> PairDefects:
    """The four defect numbers and the index a - b - c + d.

    (a, b) = ``defect_numbers(S, T)`` and (c, d) = ``defect_numbers(T, S)``
    count each meet by Grassmann's formula from ranks alone: those of S and
    T and of the product of the reduced rows of one with the pivot columns
    of the other, with no canonical basis of N(S), R(T), N(T) or R(S).
    S restricted to R(T) has kernel N(S) & R(T) and image R(ST), so b is
    dim R(ST), and likewise d is dim R(TS).  These are the composition ranks
    reported, so neither composition range is read and S T, T S are not formed.
    """
    a, b = defect_numbers(p.s, p.t)
    c, d = defect_numbers(p.t, p.s)
    return PairDefects(
        a=a,
        b=b,
        c=c,
        d=d,
        index=a - b - c + d,
        dim_range_st=b,
        dim_range_ts=d,
    )


def fredholm_data(a: RatMatrix) -> tuple[int, int, int]:
    """(nullity, corank, index) of a single matrix; index = cols - rows."""
    nullity = a.cols - a.rank
    corank = a.rows - a.rank
    return nullity, corank, nullity - corank


def laplacians(
    factors: tuple[RatMatrix, ...], tilde_factors: tuple[RatMatrix, ...]
) -> tuple[RatMatrix, RatMatrix]:
    """The Laplacian d d' + e' e of ``factors`` = (d, d', e', e), and that of
    the quotient-level ``tilde_factors`` = (d~, d~', e~', e~).

    When the four quotient-level factors equal the original ones, as for a
    complex, the quotients changed nothing and the quotient Laplacian is the
    original one, returned without being formed again.  Factors are compared
    by equality, so equal factors built apart, such as a chain's padded zero
    maps, count as unchanged.
    """
    d, d_prime, e_prime, e = factors
    lap = d @ d_prime + e_prime @ e
    if tilde_factors == factors:
        return lap, lap
    d, d_prime, e_prime, e = tilde_factors
    return lap, d @ d_prime + e_prime @ e


# -- quotient pair and inverses ---------------------------------------


def penrose_identities(maps, inverses, zero_products) -> tuple[bool, bool, int | None]:
    """For inverses X of ``maps`` A: whether each X A X = X, whether each X Y in
    ``zero_products`` is 0, and where A X A != A first, or None.  X A is formed once."""
    xas = [x @ a for a, x in zip(maps, inverses)]
    normalized = all(xa @ x == x for xa, x in zip(xas, inverses))
    composes = all((x @ y).is_zero() for x, y in zero_products)
    failed = next((i for i, (a, xa) in enumerate(zip(maps, xas)) if a @ xa != a), None)
    return normalized, composes, failed


def check_pseudoinverses(of: str, maps, inverses, zero_products, names) -> None:
    """Check Moore-Penrose inverses where they are taken: a failed identity is an
    ``InvariantError``, tested in order.  X = 0 fails only A X A = A."""
    normalized, composes, failed = penrose_identities(maps, inverses, zero_products)
    if not normalized:
        raise InvariantError(f"the pseudoinverses of the {of} are not normalized")
    if not composes:
        raise InvariantError(f"the pseudoinverses of the {of} do not compose to zero")
    if failed is not None:
        raise InvariantError(f"default {names[failed]} is not a generalized inverse")


def induced_pair(p: PairInstance) -> InducedPair:
    """Quotient X by R(TS) and Y by R(ST) and factor S, T through.

    The induced maps always compose to zero in both orders, and the kernel of
    S~ is the projected image of N(S) + R(T).  That the induced maps compose
    to zero is checked; a failure raises ``InvariantError``.  S maps R(TS)
    into R(ST) and T maps R(ST) into R(TS), so a failed precondition of
    ``induced_map`` here is an ``InvariantError`` too.  The pseudoinverses of
    S~ and T~ are taken and checked once the pair is known to be a complex.
    """
    q_x = quotient(p.range_ts)
    q_y = quotient(p.range_st)
    try:
        s_tilde = induced_map(p.s, q_x, q_y)
        t_tilde = induced_map(p.t, q_y, q_x)
    except PreconditionError as exc:
        raise InvariantError(f"the induced pair: {exc}") from exc
    if not (
        composes_to_zero(s_tilde, t_tilde, p.s, p.t, p.range_st)
        and composes_to_zero(t_tilde, s_tilde, p.t, p.s, p.range_ts)
    ):
        raise InvariantError("the induced pair is not a complex")
    pinvs = (s_tilde.pseudoinverse(), t_tilde.pseudoinverse())
    names = ("s_tilde_prime", "t_tilde_prime")
    check_pseudoinverses("induced pair", (s_tilde, t_tilde), pinvs, (pinvs, pinvs[::-1]), names)
    return InducedPair(q_x, q_y, s_tilde, t_tilde, *pinvs)


def build_extensions(
    p: PairInstance,
    s_tilde_prime: RatMatrix | None = None,
    t_tilde_prime: RatMatrix | None = None,
) -> InverseBundle:
    """Build zero-extended generalized inverses S', T' for the pair.

    Default mode takes the pseudoinverses the induced pair holds and checks
    nothing: they were checked where they were taken (see ``InducedPair``).
    Custom quotient-level inverses, the "any extensions" variant, must be
    generalized inverses of S~ and T~, else ``PreconditionError``; the two
    extra identities are only recorded.
    """
    ind = p.induced
    if (s_tilde_prime is None) != (t_tilde_prime is None):
        raise PreconditionError("supply both custom inverses or neither")
    if s_tilde_prime is None:
        s_tilde_prime, t_tilde_prime = ind.s_tilde_pinv, ind.t_tilde_pinv
        normalized = chain_compatible = True
    else:
        custom = (s_tilde_prime, t_tilde_prime)
        normalized, chain_compatible, bad = penrose_identities(
            (ind.s_tilde, ind.t_tilde), custom, (custom, custom[::-1])
        )
        if bad is not None:
            raise PreconditionError(f"custom {'st'[bad]}_tilde_prime is not a generalized inverse")
    s_prime = lift(s_tilde_prime, ind.q_y, ind.q_x)
    t_prime = lift(t_tilde_prime, ind.q_x, ind.q_y)
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

    An m x n matrix has index n - m, so checks 1, 2 and the first half of 4
    are shape-determined once the defects obey rank-nullity.  ind(S~, T~) is read
    from the quotient dimensions, dim X/R(TS) - dim Y/R(ST), so check 3
    compares b - d, the composition ranks that the defects count, with
    dim R(ST) - dim R(TS) of the quotients; no defect of S~, T~ is derived.
    """
    defects, ind, bundle = p.defects, p.induced, p.extensions
    # nullity - corank = (cols - r) - (rows - r) for every rank r, so no rank can change these
    index_s_plus = bundle.s_plus.cols - bundle.s_plus.rows
    index_t_plus = bundle.t_plus.cols - bundle.t_plus.rows

    # a - b - c + d = dim X - dim Y for every pair, so no rank can change this either
    tilde_index = ind.q_x.quotient_dim - ind.q_y.quotient_dim

    s_one = lift(ind.s_tilde, ind.q_x, ind.q_y)
    index_s_one_plus = s_one.cols - s_one.rows  # S1 + T' has the shape of S1
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
    values = {
        "index": defects.index,
        "index_s_plus_t_prime": index_s_plus,
        "index_t_plus_s_prime": index_t_plus,
        "index_tilde_pair": tilde_index,
        "index_s_one_plus_t_prime": index_s_one_plus,
        "rank_s_minus_s_one": rank_diff,
        "dim_range_st": defects.dim_range_st,
        "dim_range_ts": defects.dim_range_ts,
    }
    return TheoremReport.of("theorem_3_4", values, checks)


def verify_theorem_3_6(p: PairInstance, b: InverseBundle | None = None) -> TheoremReport:
    """Laplacian-type operators built from the pair and its inverse bundle.

    V^2 must be block diagonal with blocks (T+S')(S+T') and (S+T')(T+S').
    The corrector F = V^2 - diag(S'S + TT', T'T + SS') is recorded; its rank
    bound and the quotient-level kernel identities (nullity of the two
    quotient Laplacians equal to a and c) are asserted only for
    chain-compatible bundles, and merely reported otherwise.
    ``block_diagonal`` is shape-determined: [[0, A], [B, 0]]^2 = diag(AB, BA).
    Each Laplacian and its quotient-level sibling come from ``laplacians``:
    on X, T T' + S' S; on Y, S S' + T' T.
    """
    defects, ind = p.defects, p.induced
    if b is None:
        b = p.extensions
    v = build_v(p, b)
    v2 = v @ v
    block_diagonal = v2 == direct_sum(b.t_plus @ b.s_plus, b.s_plus @ b.t_plus)

    lap_x, lap_x_tilde = laplacians(
        (p.t, b.t_prime, b.s_prime, p.s),
        (ind.t_tilde, b.t_tilde_prime, b.s_tilde_prime, ind.s_tilde),
    )
    lap_y, lap_y_tilde = laplacians(
        (p.s, b.s_prime, b.t_prime, p.t),
        (ind.s_tilde, b.s_tilde_prime, b.t_tilde_prime, ind.t_tilde),
    )
    f = v2 - direct_sum(lap_x, lap_y)
    rank_bound = defects.dim_range_st + defects.dim_range_ts

    nullity_x, _, _ = fredholm_data(lap_x_tilde)
    nullity_y, _, _ = fredholm_data(lap_y_tilde)

    checks = {"block_diagonal": block_diagonal}
    if b.chain_compatible:
        checks["corrector_rank_bound"] = f.rank <= rank_bound
        checks["hodge_nullity_a"] = nullity_x == defects.a
        checks["hodge_nullity_c"] = nullity_y == defects.c
    values = {
        "rank_corrector": f.rank,
        "rank_bound": rank_bound,
        "nullity_lap_x_tilde": nullity_x,
        "nullity_lap_y_tilde": nullity_y,
        "a": defects.a,
        "c": defects.c,
        "chain_compatible": b.chain_compatible,
        "corrector": f,
    }
    return TheoremReport.of("theorem_3_6", values, checks)
