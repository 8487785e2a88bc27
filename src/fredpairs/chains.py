"""Fredholm chains: per-degree defects, folding into a pair, quotient
complexes with compatible inverse families, and the chain-level verifiers.

A chain is a finite sequence of spaces X_0..X_n with maps d_p: X_p -> X_{p-1}
for p = 1..n; maps outside that range are zero into/out of zero spaces.
Consecutive compositions need not vanish (chains are more general than
complexes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionError, InputError, InvariantError
from .matrices import RatMatrix, block
from .pairs import PairInstance, TheoremReport, fredholm_data
from .subspaces import QuotientStructure, image_basis, induced_map, kernel_basis, quotient


@dataclass(frozen=True)
class ChainInstance:
    dims: tuple[int, ...]  # dimensions of X_0..X_n
    maps: tuple[RatMatrix, ...]  # maps[p-1] is d_p: X_p -> X_{p-1}

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) != len(self.dims) - 1:
            raise DimensionError("a chain on X_0..X_n needs exactly n maps")
        if any(d < 0 for d in self.dims):
            raise DimensionError("dimensions must be nonnegative")
        for p, m in enumerate(self.maps, start=1):
            if m.shape != (self.dims[p - 1], self.dims[p]):
                raise DimensionError(
                    f"map {p} must be {self.dims[p - 1]}x{self.dims[p]}, got {m.shape}"
                )

    # Derived objects, kept on the instance as on PairInstance.

    @cached_property
    def defects(self) -> "ChainDefects":
        return chain_defects(self)

    @cached_property
    def quotient(self) -> "QuotientChain":
        return quotient_chain(self)

    @cached_property
    def folded(self) -> PairInstance:
        """The folded pair; the pair verifiers run on it share its own objects."""
        return fold_to_pair(self)

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def delta(self, p: int) -> RatMatrix:
        """d_p with the zero-extension convention outside 1..n."""
        return _degree_map(self.maps, self.dims, p)

    def is_complex(self) -> bool:
        return all(
            (self.delta(p) @ self.delta(p + 1)).is_zero() for p in range(1, self.top_degree)
        )

    def to_json_obj(self) -> dict:
        return {"dims": list(self.dims), "maps": [m.to_json_obj() for m in self.maps]}

    @classmethod
    def from_json_obj(cls, obj) -> "ChainInstance":
        if not isinstance(obj, dict):
            raise InputError("chain JSON must be an object")
        try:
            dims, maps = obj["dims"], obj["maps"]
        except KeyError as exc:
            raise InputError(f"chain JSON is missing key {exc}") from None
        if (
            not isinstance(dims, list)
            or not dims
            or any(type(d) is not int or d < 0 for d in dims)  # rejects JSON true, a bool
        ):
            raise InputError("dims must be a nonempty list of nonnegative integers")
        if not isinstance(maps, list) or len(maps) != len(dims) - 1:
            raise InputError("maps must list exactly one matrix per consecutive degree")
        parsed = [
            RatMatrix.from_json_obj(m, rows=dims[p - 1], cols=dims[p])
            for p, m in enumerate(maps, start=1)
        ]
        return cls(tuple(dims), tuple(parsed))


def _degree_map(maps, dims, p: int, upward: bool = False) -> RatMatrix:
    """maps[p-1], one of a family of maps between degrees p and p-1, p = 1..n.

    ``dims`` are the dimensions of degrees 0..n.  Outside 1..n the map is zero,
    and a degree outside 0..n is the zero space.  A downward map goes from
    degree p to p-1, an upward one from p-1 to p.
    """
    if 1 <= p <= len(maps):
        return maps[p - 1]
    n = len(dims) - 1
    below = dims[p - 1] if 0 <= p - 1 <= n else 0
    here = dims[p] if 0 <= p <= n else 0
    return RatMatrix.zero(here, below) if upward else RatMatrix.zero(below, here)


@dataclass(frozen=True)
class ChainDefects:
    a: tuple[int, ...]  # dim N(d_p)/(N(d_p) & R(d_{p+1})), p = 0..n
    b: tuple[int, ...]  # dim R(d_{p+1})/(N(d_p) & R(d_{p+1}))
    d: tuple[int, ...]  # a_p - b_p
    index: int

    def to_json_obj(self) -> dict:
        return {"a": list(self.a), "b": list(self.b), "d": list(self.d), "index": self.index}


@dataclass(frozen=True)
class QuotientChain:
    """Per-degree quotients X_p / R(d_{p+1} d_{p+2}) with induced maps.

    The induced maps always form a complex, and the per-degree pseudoinverses
    form a complex of normalized generalized inverses; ``extended_inverses``
    are their zero extensions back to the original spaces.
    """

    quotients: tuple[QuotientStructure, ...]  # degree 0..n
    maps_tilde: tuple[RatMatrix, ...]  # induced d~_p, p = 1..n
    inverses_tilde: tuple[RatMatrix, ...]  # d~'_p, p = 1..n
    extended_inverses: tuple[RatMatrix, ...]  # d'_p: X_{p-1} -> X_p, p = 1..n


def chain_defects(c: ChainInstance) -> ChainDefects:
    """Per-degree defect numbers and the alternating-sum index."""
    a, b, d = [], [], []
    for p in range(c.top_degree + 1):
        n_p = kernel_basis(c.delta(p))
        r_next = image_basis(c.delta(p + 1))
        meet = n_p & r_next
        a.append(n_p.dim - meet.dim)
        b.append(r_next.dim - meet.dim)
        d.append(a[-1] - b[-1])
    index = sum(dp if p % 2 == 0 else -dp for p, dp in enumerate(d))
    return ChainDefects(a=tuple(a), b=tuple(b), d=tuple(d), index=index)


def _even_degrees(c: ChainInstance) -> list[int]:
    return [p for p in range(c.top_degree + 1) if p % 2 == 0]


def _odd_degrees(c: ChainInstance) -> list[int]:
    return [p for p in range(c.top_degree + 1) if p % 2 == 1]


def _fold_map(c: ChainInstance, source: list[int], target: list[int], blocks) -> RatMatrix:
    """Assemble a block matrix from target x source degree blocks.

    ``blocks(row_p, col_p)`` returns the block or None for zero.  Degrees are
    laid out in ascending order, which makes folding bit-exact.
    """
    if not target or not source:
        return RatMatrix.zero(sum(c.dims[q] for q in target), sum(c.dims[p] for p in source))
    grid = []
    for q in target:
        row = []
        for p in source:
            m = blocks(q, p)
            row.append(m if m is not None else RatMatrix.zero(c.dims[q], c.dims[p]))
        grid.append(row)
    return block(grid)


def fold_to_pair(c: ChainInstance) -> PairInstance:
    """Pack even degrees into X, odd degrees into Y, with S and T the
    degree-lowering maps between them (ascending block order)."""
    even, odd = _even_degrees(c), _odd_degrees(c)
    s = _fold_map(c, even, odd, lambda q, p: c.delta(p) if p == q + 1 else None)
    t = _fold_map(c, odd, even, lambda q, p: c.delta(p) if p == q + 1 else None)
    return PairInstance(dim_x=s.cols, dim_y=s.rows, s=s, t=t)


def verify_remark_2_3(c: ChainInstance) -> TheoremReport:
    """Chain index equals the folded pair index; the per-degree composition
    defects sum to dim R(ST) + dim R(TS) of the folded pair."""
    defects, p_defects = c.defects, c.folded.defects
    euler = sum(d if p % 2 == 0 else -d for p, d in enumerate(c.dims))
    checks = {
        "index_matches_pair": defects.index == p_defects.index,
        "index_matches_euler": defects.index == euler,
        "composition_defects_match": sum(defects.b)
        == p_defects.dim_range_st + p_defects.dim_range_ts,
    }
    return TheoremReport(
        name="remark_2_3",
        passed=all(checks.values()),
        details={
            "chain_index": defects.index,
            "pair_index": p_defects.index,
            "euler_characteristic": euler,
            "sum_b": sum(defects.b),
            "dim_range_st": p_defects.dim_range_st,
            "dim_range_ts": p_defects.dim_range_ts,
            **checks,
        },
    )


def quotient_chain(c: ChainInstance) -> QuotientChain:
    """Quotient each X_p by R(d_{p+1} d_{p+2}) and factor the maps through.

    The induced family is a complex; its per-degree pseudoinverses compose to
    zero as well and are normalized generalized inverses.  Both complexes are
    checked; a failure raises ``InvariantError``.  The extended inverse
    d'_p = section_p @ d~'_p @ projection_{p-1} vanishes on R(d_p d_{p+1}).
    """
    n = c.top_degree
    quotients = tuple(
        quotient(c.dims[p], image_basis(c.delta(p + 1) @ c.delta(p + 2))) for p in range(n + 1)
    )
    maps_tilde = tuple(
        induced_map(c.delta(p), quotients[p], quotients[p - 1]) for p in range(1, n + 1)
    )
    inverses_tilde = tuple(m.pseudoinverse() for m in maps_tilde)
    for i in range(len(maps_tilde) - 1):
        if not (maps_tilde[i] @ maps_tilde[i + 1]).is_zero():
            raise InvariantError(f"induced maps {i + 1} and {i + 2} do not compose to zero")
        if not (inverses_tilde[i + 1] @ inverses_tilde[i]).is_zero():
            raise InvariantError(f"inverses {i + 2} and {i + 1} do not compose to zero")
    extended = tuple(
        quotients[p].section @ inverses_tilde[p - 1] @ quotients[p - 1].projection
        for p in range(1, n + 1)
    )
    return QuotientChain(
        quotients=quotients,
        maps_tilde=maps_tilde,
        inverses_tilde=inverses_tilde,
        extended_inverses=extended,
    )


def _delta_prime(c: ChainInstance, qc: QuotientChain, p: int) -> RatMatrix:
    """d'_p: X_{p-1} -> X_p with the zero convention outside 1..n."""
    return _degree_map(qc.extended_inverses, c.dims, p, upward=True)


def _parity_operator(c: ChainInstance, qc: QuotientChain, source: list[int], target: list[int]) -> RatMatrix:
    """The block operator with column p carrying d_p down and d'_{p+1} up."""

    def blocks(q, p):
        if p == q + 1:
            return c.delta(p)
        if p == q - 1:
            return _delta_prime(c, qc, q)
        return None

    return _fold_map(c, source, target, blocks)


def verify_theorem_4_2(c: ChainInstance) -> TheoremReport:
    """index of the even-to-odd operator (+)(d_p + d'_{p+1}) equals the chain
    index and the negative of its odd-to-even sibling; both coincide exactly
    with S + T' and T + S' of the folded pair under default extensions."""
    defects, qc = c.defects, c.quotient
    even, odd = _even_degrees(c), _odd_degrees(c)
    e = _parity_operator(c, qc, even, odd)
    o = _parity_operator(c, qc, odd, even)
    _, _, index_e = fredholm_data(e)
    _, _, index_o = fredholm_data(o)

    bundle = c.folded.extensions
    checks = {
        "index_even": index_e == defects.index,
        "index_odd": index_o == -defects.index,
        "even_matches_folded": e == bundle.s_plus,
        "odd_matches_folded": o == bundle.t_plus,
    }
    return TheoremReport(
        name="theorem_4_2",
        passed=all(checks.values()),
        details={
            "chain_index": defects.index,
            "index_even_operator": index_e,
            "index_odd_operator": index_o,
            **checks,
        },
    )


def verify_theorem_4_4(c: ChainInstance) -> TheoremReport:
    """Per-degree Laplacians d_{p+1} d'_{p+1} + d'_p d_p.

    At quotient level the Laplacian has nullity a_p and index 0; the original
    Laplacian differs from the lift of the quotient one by a matrix of rank at
    most dim R(d_{p+1} d_{p+2}) + dim R(d_p d_{p+1})."""
    defects, qc = c.defects, c.quotient
    q_dims = [q.quotient_dim for q in qc.quotients]

    def tilde_delta(p):
        return _degree_map(qc.maps_tilde, q_dims, p)

    def tilde_prime(p):
        return _degree_map(qc.inverses_tilde, q_dims, p, upward=True)

    checks = {}
    degree_details = []
    for p in range(c.top_degree + 1):
        lap = c.delta(p + 1) @ _delta_prime(c, qc, p + 1) + _delta_prime(c, qc, p) @ c.delta(p)
        lap_tilde = tilde_delta(p + 1) @ tilde_prime(p + 1) + tilde_prime(p) @ tilde_delta(p)
        nullity, corank, index = fredholm_data(lap)
        nullity_t, _, index_t = fredholm_data(lap_tilde)
        q = qc.quotients[p]
        lift = q.section @ lap_tilde @ q.projection
        rank_pert = (lap - lift).rank
        killed_here = q.killed.dim
        # R(d_p d_{p+1}) is what the quotient of degree p-1 killed
        killed_below = qc.quotients[p - 1].killed.dim if p else 0
        checks[f"nullity_matches_a_{p}"] = nullity_t == defects.a[p]
        checks[f"zero_index_{p}"] = index_t == 0
        checks[f"perturbation_rank_{p}"] = rank_pert <= killed_here + killed_below
        degree_details.append(
            {
                "degree": p,
                "nullity": nullity,
                "corank": corank,
                "index": index,
                "nullity_tilde": nullity_t,
                "a_p": defects.a[p],
                "rank_perturbation": rank_pert,
                "rank_bound": killed_here + killed_below,
            }
        )
    return TheoremReport(
        name="theorem_4_4",
        passed=all(checks.values()),
        details={"degrees": degree_details, **checks},
    )
