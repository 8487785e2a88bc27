"""Fredholm chains: per-degree defects, folding into a pair, quotient
complexes with compatible inverse families, and the chain-level verifiers.

A chain is a finite sequence of spaces X_0..X_n with maps d_p: X_p -> X_{p-1}
for p = 1..n.  Consecutive compositions need not vanish (chains are more
general than complexes).  Every family of maps between neighbouring degrees
is padded once, by ``_down`` or ``_up``, to the members 0..n+1, with a zero
map out of or into the zero space at either end.  The composition ranges
R(d_{p+1} d_{p+2}) are those of the padded d_0..d_{n+1}, one for every
degree p = 0..n and zero at the two top degrees, and the quotient chain
kills exactly them.

The folded pair (remark 2.3) puts the even degrees into X and the odd ones
into Y in ascending order.  In that layout a map between the two parities is
block diagonal in a padded family, so ``_fold`` takes the direct sums of its
even- and odd-indexed members: S and T, S~ and T~, and the generalized
inverses that theorem 4.2 adds to S and T.  The folded quotients, induced
maps and pseudoinverses are direct sums of the chain's per-degree ones (for
the pseudoinverses by Penrose's uniqueness theorem, (+)A_p^+ = ((+)A_p)^+),
so the folded pair takes them from the chain and folds no range.  Only its
defects, with its composition ranks b and d among them, are derived from the
folded matrices: remark 2.3 compares them with the chain's.  Its inverse
extensions are lifted through the folded quotients, and theorem 4.2
compares them with the folds of the per-degree lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DimensionError, InputError, InvariantError, PreconditionError
from .matrices import RatMatrix, direct_sum
from .pairs import (
    InducedPair,
    MAX_TOTAL_DIM,
    PairInstance,
    TheoremReport,
    _is_dimension,
    check_pseudoinverses,
    fredholm_data,
    laplacians,
)
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


class _shared_cached_property(cached_property):
    """A ``cached_property`` kept in the instance's ``_shared`` dict, which
    the copies of ``ChainInstance._sharing_copy`` share with the original."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        shared = instance._shared
        if self.attrname not in shared:
            shared[self.attrname] = self.func(instance)
        return shared[self.attrname]


@dataclass(frozen=True)
class ChainInstance:
    dims: tuple[int, ...]  # dimensions of X_0..X_n
    maps: tuple[RatMatrix, ...]  # maps[p-1] is d_p: X_p -> X_{p-1}
    # The per-degree objects the folded pair reads; see ``_sharing_copy``.
    _shared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) != len(self.dims) - 1:
            raise DimensionError("a chain on X_0..X_n needs exactly n maps")
        if not all(map(_is_dimension, self.dims)):
            raise DimensionError("dimensions must be nonnegative integers")
        for p, m in enumerate(self.maps, start=1):
            if m.shape != (self.dims[p - 1], self.dims[p]):
                raise DimensionError(
                    f"map {p} must be {self.dims[p - 1]}x{self.dims[p]}, got {m.shape}"
                )

    # Derived objects, kept on the instance as on PairInstance.

    @cached_property
    def defects(self) -> "ChainDefects":
        return chain_defects(self)

    @_shared_cached_property
    def composition_ranges(self) -> tuple[Subspace, ...]:
        """R(d_{p+1} d_{p+2}) in X_p for every degree p = 0..n, from the padded
        d_0..d_{n+1}: what the quotient chain kills.  At the two top degrees a
        factor is a map out of the zero space, so no product is formed."""
        ranges = tuple(image_basis(a @ b) for a, b in zip(self.maps, self.maps[1:]))
        return ranges + tuple(Subspace.zero(d) for d in self.dims[len(ranges) :])

    @_shared_cached_property
    def quotient(self) -> "QuotientChain":
        return quotient_chain(self)

    @cached_property
    def folded(self) -> "FoldedPair":
        """The folded pair.  The pair verifiers run on it share its own
        objects, and it reads its quotients, induced maps and their
        pseudoinverses from this chain (see ``FoldedPair``)."""
        return fold_to_pair(self)

    def _sharing_copy(self) -> "ChainInstance":
        """An equal chain that shares this one's composition ranges and
        quotient chain, computed or not, and nothing else.  A folded pair
        holds such a copy, so that a chain that keeps its folded pair is
        not part of a reference cycle, which only the cyclic garbage
        collector would free."""
        twin = ChainInstance(self.dims, self.maps)
        object.__setattr__(twin, "_shared", self._shared)
        return twin

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    @property
    def euler_characteristic(self) -> int:
        """The alternating sum of the dimensions, dim X_0 - dim X_1 + ..."""
        return sum(d if p % 2 == 0 else -d for p, d in enumerate(self.dims))

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
        if not isinstance(dims, list) or not dims or not all(map(_is_dimension, dims)):
            raise InputError("dims must be a nonempty list of nonnegative integers")
        if len(dims) > MAX_TOTAL_DIM:
            raise InputError(f"a chain may have at most {MAX_TOTAL_DIM} degrees")
        if sum(dims) > MAX_TOTAL_DIM:
            raise InputError(f"the dims must total at most {MAX_TOTAL_DIM}")
        if not isinstance(maps, list) or len(maps) != len(dims) - 1:
            raise InputError("maps must list exactly one matrix per consecutive degree")
        parsed = [
            RatMatrix.from_json_obj(m, rows=dims[p - 1], cols=dims[p])
            for p, m in enumerate(maps, start=1)
        ]
        return cls(tuple(dims), tuple(parsed))


def _down(maps, dims) -> tuple[RatMatrix, ...]:
    """d_0..d_{n+1}: the maps d_p: X_p -> X_{p-1} of ``maps`` (p = 1..n) on
    degrees of dimensions ``dims``, between the zero maps out of X_0 and into
    X_n; a degree outside 0..n is the zero space."""
    return (RatMatrix.zero(0, dims[0]), *maps, RatMatrix.zero(dims[-1], 0))


def _up(maps, dims) -> tuple[RatMatrix, ...]:
    """d'_0..d'_{n+1}: the maps d'_p: X_{p-1} -> X_p of ``maps`` (p = 1..n),
    between the zero maps into X_0 and out of X_n."""
    return (RatMatrix.zero(dims[0], 0), *maps, RatMatrix.zero(0, dims[-1]))


def _fold(family) -> tuple[RatMatrix, RatMatrix]:
    """The direct sums of the even- and of the odd-indexed members of a
    padded family.

    The even-indexed members of ``_down`` have even sources, so its first
    fold maps the even degrees to the odd ones; those of ``_up`` have even
    targets, so its first fold maps the odd degrees to the even ones.  Either
    way the blocks follow the ascending order of the degrees, which is the
    layout of the folded pair.  A family indexed by the degrees 0..n, such
    as the projections or the sections of the quotients, folds the same way.
    """
    return direct_sum(*family[0::2]), direct_sum(*family[1::2])


@dataclass(frozen=True)
class ChainDefects:
    a: tuple[int, ...]  # dim N(d_p)/(N(d_p) & R(d_{p+1})), p = 0..n
    b: tuple[int, ...]  # dim R(d_{p+1})/(N(d_p) & R(d_{p+1}))
    d: tuple[int, ...]  # a_p - b_p
    index: int

    def to_json_obj(self) -> dict:
        return dict(vars(self))  # the fields in the order they are declared


@dataclass(frozen=True)
class QuotientChain:
    """Per-degree quotients X_p / R(d_{p+1} d_{p+2}) with induced maps.

    The induced maps always form a complex, and the per-degree pseudoinverses
    form a complex of normalized generalized inverses; ``extended_inverses``
    are their zero extensions back to the original spaces.  The folded pair
    takes the folds of ``inverses_tilde``, each checked here, as its S~+ and T~+.
    """

    quotients: tuple[QuotientStructure, ...]  # degree 0..n
    maps_tilde: tuple[RatMatrix, ...]  # induced d~_p, p = 1..n
    inverses_tilde: tuple[RatMatrix, ...]  # d~'_p, p = 1..n
    extended_inverses: tuple[RatMatrix, ...]  # d'_p: X_{p-1} -> X_p, p = 1..n

    def __post_init__(self):
        inv = self.inverses_tilde
        names = [f"d~'_{p}" for p in range(1, len(inv) + 1)]
        check_pseudoinverses("induced chain", self.maps_tilde, inv, zip(inv[1:], inv), names)


def chain_defects(c: ChainInstance) -> ChainDefects:
    """Per-degree defect numbers and the alternating-sum index.

    (a_p, b_p) = ``defect_numbers(d_p, d_{p+1})``: the meet of N(d_p) and
    R(d_{p+1}) is counted by Grassmann's formula from ranks alone, so no
    subspace of X_p is built.  Nothing here reads the composition ranges.
    """
    down = _down(c.maps, c.dims)
    a, b, d = [], [], []
    for p in range(c.top_degree + 1):
        a_p, b_p = defect_numbers(down[p], down[p + 1])
        a.append(a_p)
        b.append(b_p)
        d.append(a_p - b_p)
    index = sum(dp if p % 2 == 0 else -dp for p, dp in enumerate(d))
    return ChainDefects(a=tuple(a), b=tuple(b), d=tuple(d), index=index)


@dataclass(frozen=True)
class FoldedPair(PairInstance):
    """The pair a chain folds into, which takes its quotients, induced maps
    and their pseudoinverses from the chain.

    S and T are the folds of the padded d_0..d_{n+1}, so T S maps X_{p+2}
    into X_p for even p and S T does so for odd p: R(TS) and R(ST) are the
    folds of the chain's composition ranges R(d_{p+1} d_{p+2}), p = 0..n,
    zero at the two top degrees.  rref and the orthogonal complement of a
    block-diagonal basis are block diagonal, so the projections and sections
    of X/R(TS) and Y/R(ST) are the folds of the chain's per-degree ones (a
    fold of identity quotients is the identity quotient), and S~, T~ the
    fold of its padded induced maps d~_0..d~_{n+1}.  The pseudoinverse of a
    direct sum is the direct sum of the pseudoinverses, so S~+ and T~+ are
    the folds of the padded d~'_0..d~'_{n+1}.  All of them are canonical, so
    each equals what the pair would derive from the folded matrices; where
    nothing is killed every d~_p is d_p, so S~, T~ equal S, T.  The induced
    pair's own checks are direct sums of the chain's: the commuting square
    of each d~_p, d~_p d~_{p+1} = 0 and the Penrose identities of each
    d~'_p.

    ``chain`` is a copy of the chain that shares its per-degree objects
    (``ChainInstance._sharing_copy``).  It is not compared, hashed or shown,
    so a folded pair equals any other fold of an equal chain.
    """

    chain: ChainInstance = field(compare=False, repr=False)

    @cached_property
    def induced(self) -> InducedPair:
        """The folds of the chain's quotients, of its induced maps and of
        their pseudoinverses.  The first fold of ``_up`` maps the odd degrees
        to the even ones, so it is S~+, as in ``verify_theorem_4_2``."""
        qc = self.chain.quotient
        q_dims = [q.quotient_dim for q in qc.quotients]
        s_tilde, t_tilde = _fold(_down(qc.maps_tilde, q_dims))
        s_tilde_pinv, t_tilde_pinv = _fold(_up(qc.inverses_tilde, q_dims))
        projections = _fold([q.projection for q in qc.quotients])
        sections = _fold([q.section for q in qc.quotients])
        return InducedPair(
            q_x=QuotientStructure(projections[0], sections[0]),
            q_y=QuotientStructure(projections[1], sections[1]),
            s_tilde=s_tilde,
            t_tilde=t_tilde,
            s_tilde_pinv=s_tilde_pinv,
            t_tilde_pinv=t_tilde_pinv,
        )


def fold_to_pair(c: ChainInstance) -> FoldedPair:
    """Pack even degrees into X, odd degrees into Y, with S and T the
    degree-lowering maps between them: ``_fold(_down(c.maps, c.dims))``.

    The pair reads its quotients, induced maps and their pseudoinverses from
    ``c``, through a copy that shares them, and folds nothing else; its
    defects are derived from S and T, and its extensions lifted through its
    folded quotients."""
    s, t = _fold(_down(c.maps, c.dims))
    return FoldedPair(s.cols, s.rows, s, t, c._sharing_copy())


def verify_remark_2_3(c: ChainInstance) -> TheoremReport:
    """Chain index equals the folded pair index; the per-degree composition
    defects sum to dim R(ST) + dim R(TS) of the folded pair.  The two index
    checks are shape-determined: a_p - b_p = dim X_p - rank d_p - rank d_{p+1}
    for any ranks, so every such index is the Euler characteristic."""
    defects, p_defects = c.defects, c.folded.defects
    euler = c.euler_characteristic
    checks = {
        "index_matches_pair": defects.index == p_defects.index,
        "index_matches_euler": defects.index == euler,
        "composition_defects_match": sum(defects.b)
        == p_defects.dim_range_st + p_defects.dim_range_ts,
    }
    values = {
        "chain_index": defects.index,
        "pair_index": p_defects.index,
        "euler_characteristic": euler,
        "sum_b": sum(defects.b),
        "dim_range_st": p_defects.dim_range_st,
        "dim_range_ts": p_defects.dim_range_ts,
    }
    return TheoremReport.of("remark_2_3", values, checks)


def quotient_chain(c: ChainInstance) -> QuotientChain:
    """Quotient each X_p by R(d_{p+1} d_{p+2}) and factor the maps through.

    The induced family is a complex, checked here; a failure raises
    ``InvariantError``, and so does a failed precondition of
    ``induced_map``, since d_p maps R(d_{p+1} d_{p+2}) into R(d_p d_{p+1}).
    ``QuotientChain`` checks the pseudoinverses d~'_p.  The extended inverse
    d'_p = section_p @ d~'_p @ projection_{p-1} vanishes on R(d_p d_{p+1}).
    """
    ranges = c.composition_ranges
    quotients = tuple(map(quotient, ranges))
    try:
        maps_tilde = tuple(
            induced_map(d, q_dom, q_cod)
            for d, q_dom, q_cod in zip(c.maps, quotients[1:], quotients)
        )
    except PreconditionError as exc:
        raise InvariantError(f"the induced chain: {exc}") from exc
    for i in range(len(maps_tilde) - 1):
        if not composes_to_zero(
            maps_tilde[i], maps_tilde[i + 1], c.maps[i], c.maps[i + 1], ranges[i]
        ):
            raise InvariantError(f"induced maps {i + 1} and {i + 2} do not compose to zero")
    inverses_tilde = tuple(m.pseudoinverse() for m in maps_tilde)
    extended = tuple(
        lift(m, q_dom, q_cod) for m, q_dom, q_cod in zip(inverses_tilde, quotients, quotients[1:])
    )
    return QuotientChain(
        quotients=quotients,
        maps_tilde=maps_tilde,
        inverses_tilde=inverses_tilde,
        extended_inverses=extended,
    )


def verify_theorem_4_2(c: ChainInstance) -> TheoremReport:
    """index of the even-to-odd operator (+)(d_p + d'_{p+1}) equals the chain
    index and the negative of its odd-to-even sibling; both coincide exactly
    with S + T' and T + S' of the folded pair under default extensions.
    ``index_even`` and ``index_odd`` are shape-determined, as an m x n matrix
    has index n - m and the chain index is the Euler characteristic."""
    defects, qc, folded = c.defects, c.quotient, c.folded
    # the fold of the padded d'_0..d'_{n+1} is the chain's S' (odd to even)
    # and T' (even to odd), so e carries d_p down and d'_{p+1} up from each
    # even degree p, and o does so from each odd one
    s_prime, t_prime = _fold(_up(qc.extended_inverses, c.dims))
    e, o = folded.s + t_prime, folded.t + s_prime
    # nullity - corank = (cols - r) - (rows - r) for every rank r, so no rank can change these
    index_e, index_o = e.cols - e.rows, o.cols - o.rows

    bundle = folded.extensions
    checks = {
        "index_even": index_e == defects.index,
        "index_odd": index_o == -defects.index,
        "even_matches_folded": e == bundle.s_plus,
        "odd_matches_folded": o == bundle.t_plus,
    }
    values = {
        "chain_index": defects.index,
        "index_even_operator": index_e,
        "index_odd_operator": index_o,
    }
    return TheoremReport.of("theorem_4_2", values, checks)


def verify_theorem_4_4(c: ChainInstance) -> TheoremReport:
    """Per-degree Laplacians d_{p+1} d'_{p+1} + d'_p d_p.

    At quotient level the Laplacian has nullity a_p and index 0; the original
    Laplacian differs from the lift of the quotient one by a matrix of rank at
    most dim R(d_{p+1} d_{p+2}) + dim R(d_p d_{p+1}).  ``zero_index_p`` is
    shape-determined, since every Laplacian is square.  Both Laplacians of a
    degree come from ``laplacians``, which reuses the original one where the
    quotients changed no factor, as at every degree of a complex; it is
    still lifted and subtracted.  ``QuotientChain`` checked each d~'_p."""
    defects, qc = c.defects, c.quotient
    q_dims = [q.quotient_dim for q in qc.quotients]
    down, up = _down(c.maps, c.dims), _up(qc.extended_inverses, c.dims)
    down_t, up_t = _down(qc.maps_tilde, q_dims), _up(qc.inverses_tilde, q_dims)
    checks = {}
    degree_details = []
    for p in range(c.top_degree + 1):
        lap, lap_tilde = laplacians(
            (down[p + 1], up[p + 1], up[p], down[p]),
            (down_t[p + 1], up_t[p + 1], up_t[p], down_t[p]),
        )
        nullity, corank, index = fredholm_data(lap)
        nullity_t, _, index_t = fredholm_data(lap_tilde)
        q = qc.quotients[p]
        rank_pert = (lap - lift(lap_tilde, q, q)).rank
        killed_here = q.killed_dim
        # R(d_p d_{p+1}) is what the quotient of degree p-1 killed
        killed_below = qc.quotients[p - 1].killed_dim if p else 0
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
    return TheoremReport.of("theorem_4_4", {"degrees": degree_details}, checks)
