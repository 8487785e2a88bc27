"""Seeded deterministic generation of pairs and chains.

The PRNG is splitmix64 (Steele/Lea/Flood constants), implemented on masked
Python integers, so streams are identical across platforms and Python
versions.  Instances are built so that the composition ranks dim R(ST),
dim R(TS) (resp. consecutive-map composition ranks) stay within a configured
budget; every constraint is re-checked by exact rank computation before an
instance is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import ChainInstance
from .errors import InvariantError, PreconditionError
from .matrices import RatMatrix
from .pairs import PairInstance, composition_ranges
from .subspaces import kernel_basis

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The splitmix64 generator; 64-bit state, 64-bit output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) by modulo; bias is irrelevant here."""
        if n <= 0:
            raise PreconditionError("below() needs a positive bound")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)

    def fraction(self, entry_bound: int) -> Fraction:
        num = self.randint(-entry_bound, entry_bound)
        den = self.randint(1, entry_bound)
        return Fraction(num, den)


def child_seed(seed: int, ordinal: int) -> int:
    """Deterministic per-instance seed for parallel-safe fuzzing."""
    return SplitMix64((seed ^ (ordinal * _GOLDEN)) & _MASK).next_u64()


@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_dim: int = 6
    rank_budget: int = 2
    entry_bound: int = 5
    complex_only: bool = False

    def __post_init__(self):
        if self.max_dim < 1:
            raise PreconditionError("max_dim must be at least 1")
        if not 0 <= self.rank_budget <= self.max_dim:
            raise PreconditionError("rank_budget must lie in [0, max_dim]")
        if self.entry_bound < 1:
            raise PreconditionError("entry_bound must be positive")

    def rng(self) -> SplitMix64:
        return SplitMix64(self.seed)


def _raw_matrix(rng: SplitMix64, entry_bound: int, rows: int, cols: int) -> RatMatrix:
    return RatMatrix(
        rows, cols, [[rng.fraction(entry_bound) for _ in range(cols)] for _ in range(rows)]
    )


def _full_rank_matrix(rng: SplitMix64, entry_bound: int, rows: int, cols: int) -> RatMatrix:
    # resample until full rank; failure probability is tiny, so this terminates
    # quickly and stays deterministic for a fixed stream
    while True:
        m = _raw_matrix(rng, entry_bound, rows, cols)
        if m.rank == min(rows, cols):
            return m


def random_matrix(cfg: GenConfig, rows: int, cols: int, rank: int, rng: SplitMix64 | None = None) -> RatMatrix:
    """A matrix of exactly the requested rank (outer product of full-rank factors)."""
    if rank < 0 or rank > min(rows, cols):
        raise PreconditionError(f"rank {rank} infeasible for a {rows}x{cols} matrix")
    rng = rng if rng is not None else cfg.rng()
    if rank == 0:
        return RatMatrix.zero(rows, cols)
    left = _full_rank_matrix(rng, cfg.entry_bound, rows, rank)
    right = _full_rank_matrix(rng, cfg.entry_bound, rank, cols)
    return left @ right


def random_pair(cfg: GenConfig, rng: SplitMix64 | None = None) -> PairInstance:
    """A pair with both composition ranks within the budget.

    Built as a complex pair (ST = 0 and TS = 0 by construction) plus, unless
    ``complex_only`` is set, a low-rank leak added to S; the leak perturbs
    both compositions by at most its own rank.  The resulting bounds are
    re-verified exactly.
    """
    rng = rng if rng is not None else cfg.rng()
    dim_x = rng.randint(0, cfg.max_dim)
    dim_y = rng.randint(0, cfg.max_dim)
    t_rank = rng.randint(0, min(dim_x, dim_y)) if min(dim_x, dim_y) else 0
    t = random_matrix(cfg, dim_x, dim_y, t_rank, rng)

    # S = E1 @ G @ E2 with R(E1) = N(T) and N(E2) containing R(T), so both
    # compositions vanish before the leak is added
    n_t = kernel_basis(t).basis  # (dim_y - t_rank) x dim_y
    left_null = kernel_basis(t.transpose()).basis  # (dim_x - t_rank) x dim_x
    g = _raw_matrix(rng, cfg.entry_bound, n_t.rows, left_null.rows)
    s = n_t.transpose() @ g @ left_null

    leak_cap = min(cfg.rank_budget, dim_x, dim_y)
    if not cfg.complex_only and leak_cap > 0 and rng.coin():
        s = s + random_matrix(cfg, dim_y, dim_x, rng.randint(1, leak_cap), rng)

    pair = PairInstance(dim_x=dim_x, dim_y=dim_y, s=s, t=t)
    st_rank, ts_rank = composition_ranges(pair)
    if max(st_rank, ts_rank) > cfg.rank_budget:
        raise InvariantError(f"pair compositions have ranks {st_rank}, {ts_rank} over the budget")
    if cfg.complex_only and (st_rank or ts_rank):
        raise InvariantError("a complex-only pair has nonzero compositions")
    return pair


def random_chain(cfg: GenConfig, length: int, rng: SplitMix64 | None = None) -> ChainInstance:
    """A chain with ``length`` maps whose consecutive composition ranks stay
    within the budget.

    The base chain is a complex (each map factors through the kernel of the
    previous one); non-adjacent maps then optionally receive a low-rank leak,
    so each composition contains at most one perturbed factor.
    """
    if length < 1:
        raise PreconditionError("a chain needs at least one map")
    rng = rng if rng is not None else cfg.rng()
    dims = [rng.randint(0, cfg.max_dim) for _ in range(length + 1)]

    maps: list[RatMatrix] = []
    for p in range(1, length + 1):
        rows, cols = dims[p - 1], dims[p]
        if p == 1:
            rank = rng.randint(0, min(rows, cols)) if min(rows, cols) else 0
            maps.append(random_matrix(cfg, rows, cols, rank, rng))
        else:
            target = kernel_basis(maps[-1]).basis  # k x rows, rows of X_{p-1}
            g = _raw_matrix(rng, cfg.entry_bound, target.rows, cols)
            maps.append(target.transpose() @ g)

    if not cfg.complex_only and cfg.rank_budget > 0:
        p = 1
        while p <= length:
            if rng.coin():
                rows, cols = dims[p - 1], dims[p]
                leak_rank = min(rng.randint(1, cfg.rank_budget), rows, cols)
                if leak_rank > 0:
                    maps[p - 1] = maps[p - 1] + random_matrix(cfg, rows, cols, leak_rank, rng)
                p += 2  # never perturb adjacent maps
            else:
                p += 1

    chain = ChainInstance(tuple(dims), tuple(maps))
    for p in range(1, length):
        comp_rank = (chain.delta(p) @ chain.delta(p + 1)).rank
        if comp_rank > cfg.rank_budget:
            raise InvariantError(f"maps {p}, {p + 1} compose to rank {comp_rank} over the budget")
        if cfg.complex_only and comp_rank:
            raise InvariantError(f"maps {p}, {p + 1} of a complex-only chain compose to nonzero")
    return chain
