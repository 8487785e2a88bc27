"""Metamorphic relations: the defects of an instance against those of its dual.

Neither relation needs a second implementation, so both scale past the
sizes the sympy oracle reaches.

- **Pair duality.** (T^t, S^t) is a pair on the same X and Y with the same
  defects.  N(T^t) = R(T)^o and R(S^t) = N(S)^o, so its a is
  dim(N(S) + R(T)) - rank T, which is a; the other three follow alike, and
  T^t S^t = (ST)^t keeps the composition-range dimensions.
- **Chain duality.** Reversing the degrees and transposing every map gives a
  chain whose a_p and b_p are those of degree n - p.

Each relation compares two runs of the same code, so a fault that keeps the
relation (one that is symmetric under duality) passes it; the verifiers'
own checks and ``tests/test_mutations.py`` cover those.  ``meet_one_short``
is not symmetric, and the relations flag it.
"""

from dataclasses import replace

from fredpairs import ChainInstance, PairInstance
from fredpairs.cli import MAX_CHAIN_MAPS
from fredpairs.generators import GenConfig, random_chain, random_pair

from test_mutations import MUTATIONS


def _stream(max_dim, rank_budget, count=40):
    """``count`` pairs, then ``count`` chains, from one seed-5 stream."""
    cfg = GenConfig(seed=5, max_dim=max_dim, rank_budget=rank_budget)
    rng = cfg.rng()
    fuzz_pairs = [random_pair(cfg, rng) for _ in range(count)]
    fuzz_chains = [random_chain(cfg, rng.randint(1, MAX_CHAIN_MAPS), rng) for _ in range(count)]
    return fuzz_pairs, fuzz_chains


STREAMS = [_stream(6, 2), _stream(16, 4)]


def dual_pair(p: PairInstance) -> PairInstance:
    return PairInstance(p.dim_x, p.dim_y, p.t.transpose(), p.s.transpose())


def dual_chain(c: ChainInstance) -> ChainInstance:
    return ChainInstance(c.dims[::-1], tuple(m.transpose() for m in reversed(c.maps)))


def violations() -> list:
    """The instances whose defects break their relation.  Each instance is
    copied first, so its defects are derived afresh."""
    bad = []
    for fuzz_pairs, fuzz_chains in STREAMS:
        for pair in map(replace, fuzz_pairs):
            if dual_pair(pair).defects != pair.defects:
                bad.append(pair)
        for chain in map(replace, fuzz_chains):
            dual = dual_chain(chain).defects
            if (dual.a, dual.b) != (chain.defects.a[::-1], chain.defects.b[::-1]):
                bad.append(chain)
    return bad


def test_streams_reach_nonzero_defects():
    # a relation between zero defects, or between chain defects that read
    # the same reversed, would show little
    for fuzz_pairs, fuzz_chains in STREAMS:
        assert any(p.defects.b and p.defects.c for p in fuzz_pairs)
        assert any(c.defects.a != c.defects.a[::-1] for c in fuzz_chains)


def test_relations_hold():
    assert violations() == []


def test_relations_flag_meet_one_short(monkeypatch):
    targets, mutate, _ = MUTATIONS["meet_one_short"]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    bad = violations()
    assert any(isinstance(i, PairInstance) for i in bad)
    assert any(isinstance(i, ChainInstance) for i in bad)

