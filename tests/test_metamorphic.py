"""Metamorphic relations: the numbers of an instance against those of a
transformed copy.

None of the relations needs a second implementation, so all scale past the
sizes the sympy oracle reaches.

- **Pair duality.** (T^t, S^t) is a pair on the same X and Y with the same
  defects.  N(T^t) = R(T)^o and R(S^t) = N(S)^o, so its a is
  dim(N(S) + R(T)) - rank T, which is a; the other three follow alike, and
  T^t S^t = (ST)^t keeps the composition-range dimensions.
- **Chain duality.** Reversing the degrees and transposing every map gives a
  chain whose a_p and b_p are those of degree n - p.
- **Signed permutations.** A change of the basis of every space by a signed
  permutation keeps every number the reports print.  A signed permutation
  is orthogonal, so orthogonal complements and Moore-Penrose inverses
  commute with it, and the printed values do not depend on the basis of a
  quotient.  Theorem 3.6's corrector F becomes W F W^t, with W the change
  of basis of X (+) Y.
- **Unimodular changes of basis.** A change of the basis of every space by
  an integer matrix of determinant 1 keeps the dimensions of the subspaces
  the defects count, the composition ranks, and the nullities of the
  quotient Laplacians, which are the homology dimensions of the induced
  complex.  Theorem 4.4's ``nullity`` and ``rank_perturbation`` read the
  orthogonal projections of the original spaces, and no proof says they
  stay, so they are left out.

Each relation compares two runs of the same code, so a fault that keeps the
relation (one that is symmetric under duality) passes it; the verifiers'
own checks and ``tests/test_mutations.py`` cover those.  ``meet_one_short``
is not symmetric, and the dualities flag it; a swapped direct sum and a lift
through the transposed section do not commute with a change of basis, and
the signed permutations flag them.  A meet with the orthogonal complement of
R(B) in place of R(B) commutes with orthogonal changes only, and the
unimodular changes flag it.
"""

from dataclasses import replace

import pytest

from fredpairs import (
    ChainInstance,
    PairInstance,
    RatMatrix,
    chains,
    direct_sum,
    kernel_basis,
    pairs,
    verify_remark_2_3,
    verify_theorem_3_4,
    verify_theorem_3_6,
    verify_theorem_4_2,
    verify_theorem_4_4,
)
from fredpairs.cli import MAX_CHAIN_MAPS
from fredpairs.generators import GenConfig, SplitMix64, random_chain, random_pair

from test_mutations import MUTATIONS, UNEQUAL_PAIRS, _basis_change


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


def violations(streams=STREAMS) -> list:
    """The instances of ``streams`` whose defects break their duality.  Each
    instance is copied first, so its defects are derived afresh."""
    bad = []
    for fuzz_pairs, fuzz_chains in streams:
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


def test_relations_hold_at_max_dim_32():
    # defects only, on a few instances with spaces past max_dim 16
    fuzz_pairs, fuzz_chains = _stream(32, 4, count=6)
    assert max(max(p.dim_x, p.dim_y) for p in fuzz_pairs) > 16
    assert max(max(c.dims) for c in fuzz_chains) > 16
    assert violations([(fuzz_pairs, fuzz_chains)]) == []


def test_relations_flag_meet_one_short(monkeypatch):
    targets, mutate, _ = MUTATIONS["meet_one_short"]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    bad = violations()
    assert any(isinstance(i, PairInstance) for i in bad)
    assert any(isinstance(i, ChainInstance) for i in bad)


def test_pair_duality_on_unequal_ranks():
    # the fuzz streams have no pair with dim R(ST) != dim R(TS)
    assert all(dual_pair(pair).defects == pair.defects for pair in UNEQUAL_PAIRS)


def signed_permutation(n, rng) -> RatMatrix:
    """A random n x n signed permutation matrix."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    signs = [1 if rng.coin() else -1 for _ in range(n)]
    return RatMatrix.from_rows(
        [[signs[r] * (c == order[r]) for c in range(n)] for r in range(n)], cols=n
    )


def pair_reports(p: PairInstance):
    return p.defects, [verify_theorem_3_4(p), verify_theorem_3_6(p)]


def chain_reports(c: ChainInstance):
    reports = [verify_remark_2_3(c), verify_theorem_4_2(c), verify_theorem_4_4(c)]
    return c.defects, reports + pair_reports(c.folded)[1]


def moves_as_a_basis_change(before, after, blocks) -> bool:
    """Whether the (defects, reports) ``after`` a change of basis by the
    direct sum W of ``blocks`` are those ``before``, but for each corrector F
    that becomes W F W^t."""
    w = direct_sum(*blocks)
    (defects, reports), (moved_defects, moved_reports) = before, after
    if defects != moved_defects or len(reports) != len(moved_reports):
        return False
    for report, moved in zip(reports, moved_reports):
        details, moved_details = dict(report.details), dict(moved.details)
        if "corrector" in details:
            f = details.pop("corrector")
            if moved_details.pop("corrector") != w @ f @ w.transpose():
                return False
        if (report.name, report.passed, details) != (moved.name, moved.passed, moved_details):
            return False
    return True


def permutation_violations(streams) -> list:
    """The instances of ``streams`` whose defects and reports break the
    relation under a random signed permutation of the basis of every space.
    Each instance is copied first, so everything is derived afresh."""
    rng = SplitMix64(9)
    bad = []
    for fuzz_pairs, fuzz_chains in streams:
        for pair in map(replace, fuzz_pairs):
            w_x, w_y = signed_permutation(pair.dim_x, rng), signed_permutation(pair.dim_y, rng)
            s, t = w_y @ pair.s @ w_x.transpose(), w_x @ pair.t @ w_y.transpose()
            moved = PairInstance(pair.dim_x, pair.dim_y, s, t)
            if not moves_as_a_basis_change(pair_reports(pair), pair_reports(moved), [w_x, w_y]):
                bad.append(pair)
        for chain in map(replace, fuzz_chains):
            ws = [signed_permutation(d, rng) for d in chain.dims]
            maps = (ws[p - 1] @ m @ ws[p].transpose() for p, m in enumerate(chain.maps, start=1))
            moved = ChainInstance(chain.dims, tuple(maps))
            # the folded pair puts the even degrees into X and the odd ones into Y
            blocks = ws[0::2] + ws[1::2]
            if not moves_as_a_basis_change(chain_reports(chain), chain_reports(moved), blocks):
                bad.append(chain)
    return bad


def test_signed_permutations_keep_the_reports():
    # every verifier runs on both sides, so only the first 20 pairs and 20
    # chains of each stream are taken; all 40 of each also hold
    assert permutation_violations([(p[:20], c[:20]) for p, c in STREAMS]) == []


@pytest.mark.parametrize("name", ["pair_direct_sum_swapped", "lift_section_transpose"])
def test_signed_permutations_flag(monkeypatch, name):
    targets, mutate, _ = MUTATIONS[name]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    assert permutation_violations(STREAMS[:1])


def basis_invariants(instance):
    """What a change of basis of every space by any invertible matrix keeps:
    the defects, the composition ranks and the nullities of the quotient
    Laplacians, which are homology dimensions of the induced complex."""
    if isinstance(instance, PairInstance):
        details = verify_theorem_3_6(instance).details
        return instance.defects, details["nullity_lap_x_tilde"], details["nullity_lap_y_tilde"]
    degrees = verify_theorem_4_4(instance).details["degrees"]
    return (
        instance.defects,
        [r.dim for r in instance.composition_ranges],
        [degree["nullity_tilde"] for degree in degrees],
        basis_invariants(instance.folded),
    )


def unimodular_violations(streams) -> list:
    """The instances of ``streams`` whose ``basis_invariants`` move under a
    random integer change of basis of determinant 1 of every space: S' =
    Q S P^-1 and T' = P T Q^-1 for a pair, d'_p = P_{p-1} d_p P_p^-1 for a
    chain, each P a product of shears.  Each instance is copied first, so
    everything is derived afresh."""
    rng = SplitMix64(13)
    bad = []
    for fuzz_pairs, fuzz_chains in streams:
        for pair in map(replace, fuzz_pairs):
            (p, p_inv), (q, q_inv) = _basis_change(pair.dim_x, rng), _basis_change(pair.dim_y, rng)
            moved = PairInstance(pair.dim_x, pair.dim_y, q @ pair.s @ p_inv, p @ pair.t @ q_inv)
            if basis_invariants(moved) != basis_invariants(pair):
                bad.append(pair)
        for chain in map(replace, fuzz_chains):
            changes = [_basis_change(d, rng) for d in chain.dims]
            maps = (
                changes[p - 1][0] @ m @ changes[p][1] for p, m in enumerate(chain.maps, start=1)
            )
            moved = ChainInstance(chain.dims, tuple(maps))
            if basis_invariants(moved) != basis_invariants(chain):
                bad.append(chain)
    return bad


def test_unimodular_changes_keep_the_homology():
    # the first 20 pairs and 20 chains of each stream, as for the signed
    # permutations
    assert unimodular_violations([(p[:20], c[:20]) for p, c in STREAMS]) == []


def meet_with_complement(defect_numbers):
    """Meet N(A) with the orthogonal complement of R(B) in place of R(B).

    Its dimension is kept by an orthogonal change of basis, such as a signed
    permutation, but not by the shears."""

    def wrong(a, b):
        return defect_numbers(a, kernel_basis(b.transpose()).basis.transpose())

    return wrong


def coordinate_instances():
    """Pairs (E, E) and chains (E, E) with E = diag(1, .., 1, 0, .., 0) on
    Q^n, n = 2..5, half of it ones: N(E) is the orthogonal complement of
    R(E), a special position that a generic instance has not and a shear
    moves."""
    maps = [
        RatMatrix.from_rows([[int(i == j < n // 2) for j in range(n)] for i in range(n)])
        for n in range(2, 6)
    ]
    return (
        [PairInstance(e.rows, e.rows, e, e) for e in maps],
        [ChainInstance((e.rows,) * 3, (e, e)) for e in maps],
    )


def test_unimodular_changes_flag_a_meet_with_the_complement(monkeypatch):
    streams = [coordinate_instances()]
    assert unimodular_violations(streams) == []
    for module in (pairs, chains):
        monkeypatch.setattr(module, "defect_numbers", meet_with_complement(module.defect_numbers))
    assert permutation_violations(streams) == []
    bad = unimodular_violations(streams)
    assert any(isinstance(i, PairInstance) for i in bad)
    assert any(isinstance(i, ChainInstance) for i in bad)
