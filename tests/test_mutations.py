"""Every verifier check can fail: mutations of the package and what they flip.

Each mutation replaces one module global of the package, as a bug there
would change it, and must flip exactly a known set of named checks over each
of two fixed seeded sets of fuzz pairs and chains.  Per-degree checks are
named without their degree suffix.  Each set passes every check unmutated,
so each flip is the mutation's doing.

In the first set (seed 61) most instances are complexes, where the quotient
machinery is the identity.  Every instance of the second (seed 71) has a
nonzero composition range, so every pair and chain there quotients by
something.  A fuzz pair almost never has dim R(ST) != dim R(TS), so a third
set of plain pairs has them unequal by construction.
"""

import hashlib
import json
import re
from dataclasses import replace

import pytest

from fredpairs import (
    PairInstance,
    RatMatrix,
    Subspace,
    chains,
    image_basis,
    kernel_basis,
    pairs,
    verify_remark_2_3,
    verify_theorem_3_4,
    verify_theorem_3_6,
    verify_theorem_4_2,
    verify_theorem_4_4,
)
from fredpairs.cli import main
from fredpairs.generators import GenConfig, SplitMix64, random_chain, random_pair

# The 19 named checks of the five verifiers.
CHECKS = frozenset(
    {
        "index_eq_s_plus",
        "index_eq_neg_t_plus",
        "intermediate_identity",
        "s_one_same_index",
        "finite_rank_difference",
        "block_diagonal",
        "corrector_rank_bound",
        "hodge_nullity_a",
        "hodge_nullity_c",
        "index_matches_pair",
        "index_matches_euler",
        "composition_defects_match",
        "index_even",
        "index_odd",
        "even_matches_folded",
        "odd_matches_folded",
        "nullity_matches_a",
        "zero_index",
        "perturbation_rank",
    }
)


def _fuzz_set():
    cfg = GenConfig(seed=61, max_dim=6)
    rng = cfg.rng()
    fuzz_pairs = [random_pair(cfg, rng) for _ in range(20)]
    fuzz_chains = [random_chain(cfg, rng.randint(1, 4), rng) for _ in range(20)]
    return fuzz_pairs, fuzz_chains


def _ranges_set():
    """20 fuzz pairs and 20 fuzz chains, each with a nonzero composition
    range, drawn from one stream, the pairs first."""
    cfg = GenConfig(seed=71, max_dim=6, rank_budget=4)
    rng = cfg.rng()
    fuzz_pairs, fuzz_chains = [], []
    while len(fuzz_pairs) < 20:
        pair = random_pair(cfg, rng)
        if pair.range_st.dim or pair.range_ts.dim:
            fuzz_pairs.append(pair)
    while len(fuzz_chains) < 20:
        chain = random_chain(cfg, rng.randint(2, 4), rng)
        if any(r.dim for r in chain.composition_ranges):
            fuzz_chains.append(chain)
    return fuzz_pairs, fuzz_chains


def _shear(n, i, j, k) -> RatMatrix:
    """I + k e_i e_j^t on Q^n; for i != j its inverse is I - k e_i e_j^t."""
    return RatMatrix.from_rows(
        [[int(r == c) + k * ((r, c) == (i, j)) for c in range(n)] for r in range(n)]
    )


def _basis_change(n, rng):
    """A product P of 2n random shears on Q^n, and its inverse."""
    p = p_inv = RatMatrix.identity(n)
    for _ in range(2 * n if n > 1 else 0):
        i = rng.below(n)
        j = (i + 1 + rng.below(n - 1)) % n
        k = rng.randint(-3, 3)
        p, p_inv = p @ _shear(n, i, j, k), _shear(n, i, j, -k) @ p_inv
    return p, p_inv


def _unit(rows, cols, i, j) -> RatMatrix:
    """The rows x cols matrix e_i e_j^t."""
    return RatMatrix.from_rows(
        [[int((r, c) == (i, j)) for c in range(cols)] for r in range(rows)]
    )


def _unequal_ranks_set():
    """12 plain pairs with dim R(ST) != dim R(TS).  S = e_1 e_1^t and
    T = e_2 e_1^t give ST = 0 and TS = e_2 e_1^t, and the two swapped give
    the ranks swapped; each is taken to random bases of X and Y, as
    Q S P^-1 and P T Q^-1, which keep both composition ranks."""
    rng = SplitMix64(83)
    unequal = []
    for k in range(12):
        big, small = rng.randint(2, 6), rng.randint(1, 6)
        if k % 2 == 0:  # dim R(TS) = 1
            dim_x, dim_y = big, small
            s, t = _unit(dim_y, dim_x, 0, 0), _unit(dim_x, dim_y, 1, 0)
        else:  # dim R(ST) = 1
            dim_x, dim_y = small, big
            s, t = _unit(dim_y, dim_x, 1, 0), _unit(dim_x, dim_y, 0, 0)
        p, p_inv = _basis_change(dim_x, rng)
        q, q_inv = _basis_change(dim_y, rng)
        unequal.append(PairInstance(dim_x, dim_y, q @ s @ p_inv, p @ t @ q_inv))
    return unequal


PAIRS, CHAINS = _fuzz_set()
RANGE_PAIRS, RANGE_CHAINS = _ranges_set()
UNEQUAL_PAIRS = _unequal_ranks_set()


def failed_checks(fuzz_pairs=PAIRS, fuzz_chains=CHAINS) -> set[str]:
    """The named checks that fail on fresh copies of a seeded set."""
    reports = []
    for pair in map(replace, fuzz_pairs):
        reports += [verify_theorem_3_4(pair), verify_theorem_3_6(pair)]
    for chain in map(replace, fuzz_chains):
        reports += [verify_remark_2_3(chain), verify_theorem_4_2(chain), verify_theorem_4_4(chain)]
        reports += [verify_theorem_3_4(chain.folded), verify_theorem_3_6(chain.folded)]
    failed = set()
    for report in reports:
        for key, value in report.details.items():
            name = re.sub(r"_\d+$", "", key)
            if name in CHECKS and value is False:
                failed.add(name)
    return failed


def meet_one_short(defect_numbers):
    """Count the meet N(A) & R(B) one short whenever it is not zero, as a meet
    that drops its last basis row would: both defects grow by one."""

    def wrong(a, b):
        a_defect, b_defect = defect_numbers(a, b)
        meet = a.cols - a.rank - a_defect
        return (a_defect + 1, b_defect + 1) if meet else (a_defect, b_defect)

    return wrong


def nullity_one_more(fredholm_data):
    """Report one more nullity than the rank gives, leaving corank and index."""

    def wrong(a):
        nullity, corank, index = fredholm_data(a)
        return nullity + 1, corank, index

    return wrong


def a_one_more(defect_numbers):
    """Count the first defect one too large: a rank-nullity slip that the
    shape-determined index checks see."""

    def wrong(a, b):
        a_defect, b_defect = defect_numbers(a, b)
        return a_defect + 1, b_defect

    return wrong


def lift_twice(lift):
    """Double every lift from the quotients: the quotient-level maps stay
    right, so only the checks that read a lifted map can see it."""

    def wrong(m, q_dom, q_cod):
        lifted = lift(m, q_dom, q_cod)
        return lifted + lifted

    return wrong


def lift_by_section_transpose(lift):
    """Lift through the domain's section transposed in place of its
    projection: section_cod @ m @ section_dom^T.  It still vanishes on
    killed_dom, since the section's columns are orthogonal to it, but is no
    longer the projection's factor through the quotient."""

    def wrong(m, q_dom, q_cod):
        return q_cod.section @ m @ q_dom.section.transpose()

    return wrong


def a_one_more_when_wide(defect_numbers):
    """Count the first defect one too large only when A is wider than tall,
    so that the slip no longer cancels in a - b - c + d as ``a_one_more``'s
    does where both orders are counted."""

    def wrong(a, b):
        a_defect, b_defect = defect_numbers(a, b)
        return (a_defect + 1 if a.cols > a.rows else a_defect), b_defect

    return wrong


def swap_same_shape(direct_sum):
    """Swap the two summands when they have the same shape, which no shape
    check can see."""

    def wrong(a, b):
        return direct_sum(b, a) if a.shape == b.shape else direct_sum(a, b)

    return wrong


def ranges_swapped(pair_defects):
    """Report dim R(ST) as dim R(TS) and the other way round, which only a
    pair whose two composition ranks differ can show."""

    def wrong(p):
        defects = pair_defects(p)
        return replace(
            defects, dim_range_st=defects.dim_range_ts, dim_range_ts=defects.dim_range_st
        )

    return wrong


# name -> (module globals to replace, mutation of the original, checks it
# flips on the seed-61 set)
MUTATIONS = {
    "meet_one_short": (
        [(pairs, "defect_numbers"), (chains, "defect_numbers")],
        meet_one_short,
        {
            "composition_defects_match",
            "intermediate_identity",
            "nullity_matches_a",
            "hodge_nullity_a",
            "hodge_nullity_c",
        },
    ),
    "nullity_one_more": (
        [(pairs, "fredholm_data"), (chains, "fredholm_data")],
        nullity_one_more,
        {"nullity_matches_a", "hodge_nullity_a", "hodge_nullity_c"},
    ),
    "a_one_more": (
        [(pairs, "defect_numbers"), (chains, "defect_numbers")],
        a_one_more,
        {
            "index_even",
            "index_odd",
            "index_matches_euler",
            "index_matches_pair",
            "nullity_matches_a",
            "hodge_nullity_a",
            "hodge_nullity_c",
        },
    ),
    # S' and T' of every pair bundle, and S1 of theorem 3.4
    "pair_lift_twice": (
        [(pairs, "lift")],
        lift_twice,
        {"finite_rank_difference", "even_matches_folded", "odd_matches_folded"},
    ),
    # the extended inverses d' of the quotient chain and theorem 4.4's lifted Laplacians
    "chain_lift_twice": (
        [(chains, "lift")],
        lift_twice,
        {"even_matches_folded", "odd_matches_folded"},
    ),
    "pair_lift_section_transpose": (
        [(pairs, "lift")],
        lift_by_section_transpose,
        {"corrector_rank_bound", "even_matches_folded", "odd_matches_folded"},
    ),
    "chain_lift_section_transpose": (
        [(chains, "lift")],
        lift_by_section_transpose,
        {"even_matches_folded", "odd_matches_folded", "perturbation_rank"},
    ),
    # with a chain-compatible bundle F = diag(TS + S'T', ST + T'S'), so the
    # corrector can only fail its bound when S'T' is not zero
    "lift_section_transpose": (
        [(pairs, "lift"), (chains, "lift")],
        lift_by_section_transpose,
        {"corrector_rank_bound", "perturbation_rank"},
    ),
    "a_one_more_when_wide": (
        [(pairs, "defect_numbers")],
        a_one_more_when_wide,
        {
            "hodge_nullity_a",
            "hodge_nullity_c",
            "index_eq_neg_t_plus",
            "index_eq_s_plus",
            "index_matches_pair",
            "intermediate_identity",
        },
    ),
    "pair_direct_sum_swapped": (
        [(pairs, "direct_sum")],
        swap_same_shape,
        {"block_diagonal", "corrector_rank_bound"},
    ),
    # on the seed-61 and seed-71 sets only some folded chains have b != d
    "pair_ranges_swapped": (
        [(pairs, "pair_defects")],
        ranges_swapped,
        {"intermediate_identity"},
    ),
}

# The checks each mutation flips on the seed-71 set.  They are those of the
# seed-61 set, except that no chain there shows the section-transpose lift in
# theorem 4.4's perturbation rank.
RANGES_FLIPS = {
    **{name: flipped for name, (_, _, flipped) in MUTATIONS.items()},
    "chain_lift_section_transpose": {"even_matches_folded", "odd_matches_folded"},
    "lift_section_transpose": {"corrector_rank_bound"},
}

# Checks that no mutation can flip, with the reason.  A mutation that keeps
# every shape cannot change a difference of dimensions, and one that changes
# a shape raises ``DimensionError`` before any check is read.
UNFLIPPABLE = {
    "s_one_same_index": "compares cols - rows of S1 and of S + T', which have the same shape",
    "zero_index": "reads cols - rows of a quotient Laplacian, which is square",
}


def test_unmutated_set_passes():
    assert failed_checks() == set()


def test_ranges_set_quotients_by_something():
    assert len(RANGE_PAIRS) == len(RANGE_CHAINS) == 20
    assert all(pair.range_st.dim or pair.range_ts.dim for pair in RANGE_PAIRS)
    assert all(any(r.dim for r in chain.composition_ranges) for chain in RANGE_CHAINS)


def test_ranges_set_quotients_kill_the_composition_ranges():
    for chain in RANGE_CHAINS:
        n, ranges, quotients = chain.top_degree, chain.composition_ranges, chain.quotient.quotients
        down = chains._down(chain.maps, chain.dims)
        assert len(ranges) == len(quotients) == n + 1
        # the two top degrees have a padding map as a factor
        assert ranges[n - 1] == Subspace.zero(chain.dims[n - 1])
        assert ranges[n] == Subspace.zero(chain.dims[n])
        for p in range(n + 1):
            assert kernel_basis(quotients[p].projection) == ranges[p]
            if p < n:
                assert ranges[p] == image_basis(down[p + 1] @ down[p + 2])
            assert (quotients[p].projection @ ranges[p].basis.transpose()).is_zero()
            assert quotients[p].quotient_dim == chain.dims[p] - ranges[p].dim


def test_unmutated_ranges_set_passes():
    assert failed_checks(RANGE_PAIRS, RANGE_CHAINS) == set()


def test_ranges_set_verify_output_is_pinned(tmp_path, capsys):
    # sha256 of the stdout of ``verify --all`` on every instance of the
    # seed-71 set, in order: the quotient paths print the same bytes
    path = tmp_path / "instance.json"
    out = []
    for instance in RANGE_PAIRS + RANGE_CHAINS:
        path.write_text(json.dumps(instance.to_json_obj()))
        assert main(["verify", "--all", str(path)]) == 0
        out.append(capsys.readouterr().out)
    digest = "c517b4291f05396050aedbad4093964cd41721794dfdcaaba4b431b017d07be0"
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


def test_unequal_set_has_unequal_ranks_and_passes():
    assert {(pair.range_st.dim, pair.range_ts.dim) for pair in UNEQUAL_PAIRS} == {(0, 1), (1, 0)}
    assert failed_checks(UNEQUAL_PAIRS, []) == set()


def test_ranges_swapped_flips_the_intermediate_identity_of_a_plain_pair(monkeypatch):
    targets, mutate, _ = MUTATIONS["pair_ranges_swapped"]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    assert failed_checks(UNEQUAL_PAIRS, []) == {"intermediate_identity"}
    assert failed_checks(UNEQUAL_PAIRS[:1], []) == {"intermediate_identity"}


def test_every_check_is_flipped_or_unflippable():
    flipped = set().union(*(checks for _, _, checks in MUTATIONS.values()))
    assert not flipped & UNFLIPPABLE.keys()
    assert flipped | UNFLIPPABLE.keys() == CHECKS


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_flips_its_checks(monkeypatch, name):
    targets, mutate, flipped = MUTATIONS[name]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    assert failed_checks() == flipped


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_flips_its_checks_with_nonzero_ranges(monkeypatch, name):
    targets, mutate, _ = MUTATIONS[name]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    assert failed_checks(RANGE_PAIRS, RANGE_CHAINS) == RANGES_FLIPS[name]
