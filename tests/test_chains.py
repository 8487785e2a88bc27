import hashlib
import json

import pytest

from fredpairs import (
    ChainInstance,
    DimensionError,
    PairInstance,
    RatMatrix,
    build_extensions,
    chain_defects,
    chains,
    fold_to_pair,
    induced_pair,
    kernel_basis,
    pair_defects,
    quotient_chain,
    verify_remark_2_3,
    verify_theorem_4_2,
    verify_theorem_4_4,
)
from fredpairs.cli import main
from fredpairs.generators import GenConfig, random_chain, random_matrix

from _reference_chains import block_fold
from conftest import mat


def exact_complex():
    return ChainInstance((1, 2, 1), (mat([[0, 1]]), mat([[1], [0]])))


def zero_map_chain():
    return ChainInstance((1, 1), (RatMatrix.zero(1, 1),))


def non_complex_chain():
    return ChainInstance((1, 1, 1), (mat([[1]]), mat([[1]])))


def random_chains(seed, count, max_dim=5, rank_budget=2, max_len=5, complex_only=False):
    cfg = GenConfig(seed=seed, max_dim=max_dim, rank_budget=rank_budget, complex_only=complex_only)
    rng = cfg.rng()
    return [random_chain(cfg, rng.randint(1, max_len), rng) for _ in range(count)]


def generic_chains(seed, count, max_dim=5):
    """Chains of 3 to 5 maps of random nonzero rank between nonzero spaces,
    so that consecutive maps almost never compose to zero."""
    cfg = GenConfig(seed=seed, max_dim=max_dim, rank_budget=max_dim)
    rng = cfg.rng()
    chains = []
    for _ in range(count):
        dims = [rng.randint(1, max_dim) for _ in range(rng.randint(4, 6))]
        maps = [
            random_matrix(cfg, rows, cols, rng.randint(1, min(rows, cols)), rng)
            for rows, cols in zip(dims, dims[1:])
        ]
        chains.append(ChainInstance(tuple(dims), tuple(maps)))
    return chains


class TestChainInstance:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            ChainInstance((1, 2), (mat([[1]]),))
        with pytest.raises(DimensionError):
            ChainInstance((1, 1), ())

    @pytest.mark.parametrize("bad", [True, -1])
    def test_dimension_must_be_a_nonnegative_int(self, bad):
        # True == 1, so a 1 x 1 map would fit its shape
        z = RatMatrix.zero(1, 1)
        with pytest.raises(DimensionError):
            ChainInstance((bad, 1), (z,))
        with pytest.raises(DimensionError):
            ChainInstance((1, bad), (z,))

    def test_boundary_deltas_are_zero(self):
        c = exact_complex()
        down = chains._down(c.maps, c.dims)
        assert down[0].shape == (0, 1)
        assert down[3].shape == (1, 0)

    def test_is_complex(self):
        assert not any(r.dim for r in exact_complex().composition_ranges)
        assert any(r.dim for r in non_complex_chain().composition_ranges)


class TestChainDefects:
    def test_exact_complex(self):
        d = chain_defects(exact_complex())
        assert d.d == (0, 0, 0)
        assert d.index == 0

    def test_zero_map(self):
        d = chain_defects(zero_map_chain())
        assert d.d == (1, 1)
        assert d.index == 0

    def test_non_complex(self):
        d = chain_defects(non_complex_chain())
        assert d.d == (0, -1, 0)
        assert d.index == 1

    def test_index_is_euler_characteristic(self):
        for c in random_chains(seed=101, count=15):
            euler = sum(d if p % 2 == 0 else -d for p, d in enumerate(c.dims))
            assert chain_defects(c).index == euler


class TestFolding:
    def test_exact_complex(self):
        folded = fold_to_pair(exact_complex())
        # X = X_0 (+) X_2 in ascending order, Y = X_1
        assert folded.dim_x == 2 and folded.dim_y == 2
        assert folded.s == mat([[0, 1], [0, 0]])
        assert folded.t == mat([[0, 1], [0, 0]])

    def test_non_complex_is_w2(self):
        folded = fold_to_pair(non_complex_chain())
        assert folded.s == mat([[0, 1]])
        assert folded.t == mat([[1], [0]])

    def test_all_zero_maps(self):
        c = ChainInstance((2, 1), (RatMatrix.zero(2, 1),))
        folded = fold_to_pair(c)
        assert folded.t.is_zero() and folded.s.shape == (1, 2)


class TestRemark23:
    def test_hand_instances(self):
        for c in (exact_complex(), zero_map_chain(), non_complex_chain()):
            report = verify_remark_2_3(c)
            assert report.passed

    def test_complexes_fold_to_complex_pairs(self):
        for c in random_chains(seed=103, count=8, complex_only=True):
            folded = fold_to_pair(c)
            assert (folded.s @ folded.t).is_zero()
            assert (folded.t @ folded.s).is_zero()
            assert verify_remark_2_3(c).passed

    def test_random(self):
        for c in random_chains(seed=107, count=20):
            assert verify_remark_2_3(c).passed


class TestQuotientChain:
    def test_complex_is_untouched(self):
        c = exact_complex()
        qc = quotient_chain(c)
        assert all(q.quotient_dim == q.ambient_dim for q in qc.quotients)
        assert qc.maps_tilde == c.maps
        assert qc.inverses_tilde == (mat([[0], [1]]), mat([[1, 0]]))

    def test_non_complex(self):
        qc = quotient_chain(non_complex_chain())
        assert [q.quotient_dim for q in qc.quotients] == [0, 1, 1]
        assert qc.maps_tilde[0].shape == (0, 1)
        assert qc.maps_tilde[1] == mat([[1]])

    def test_inverse_family_is_complex_of_normalized_inverses(self):
        for c in random_chains(seed=109, count=12):
            qc = quotient_chain(c)
            for d_t, d_p in zip(qc.maps_tilde, qc.inverses_tilde):
                assert d_t @ d_p @ d_t == d_t
                assert d_p @ d_t @ d_p == d_p
            for i in range(len(qc.maps_tilde) - 1):
                assert (qc.maps_tilde[i] @ qc.maps_tilde[i + 1]).is_zero()
                assert (qc.inverses_tilde[i + 1] @ qc.inverses_tilde[i]).is_zero()

    def test_extended_inverse_vanishes_on_killed(self):
        for c in random_chains(seed=113, count=10):
            qc = quotient_chain(c)
            down = chains._down(c.maps, c.dims)
            for p in range(1, c.top_degree + 1):
                comp = down[p] @ down[p + 1]
                assert (qc.extended_inverses[p - 1] @ comp).is_zero()

    def test_folding_consistency(self):
        # The folded pair assembles its quotients, induced maps and their
        # pseudoinverses from the chain's per-degree ones; each must equal
        # what the pair derives from the folded matrices alone.
        generated = random_chains(seed=127, count=10, rank_budget=4) + generic_chains(
            seed=157, count=12
        )
        both_parities = 0
        for c in zero_degree_chains() + generated:
            folded = fold_to_pair(c)
            plain = PairInstance(folded.dim_x, folded.dim_y, folded.s, folded.t)
            both_parities += bool(plain.range_st.dim and plain.range_ts.dim)
            ind, expected = folded.induced, induced_pair(plain)
            # each folded projection's kernel is the range its quotient kills
            for q, e, killed in (
                (ind.q_x, expected.q_x, plain.range_ts),
                (ind.q_y, expected.q_y, plain.range_st),
            ):
                assert kernel_basis(q.projection) == killed
                assert q.projection == e.projection and q.section == e.section
            assert ind.s_tilde == expected.s_tilde and ind.t_tilde == expected.t_tilde
            # the folds of the per-degree pseudoinverses are the pseudoinverses
            # of the folds, so the default bundles agree
            assert ind.s_tilde_pinv == expected.s_tilde.pseudoinverse()
            assert ind.t_tilde_pinv == expected.t_tilde.pseudoinverse()
            assert folded.extensions == build_extensions(plain)
            # and fold(quotient_chain(c)) is the induced pair of fold(c)
            qc = quotient_chain(c)
            quotiented_chain = ChainInstance(
                tuple(q.quotient_dim for q in qc.quotients), qc.maps_tilde
            )
            refolded = fold_to_pair(quotiented_chain)
            assert refolded.s == expected.s_tilde
            assert refolded.t == expected.t_tilde
        assert both_parities > len(generated) // 2


def wide_range_chains():
    """10 chains drawn from one fuzz stream at max_dim 16 and rank budget 4,
    each with a nonzero composition range, so that its folded pair
    quotients by something in blocks larger than the fuzz defaults give."""
    cfg = GenConfig(seed=71, max_dim=16, rank_budget=4)
    rng = cfg.rng()
    found = []
    while len(found) < 10:
        chain = random_chain(cfg, rng.randint(2, 4), rng)
        if any(r.dim for r in chain.composition_ranges):
            found.append(chain)
    return found


def test_wide_range_chains_verify_output_is_pinned(tmp_path, capsys):
    # sha256 of the stdout of ``verify --all`` on each chain, in order: the
    # folded pair's theorem 3.4 and 3.6 reports print the same bytes
    path = tmp_path / "chain.json"
    out = []
    for chain in wide_range_chains():
        path.write_text(json.dumps(chain.to_json_obj()))
        assert main(["verify", "--all", str(path)]) == 0
        out.append(capsys.readouterr().out)
    digest = "032d092c1d1faa831a228fd11158658b0a6c2b27b7f8623936a727eef8b1699c"
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


def zero_degree_chains():
    """Chains with no maps, and chains with a zero-dimensional degree at
    either end or in the middle, each with a nonzero composition where the
    length allows one."""
    rank_one = mat([[1, 0], [0, 0]])
    return [
        ChainInstance((3,), ()),
        ChainInstance((0,), ()),
        ChainInstance((0, 2, 2, 2), (RatMatrix.zero(0, 2), rank_one, rank_one)),
        ChainInstance((2, 2, 2, 0), (rank_one, rank_one, RatMatrix.zero(2, 0))),
        ChainInstance((2, 0, 2), (RatMatrix.zero(2, 0), RatMatrix.zero(0, 2))),
        ChainInstance(
            (2, 2, 2, 0, 1),
            (rank_one, mat([[1, 1], [0, 1]]), RatMatrix.zero(2, 0), RatMatrix.zero(0, 1)),
        ),
        ChainInstance((0, 0), (RatMatrix.zero(0, 0),)),
    ]


def dims_id(c):
    return "x".join(map(str, c.dims))


class TestReferenceFold:
    """Every operator between the two parities equals the block grid of
    ``_reference_chains.block_fold``."""

    INSTANCES = zero_degree_chains() + random_chains(seed=127, count=10, rank_budget=4)

    @pytest.mark.parametrize("c", INSTANCES, ids=dims_id)
    def test_folds_equal_the_block_grid(self, c):
        folded, qc = c.folded, c.quotient
        assert (folded.s, folded.t) == block_fold(c.dims, c.maps)
        q_dims = [q.quotient_dim for q in qc.quotients]
        ind = folded.induced
        assert (ind.s_tilde, ind.t_tilde) == block_fold(q_dims, qc.maps_tilde)
        # the parity operators of theorem 4.2: S + T' and T + S' from the
        # folds of the padded extended inverses d'_0..d'_{n+1}
        e, o = block_fold(c.dims, c.maps, qc.extended_inverses)
        s_prime, t_prime = chains._fold(chains._up(qc.extended_inverses, c.dims))
        assert (folded.s + t_prime, folded.t + s_prime) == (e, o)
        assert (folded.extensions.s_plus, folded.extensions.t_plus) == (e, o)
        assert verify_theorem_4_2(c).passed and verify_remark_2_3(c).passed

    def test_some_chain_with_a_zero_degree_kills_something(self):
        assert any(c.folded.range_st.dim or c.folded.range_ts.dim for c in zero_degree_chains())

    @pytest.mark.parametrize("c", zero_degree_chains(), ids=dims_id)
    def test_padded_maps_are_the_zero_convention(self, c):
        n = c.top_degree
        down = chains._down(c.maps, c.dims)
        assert len(down) == n + 2 and down[1 : n + 1] == c.maps
        assert down[0].shape == (0, c.dims[0]) and down[n + 1].shape == (c.dims[n], 0)
        up = chains._up(c.quotient.extended_inverses, c.dims)
        assert len(up) == n + 2 and up[1 : n + 1] == c.quotient.extended_inverses
        assert up[0].shape == (c.dims[0], 0) and up[n + 1].shape == (0, c.dims[n])


class TestTheorem42:
    def test_exact_complex(self):
        report = verify_theorem_4_2(exact_complex())
        assert report.passed
        assert report.details["index_even_operator"] == 0

    def test_all_zero_maps(self):
        c = ChainInstance((2, 1), (RatMatrix.zero(2, 1),))
        report = verify_theorem_4_2(c)
        assert report.passed
        assert report.details["chain_index"] == 1

    def test_random(self):
        for c in random_chains(seed=131, count=20):
            assert verify_theorem_4_2(c).passed


class TestTheorem44:
    def test_exact_complex(self):
        report = verify_theorem_4_4(exact_complex())
        assert report.passed
        degree_1 = report.details["degrees"][1]
        assert degree_1["nullity"] == 0 and degree_1["a_p"] == 0

    def test_all_zero_maps(self):
        c = ChainInstance((3, 2), (RatMatrix.zero(3, 2),))
        report = verify_theorem_4_4(c)
        assert report.passed
        assert report.details["degrees"][0]["nullity"] == 3

    def test_homology_dimensions_on_complexes(self):
        for c in random_chains(seed=137, count=10, complex_only=True):
            report = verify_theorem_4_4(c)
            assert report.passed
            defects = chain_defects(c)
            for p, entry in enumerate(report.details["degrees"]):
                assert entry["nullity"] == defects.a[p]

    def test_random(self):
        for c in random_chains(seed=139, count=15):
            assert verify_theorem_4_4(c).passed


class TestJson:
    def test_roundtrip(self):
        c = exact_complex()
        assert ChainInstance.from_json_obj(c.to_json_obj()) == c

    def test_folded_report_consistency(self):
        for c in random_chains(seed=149, count=5):
            folded = fold_to_pair(c)
            assert pair_defects(folded).index == chain_defects(c).index
