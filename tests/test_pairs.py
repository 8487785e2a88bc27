import json

import pytest

from fredpairs import (
    ChainInstance,
    DimensionError,
    PairInstance,
    PreconditionError,
    RatMatrix,
    Subspace,
    build_extensions,
    build_v,
    fredholm_data,
    image_basis,
    induced_pair,
    kernel_basis,
    pair_defects,
    verify_theorem_3_4,
    verify_theorem_3_6,
)
from fredpairs.generators import GenConfig, random_pair

from _reference_subspaces import complement, push_image
from conftest import mat
from test_mutations import UNEQUAL_PAIRS


def w2():
    return PairInstance(2, 1, mat([[1, 0]]), mat([[0], [1]]))


class TestInstance:
    @pytest.mark.parametrize("bad", [True, -1])
    def test_dimension_must_be_a_nonnegative_int(self, bad):
        # True == 1, so a 1 x 1 S and T would fit its shape
        z = RatMatrix.zero(1, 1)
        with pytest.raises(DimensionError):
            PairInstance(bad, 1, z, z)
        with pytest.raises(DimensionError):
            PairInstance(1, bad, z, z)

    def test_json_roundtrip(self):
        cfg = GenConfig(seed=151, max_dim=6)
        rng = cfg.rng()
        for _ in range(20):
            p = random_pair(cfg, rng)
            assert PairInstance.from_json_obj(json.loads(json.dumps(p.to_json_obj()))) == p


class TestPairDefects:
    def test_projection_against_zero(self):
        p = PairInstance(2, 2, mat([[1, 0], [0, 0]]), RatMatrix.zero(2, 2))
        d = pair_defects(p)
        assert (d.a, d.b, d.c, d.d, d.index) == (1, 0, 1, 0, 0)

    def test_identity_pair(self):
        p = PairInstance(1, 1, mat([[1]]), mat([[1]]))
        d = pair_defects(p)
        assert (d.a, d.b, d.c, d.d, d.index) == (0, 1, 0, 1, 0)

    def test_w2(self):
        d = pair_defects(w2())
        assert (d.a, d.b, d.c, d.d, d.index) == (0, 0, 0, 1, 1)

    @pytest.mark.parametrize("max_dim, rank_budget", [(6, 2), (16, 4)])
    def test_composition_ranks_are_those_of_the_products(self, max_dim, rank_budget):
        # b and d are reported as dim R(ST) and dim R(TS); check both
        # against the products, here formed on purpose
        cfg = GenConfig(seed=37, max_dim=max_dim, rank_budget=rank_budget)
        rng = cfg.rng()
        fuzz_pairs = [random_pair(cfg, rng) for _ in range(100)]
        for p in fuzz_pairs + UNEQUAL_PAIRS:
            d = pair_defects(p)
            assert d.dim_range_st == image_basis(p.s @ p.t).dim
            assert d.dim_range_ts == image_basis(p.t @ p.s).dim
            assert d.index == p.dim_x - p.dim_y


class TestCompositionRanges:
    def test_w2(self):
        p = w2()
        assert (p.range_st.dim, p.range_ts.dim) == (0, 1)

    def test_identity(self):
        p = PairInstance(1, 1, mat([[1]]), mat([[1]]))
        assert (p.range_st.dim, p.range_ts.dim) == (1, 1)

    def test_zero_t(self):
        p = PairInstance(2, 2, mat([[1, 0], [0, 1]]), RatMatrix.zero(2, 2))
        assert (p.range_st.dim, p.range_ts.dim) == (0, 0)


class TestInducedPair:
    def test_w2(self):
        ind = induced_pair(w2())
        assert ind.q_x.quotient_dim == 1
        assert ind.q_y.quotient_dim == 1
        assert ind.s_tilde == mat([[1]])
        assert ind.t_tilde == mat([[0]])

    def test_full_quotients(self):
        ind = induced_pair(PairInstance(1, 1, mat([[1]]), mat([[1]])))
        assert ind.q_x.quotient_dim == 0
        assert ind.q_y.quotient_dim == 0
        assert ind.s_tilde.shape == (0, 0)

    def test_complex_pair_unchanged(self):
        cfg = GenConfig(seed=41, max_dim=5, complex_only=True)
        p = random_pair(cfg, cfg.rng())
        ind = induced_pair(p)
        assert ind.s_tilde == p.s
        assert ind.t_tilde == p.t

    def test_quotient_defects(self):
        cfg = GenConfig(seed=43, max_dim=6, rank_budget=2)
        rng = cfg.rng()
        for _ in range(15):
            p = random_pair(cfg, rng)
            d = pair_defects(p)
            ind = induced_pair(p)
            tilde = PairInstance(
                ind.q_x.quotient_dim, ind.q_y.quotient_dim, ind.s_tilde, ind.t_tilde
            )
            dt = pair_defects(tilde)
            assert (dt.a, dt.b, dt.c, dt.d) == (d.a, 0, d.c, 0)
            assert dt.index == d.index - d.dim_range_ts + d.dim_range_st

    def test_kernel_transport(self):
        # N(S~) = pi_X(N(S) + R(T))
        cfg = GenConfig(seed=47, max_dim=6, rank_budget=2)
        rng = cfg.rng()
        for _ in range(15):
            p = random_pair(cfg, rng)
            ind = induced_pair(p)
            lhs = kernel_basis(ind.s_tilde)
            rhs = push_image(ind.q_x.projection, kernel_basis(p.s) + image_basis(p.t))
            assert lhs == rhs


class TestComplementTransport:
    def test_direct_sum_decompositions(self):
        # R(S~) (+) pi_Y(M) = quotient Y and N(S~) (+) pi_X(R) = quotient X
        cfg = GenConfig(seed=53, max_dim=6, rank_budget=2)
        rng = cfg.rng()
        for _ in range(15):
            p = random_pair(cfg, rng)
            ind = induced_pair(p)
            m = complement(image_basis(p.s), Subspace.full(p.dim_y)).complement
            r_s_tilde = image_basis(ind.s_tilde)
            pushed = push_image(ind.q_y.projection, m)
            assert (r_s_tilde + pushed).dim == ind.q_y.quotient_dim
            assert (r_s_tilde & pushed).dim == 0
            r = complement(kernel_basis(p.s) + image_basis(p.t), Subspace.full(p.dim_x)).complement
            n_s_tilde = kernel_basis(ind.s_tilde)
            pushed_r = push_image(ind.q_x.projection, r)
            assert (n_s_tilde + pushed_r).dim == ind.q_x.quotient_dim
            assert (n_s_tilde & pushed_r).dim == 0


class TestBuildExtensions:
    def test_w2_default(self):
        b = build_extensions(w2())
        assert b.t_prime == RatMatrix.zero(1, 2)
        assert b.s_prime == mat([[1], [0]])
        assert b.normalized and b.chain_compatible

    def test_zero_pair(self):
        p = PairInstance(2, 1, RatMatrix.zero(1, 2), RatMatrix.zero(2, 1))
        b = build_extensions(p)
        assert b.s_prime.is_zero() and b.t_prime.is_zero()

    def test_invertible_complex(self):
        # ST = 0 and TS = 0 on disjoint coordinates, both blocks invertible
        s = mat([[2, 0], [0, 0]])
        t = mat([[0, 0], [0, 3]])
        p = PairInstance(2, 2, s, t)
        b = build_extensions(p)
        assert b.s_prime == mat([["1/2", 0], [0, 0]])
        assert b.t_prime == mat([[0, 0], [0, "1/3"]])

    def test_vanishing_on_composition_ranges(self):
        cfg = GenConfig(seed=61, max_dim=6, rank_budget=2)
        rng = cfg.rng()
        for _ in range(15):
            p = random_pair(cfg, rng)
            b = build_extensions(p)
            # S' acts on Y and kills R(ST); T' acts on X and kills R(TS)
            assert (b.s_prime @ (p.s @ p.t)).is_zero()
            assert (b.t_prime @ (p.t @ p.s)).is_zero()
            assert b.normalized and b.chain_compatible

    def test_custom_mode_validates(self):
        p = w2()
        ind = induced_pair(p)
        with pytest.raises(PreconditionError):
            build_extensions(p, s_tilde_prime=mat([[0]]), t_tilde_prime=mat([[0]]))
        # s_tilde = [1], so [1] is a valid inverse; t_tilde = [0] accepts anything
        b = build_extensions(p, s_tilde_prime=mat([[1]]), t_tilde_prime=mat([[5]]))
        assert b.s_prime == mat([[1], [0]])

    @pytest.mark.parametrize("side", ["s", "t"])
    def test_custom_inverse_must_be_a_generalized_inverse(self, side):
        # a pair whose S~ and T~ are both nonzero, and the fold of a chain,
        # whose default inverses the quotient chain checked, are alike here
        pair = PairInstance(2, 2, mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]]))
        chain = ChainInstance.from_json_obj({"dims": [1, 2, 1], "maps": [[[0, 1]], [[1], [0]]]})
        for p in (pair, chain.folded):
            ind = p.induced
            inverses = {"s_tilde_prime": ind.s_tilde_pinv, "t_tilde_prime": ind.t_tilde_pinv}
            name = f"{side}_tilde_prime"
            inverses[name] = RatMatrix.zero(inverses[name].rows, inverses[name].cols)
            with pytest.raises(PreconditionError, match=f"custom {name} is not a generalized"):
                build_extensions(p, **inverses)

    def test_custom_requires_both(self):
        with pytest.raises(PreconditionError):
            build_extensions(w2(), s_tilde_prime=mat([[1]]))


class TestFredholmData:
    def test_examples(self):
        assert fredholm_data(mat([[1, 0]])) == (1, 0, 1)
        assert fredholm_data(RatMatrix.identity(4)) == (0, 0, 0)
        assert fredholm_data(RatMatrix.zero(2, 3)) == (3, 2, 1)


class TestBuildV:
    def test_w2(self):
        p = w2()
        v = build_v(p, build_extensions(p))
        assert v == mat([[0, 0, 1], [0, 0, 1], [1, 0, 0]])

    def test_zero(self):
        p = PairInstance(1, 1, RatMatrix.zero(1, 1), RatMatrix.zero(1, 1))
        assert build_v(p, build_extensions(p)).is_zero()

    def test_identity_pair_swaps(self):
        p = PairInstance(1, 1, mat([[1]]), mat([[1]]))
        v = build_v(p, build_extensions(p))
        assert v == mat([[0, 1], [1, 0]])


class TestTheorem34:
    def test_w2(self):
        report = verify_theorem_3_4(w2())
        assert report.passed
        assert report.details["index"] == 1
        assert report.details["index_s_plus_t_prime"] == 1
        assert report.details["index_t_plus_s_prime"] == -1

    def test_zero_pair(self):
        p = PairInstance(3, 2, RatMatrix.zero(2, 3), RatMatrix.zero(3, 2))
        report = verify_theorem_3_4(p)
        assert report.passed
        assert report.details["index"] == 1

    def test_random(self):
        cfg = GenConfig(seed=67, max_dim=6, rank_budget=2)
        rng = cfg.rng()
        for _ in range(25):
            assert verify_theorem_3_4(random_pair(cfg, rng)).passed


class TestTheorem36:
    def test_w2(self):
        report = verify_theorem_3_6(w2())
        assert report.passed
        assert report.details["nullity_lap_x_tilde"] == 0
        assert report.details["nullity_lap_y_tilde"] == 0

    def test_zero_pair(self):
        p = PairInstance(2, 2, RatMatrix.zero(2, 2), RatMatrix.zero(2, 2))
        report = verify_theorem_3_6(p)
        assert report.passed
        assert report.details["nullity_lap_x_tilde"] == 2

    def test_random(self):
        cfg = GenConfig(seed=71, max_dim=6, rank_budget=2)
        rng = cfg.rng()
        for _ in range(25):
            p = random_pair(cfg, rng)
            report = verify_theorem_3_6(p)
            assert report.passed
            d = pair_defects(p)
            assert report.details["nullity_lap_x_tilde"] == d.a
            assert report.details["nullity_lap_y_tilde"] == d.c

    def test_custom_bundle_records_only(self):
        # a non-normalized custom inverse still yields a valid report
        p = w2()
        b = build_extensions(p, s_tilde_prime=mat([[1]]), t_tilde_prime=mat([[7]]))
        report = verify_theorem_3_6(p, b)
        assert "rank_corrector" in report.details
