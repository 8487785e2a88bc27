from fractions import Fraction

import pytest

from fredpairs import GenConfig, PreconditionError, RatMatrix, random_chain, random_matrix, random_pair
from fredpairs.chains import _down
from fredpairs.generators import SplitMix64, _raw_matrix, child_seed


class TestConfig:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            GenConfig(seed=1, max_dim=0)
        with pytest.raises(PreconditionError):
            GenConfig(seed=1, max_dim=3, rank_budget=4)
        with pytest.raises(PreconditionError):
            GenConfig(seed=1, entry_bound=0)


class TestRandomMatrix:
    def test_exact_rank(self):
        cfg = GenConfig(seed=2, max_dim=6)
        assert random_matrix(cfg, 4, 4, 2, cfg.rng()).rank == 2

    def test_rank_zero(self):
        # the general path: the factors are empty, draw nothing and multiply to zero
        cfg = GenConfig(seed=2, max_dim=6)
        for rows, cols in [(3, 2), (0, 0), (0, 3), (3, 0), (2, 3)]:
            rng = cfg.rng()
            assert random_matrix(cfg, rows, cols, 0, rng) == RatMatrix.zero(rows, cols)
            assert rng.state == cfg.rng().state

    def test_determinism(self):
        cfg = GenConfig(seed=99, max_dim=6)
        assert random_matrix(cfg, 4, 5, 3, cfg.rng()) == random_matrix(cfg, 4, 5, 3, cfg.rng())

    def test_infeasible_rank(self):
        cfg = GenConfig(seed=2, max_dim=6)
        with pytest.raises(PreconditionError):
            random_matrix(cfg, 2, 2, 3, cfg.rng())


def fraction_draws(rng, entry_bound, rows, cols):
    """The raw matrix drawn as Fractions: numerator, then denominator, row by row."""
    grid = [
        [Fraction(rng.randint(-entry_bound, entry_bound), rng.randint(1, entry_bound)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return RatMatrix(rows, cols, grid)


class TestRawMatrix:
    @pytest.mark.parametrize("entry_bound", [1, 2, 3, 4, 5, 6, 7, 10**6])
    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (6, 6)])
    def test_matches_the_fraction_draws(self, entry_bound, rows, cols):
        for seed in range(4):
            rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
            m = _raw_matrix(rng, entry_bound, rows, cols)
            expected = fraction_draws(ref_rng, entry_bound, rows, cols)
            assert (m.num, m.den) == (expected.num, expected.den)
            assert rng.state == ref_rng.state  # the same number of draws


class TestRandomPair:
    def test_complex_only(self):
        for seed in range(5):
            cfg = GenConfig(seed=seed, max_dim=6, complex_only=True)
            p = random_pair(cfg, cfg.rng())
            assert (p.s @ p.t).is_zero()
            assert (p.t @ p.s).is_zero()

    def test_zero_budget_forces_complex(self):
        for seed in range(5):
            cfg = GenConfig(seed=seed, max_dim=6, rank_budget=0)
            p = random_pair(cfg, cfg.rng())
            assert (p.s @ p.t).is_zero()
            assert (p.t @ p.s).is_zero()

    def test_budget_respected(self):
        for seed in range(10):
            cfg = GenConfig(seed=seed, max_dim=5, rank_budget=1)
            p = random_pair(cfg, cfg.rng())
            assert (p.s @ p.t).rank <= 1
            assert (p.t @ p.s).rank <= 1

    def test_determinism(self):
        cfg = GenConfig(seed=12345, max_dim=6, rank_budget=2)
        assert random_pair(cfg, cfg.rng()) == random_pair(cfg, cfg.rng())

    def test_non_complex_instances_occur(self):
        cfg = GenConfig(seed=8, max_dim=6, rank_budget=2)
        rng = cfg.rng()
        assert any(
            not (p.s @ p.t).is_zero() for p in (random_pair(cfg, rng) for _ in range(20))
        )


class TestRandomChain:
    def test_complex_only(self):
        cfg = GenConfig(seed=5, max_dim=5, complex_only=True)
        c = random_chain(cfg, 4, cfg.rng())
        assert not any(r.dim for r in c.composition_ranges)

    def test_budget_respected(self):
        for seed in range(8):
            cfg = GenConfig(seed=seed, max_dim=5, rank_budget=1)
            c = random_chain(cfg, 4, cfg.rng())
            down = _down(c.maps, c.dims)
            for p in range(1, c.top_degree):
                assert (down[p] @ down[p + 1]).rank <= 1

    def test_length_one(self):
        cfg = GenConfig(seed=6, max_dim=5)
        c = random_chain(cfg, 1, cfg.rng())
        assert c.top_degree == 1

    def test_length_validation(self):
        with pytest.raises(PreconditionError):
            cfg = GenConfig(seed=6, max_dim=5)
            random_chain(cfg, 0, cfg.rng())

    def test_determinism(self):
        cfg = GenConfig(seed=777, max_dim=5)
        assert random_chain(cfg, 3, cfg.rng()) == random_chain(cfg, 3, cfg.rng())

    def test_zero_dims_occur(self):
        cfg = GenConfig(seed=9, max_dim=3)
        rng = cfg.rng()
        dims = [d for _ in range(10) for d in random_chain(cfg, 3, rng).dims]
        assert 0 in dims


class TestSeeding:
    def test_child_seeds_differ(self):
        seeds = {child_seed(42, i) for i in range(100)}
        assert len(seeds) == 100

    def test_stream_is_platform_independent(self):
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == first
