import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_subspaces as reference
from _reference_kernels import gram_solve
from _reference_subspaces import complement, push_image
from fredpairs import (
    DimensionError,
    InvariantError,
    PreconditionError,
    RatMatrix,
    Subspace,
    hstack,
    image_basis,
    induced_map,
    kernel_basis,
    quotient,
)
from fredpairs import matrices
from fredpairs.generators import GenConfig, random_matrix
from fredpairs.subspaces import defect_numbers, lift, orthogonal_complement

from conftest import mat


def span(rows, cols=None):
    return Subspace.spanned_by(mat(rows, cols=cols))


entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, "1/2", "-5/3"])


@st.composite
def spanning_sets(draw, n):
    """A subspace of Q^n from up to n + 2 rows, often with dependent rows."""
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n + 2))
    if len(rows) >= 2 and draw(st.booleans()):
        first_two = mat(rows[:2], cols=n)
        rows.append([a + b for a, b in zip(*first_two.entries)])
    return Subspace.spanned_by(mat(rows, cols=n))


@st.composite
def killed_subspaces(draw, n):
    """A subspace of Q^n to quotient by; the zero subspace a third of the time."""
    return Subspace.zero(n) if draw(st.integers(0, 2)) == 0 else draw(spanning_sets(n))


@st.composite
def maps(draw, rows, cols):
    grid = st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return mat(draw(grid), cols=cols)


@st.composite
def any_shape_maps(draw, max_dim=6):
    return draw(maps(draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))))


def complement_construction(n, killed):
    """(projection, section) of Q^n / killed with no short-cut: (C C^T)^-1 C,
    solved in Fractions by the reference, and C^T."""
    c = orthogonal_complement(killed).basis
    return gram_solve(c), c.transpose()


@st.composite
def subspace_pairs(draw, max_dim=6):
    n = draw(st.integers(0, max_dim))
    u = draw(spanning_sets(n))
    kind = draw(st.sampled_from(["random", "zero", "full", "same"]))
    if kind == "random":
        v = draw(spanning_sets(n))
    else:
        v = {"zero": Subspace.zero(n), "full": Subspace.full(n), "same": u}[kind]
    return (v, u) if draw(st.booleans()) else (u, v)


class TestKernelAndImage:
    def test_kernel_examples(self):
        assert kernel_basis(mat([[1, 0], [0, 0]])) == span([[0, 1]])
        # an injective map has no free column, so its kernel is no rows over den 1
        assert kernel_basis(RatMatrix.identity(3)) == Subspace.zero(3)
        assert kernel_basis(mat([["1/2", 0], [1, 3], [0, "2/5"]])) == Subspace.zero(2)
        assert kernel_basis(RatMatrix.zero(2, 0)) == Subspace.zero(0)
        assert kernel_basis(mat([[1, 1]])) == span([[1, -1]])

    def test_kernel_vectors_annihilate(self):
        cfg = GenConfig(seed=11, max_dim=6)
        rng = cfg.rng()
        for _ in range(10):
            a = random_matrix(cfg, 4, 5, rng.randint(0, 4), rng)
            k = kernel_basis(a)
            assert (a @ k.basis.transpose()).is_zero()

    def test_zero_matrix_kernel_is_everything(self):
        for rows in range(4):
            for cols in range(5):
                full = Subspace.spanned_by(RatMatrix.identity(cols))
                assert kernel_basis(RatMatrix.zero(rows, cols)) == full == Subspace.full(cols)

    def test_image_examples(self):
        assert image_basis(mat([[1, 0], [0, 0]])) == span([[1, 0]])
        assert image_basis(RatMatrix.zero(2, 2)) == Subspace.zero(2)
        assert image_basis(mat([[1], [0]])) == span([[1, 0]], cols=2)

    def test_a_spanned_subspace_holds_the_reduced_matrix(self):
        # the rref holds its nonzero rows only, so the basis is that matrix, not a copy
        for m in (mat([[2, 4], [1, 2]]), RatMatrix.zero(2, 3), RatMatrix.identity(2)):
            assert Subspace.spanned_by(m).basis is m.rref().reduced


BIG = 2**100
wide_entries = st.one_of(
    entries,
    st.integers(-3, 3).map(lambda k: BIG + k),
    st.integers(-3, 3).map(lambda k: k - BIG),
    st.integers(1, 3).map(lambda k: f"-1/{BIG + k}"),
)


@st.composite
def patterned_maps(draw, max_dim=7):
    """(A, pivots): A = G R with R reduced on the chosen pivot columns and G of
    full column rank, so rref(A) pivots exactly there.

    Free columns come first, last or between the pivots, as the pattern
    falls; no pivot gives a zero matrix and no free column full column rank.
    """
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    pattern = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pivots = [c for c in range(n) if pattern[c]][:m]
    reduced = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for c in range(p + 1, n):
            if c not in pivots:
                row[c] = draw(wide_entries)
        reduced.append(row)
    r = len(pivots)
    # upper triangular with a nonzero diagonal, then any rows: full column rank
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = draw(st.sampled_from([1, -2, BIG + 1]))
        for j in range(i + 1, r):
            g[i][j] = draw(wide_entries)
    g += [[draw(wide_entries) for _ in range(r)] for _ in range(m - r)]
    g = draw(st.permutations(g)) if g else g
    return mat(g, cols=r) @ mat(reduced, cols=n), tuple(pivots)


def assert_kernel_matches_the_oracle(a):
    k = kernel_basis(a)
    expected = reference.spanned_kernel_basis(a)
    assert (k.basis.num, k.basis.den) == (expected.basis.num, expected.basis.den)
    assert k == expected
    assert (a @ k.basis.transpose()).is_zero()
    assert k.dim == a.cols - a.rank


class TestKernelOracle:
    """kernel_basis, read off one row reduction of A with its columns
    reversed, equals the span of the null rows of rref(A) reduced again."""

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([], 3),  # 0 x n
            ([[], [], []], 0),  # m x 0
            ([[0, 0, 0], [0, 0, 0]], 3),  # zero
            ([[1, 0, 2], [0, 1, 1], [3, 4, 0], [1, 1, 1]], 3),  # full column rank
            ([[0, 1, 2], [0, 2, 4]], 3),  # the free column first
            ([[1, 2, 0], [0, 1, 0]], 3),  # the free column last
            ([[1, 2, 0, 3, 5], [0, 0, 1, 4, 6]], 5),  # free columns between pivots
            ([[BIG, BIG + 1, 0], ["1/3", BIG - 1, 1]], 3),  # entries near 2^100
        ],
    )
    def test_examples(self, rows, cols):
        assert_kernel_matches_the_oracle(mat(rows, cols=cols))

    @given(patterned_maps())
    @settings(max_examples=300, deadline=None)
    def test_pivot_patterns(self, case):
        a, pivots = case
        assert a.rref().pivot_columns == pivots
        assert_kernel_matches_the_oracle(a)

    @given(any_shape_maps())
    @settings(max_examples=300, deadline=None)
    def test_random_maps(self, a):
        assert_kernel_matches_the_oracle(a)


@st.composite
def composable_maps(draw, max_dim=6):
    """(A, B) with A after B; one of them zero half the time, and sometimes
    with columns of B chosen inside N(A), so that the meet is not zero."""
    m, n, k = (draw(st.integers(0, max_dim)) for _ in range(3))
    a, b = draw(maps(m, n)), draw(maps(n, k))
    kind = draw(st.sampled_from(["random", "zero_a", "zero_b", "meeting"]))
    if kind == "zero_a":
        a = RatMatrix.zero(m, n)
    elif kind == "zero_b":
        b = RatMatrix.zero(n, k)
    elif kind == "meeting":
        null = kernel_basis(a).basis.transpose()
        b = hstack(null @ draw(maps(null.cols, draw(st.integers(1, 3)))), b)
    return a, b


class TestDefectNumbers:
    @settings(max_examples=200, deadline=None)
    @given(composable_maps())
    def test_matches_the_meet(self, maps_ab):
        # The package's meet of the canonical subspaces is the oracle.
        a, b = maps_ab
        n, r = kernel_basis(a), image_basis(b)
        meet = (n & r).dim
        assert defect_numbers(a, b) == (n.dim - meet, r.dim - meet)

    @settings(max_examples=200, deadline=None)
    @given(composable_maps())
    def test_matches_the_stacked_rank_and_rank_nullity(self, maps_ab):
        # R(B) / (N(A) & R(B)) is isomorphic to A(R(B)) = R(AB).
        a, b = maps_ab
        a_defect, b_defect = defect_numbers(a, b)
        assert (a_defect, b_defect) == reference.stacked_defect_numbers(a, b)
        assert b_defect == image_basis(a @ b).dim

    def test_a_complex_row_reduces_its_maps_and_the_small_product(self, monkeypatch):
        # R(B) = N(A) with 0 < nullity < cols: besides A and B, only the
        # rank(A) x rank(B) product of the reduced rows of A and the pivot
        # columns of B is row-reduced, a zero 1 x 2 matrix with no pivot.
        calls = []
        rref_rows = matrices.rref_rows

        def counted(rows, ncols):
            calls.append(len(rows))
            return rref_rows(rows, ncols)

        monkeypatch.setattr(matrices, "rref_rows", counted)
        a, b = mat([[1, 1, 0]]), mat([[1, 0], [-1, 0], [0, 1]])
        assert defect_numbers(a, b) == (0, 0)
        assert calls == [1, 3, 1]

    def test_examples(self):
        # N(A) = span(e2) = R(B): the meet is everything of both
        assert defect_numbers(mat([[1, 0]]), mat([[0], [1]])) == (0, 0)
        # R(B) = span(e1) misses N(A) = span(e2)
        assert defect_numbers(mat([[1, 0]]), mat([[1], [0]])) == (1, 1)
        # An injective A: N(A) = 0, so all of R(B) is the second defect
        assert defect_numbers(mat([[1, 0], [0, 1], [1, 1]]), mat([[1, 3], [2, 6]])) == (0, 1)
        # A zero B: R(B) = 0, so all of N(A) is the first defect
        assert defect_numbers(mat([[1, 0, 0]]), RatMatrix.zero(3, 2)) == (2, 0)
        assert defect_numbers(RatMatrix.zero(0, 3), RatMatrix.zero(3, 0)) == (3, 0)
        assert defect_numbers(RatMatrix.zero(2, 0), RatMatrix.zero(0, 2)) == (0, 0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            defect_numbers(RatMatrix.zero(1, 2), RatMatrix.zero(3, 1))

    @pytest.mark.parametrize("a", [[[1, 0]], [[1, 0, 0], [0, 1, 0]]], ids=["rank_0", "null_rows"])
    def test_a_rank_too_small_raises(self, monkeypatch, a):
        # The defects differ by cols - rank(A) - rank(B) for any ranks, so a
        # rref that loses a pivot must be caught by the null-row check.
        rref_rows = matrices.rref_rows

        def lose_last_pivot(rows, ncols):
            reduced, pivots = rref_rows(rows, ncols)
            return reduced, pivots[:-1]

        monkeypatch.setattr(matrices, "rref_rows", lose_last_pivot)
        with pytest.raises(InvariantError):
            defect_numbers(mat(a), RatMatrix.zero(len(a[0]), 1))


class TestLattice:
    def test_sum(self):
        assert span([[1, 0]]) + span([[0, 1]]) == Subspace.full(2)
        u = span([[1, 2, 3]])
        assert u + u == u
        assert span([[1, 1]]) + span([[1, -1]]) == Subspace.full(2)

    def test_intersection(self):
        assert (span([[1, 0]]) & span([[0, 1]])) == Subspace.zero(2)
        u = span([[1, 0, 1], [0, 1, 0]])
        assert (u & u) == u
        assert (Subspace.full(2) & span([[1, 1]])) == span([[1, 1]])

    def test_modular_dimension_law(self):
        cfg = GenConfig(seed=5, max_dim=6)
        rng = cfg.rng()
        for _ in range(20):
            cols_u, cols_v = rng.randint(1, 4), rng.randint(1, 4)
            u = image_basis(random_matrix(cfg, 5, cols_u, rng.randint(0, min(3, cols_u)), rng))
            v = image_basis(random_matrix(cfg, 5, cols_v, rng.randint(0, min(3, cols_v)), rng))
            assert u.dim + v.dim == (u + v).dim + (u & v).dim

    @settings(max_examples=150, deadline=None)
    @given(subspace_pairs())
    def test_meet_matches_zassenhaus(self, pair):
        u, v = pair
        meet = u & v
        assert meet == reference.zassenhaus_meet(u, v)
        assert meet.dim == u.dim + v.dim - (u + v).dim
        assert u.contains(meet) and v.contains(meet)

    def test_meet_of_ambient_zero(self):
        assert Subspace.zero(0) & Subspace.full(0) == Subspace.zero(0)

    def test_contains(self):
        assert Subspace.full(2).contains(span([[1, 1]]))
        assert not span([[1, 0]]).contains(span([[0, 1]]))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            span([[1, 0]]) + span([[1]])


class TestComplement:
    def test_orthogonal_complement_in_plane(self):
        w = complement(span([[1, 1]]), Subspace.full(2))
        assert w.complement == span([[1, -1]])

    def test_trivial_parts(self):
        w = span([[1, 0, 2], [0, 1, 1]])
        assert complement(Subspace.zero(3), w).complement == w
        assert complement(w, w).complement == Subspace.zero(3)

    def test_direct_sum_invariants(self):
        cfg = GenConfig(seed=17, max_dim=6)
        rng = cfg.rng()
        for _ in range(15):
            within = image_basis(random_matrix(cfg, 5, 4, rng.randint(0, 4), rng))
            part = image_basis(
                random_matrix(cfg, 5, 4, rng.randint(0, within.dim) if within.dim else 0, rng)
            )
            part = part & within
            w = complement(part, within)
            assert (w.part + w.complement) == within
            assert (w.part & w.complement) == Subspace.zero(5)


class TestQuotient:
    def test_kill_axis(self):
        q = quotient(span([[0, 1]]))
        assert q.projection == mat([[1, 0]])
        assert q.section == mat([[1], [0]])

    def test_trivial_quotient(self):
        q = quotient(Subspace.zero(3))
        assert q.projection == RatMatrix.identity(3)
        assert q.section == RatMatrix.identity(3)

    def test_full_quotient(self):
        q = quotient(Subspace.full(1))
        assert q.quotient_dim == 0
        assert q.projection.shape == (0, 1)

    def test_trivial_quotient_is_the_complement_construction(self):
        for n in range(7):
            q = quotient(Subspace.zero(n))
            assert (q.projection, q.section) == complement_construction(n, Subspace.zero(n))
            assert q.quotient_dim == n

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), killed_subspaces(n))))
    def test_complement_construction(self, case):
        n, killed = case
        q = quotient(killed)
        assert (q.projection, q.section) == complement_construction(n, killed)
        assert q.quotient_dim == n - killed.dim
        assert q.killed_dim == killed.dim

    def test_invariants_random(self):
        cfg = GenConfig(seed=23, max_dim=6)
        rng = cfg.rng()
        for _ in range(15):
            killed = image_basis(random_matrix(cfg, 5, 3, rng.randint(0, 3), rng))
            q = quotient(killed)
            assert q.projection @ q.section == RatMatrix.identity(q.quotient_dim)
            assert kernel_basis(q.projection) == killed
            assert q.quotient_dim == 5 - killed.dim


class TestInducedMap:
    def test_identity_quotients(self):
        a = mat([[1, 2], [3, 4]])
        q = quotient(Subspace.zero(2))
        assert induced_map(a, q, q) == a

    def test_commuting_square(self):
        q = quotient(span([[0, 1]]))
        assert induced_map(RatMatrix.identity(2), q, q) == mat([[1]])

    def test_invariance_violation(self):
        q_triv = quotient(Subspace.zero(2))
        q_kill = quotient(span([[0, 1]]))
        # the identity does not map span{(0,1)} into 0
        with pytest.raises(PreconditionError):
            induced_map(RatMatrix.identity(2), q_kill, q_triv)


    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_three_product_formula(self, data):
        n_dom, n_cod = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        a = data.draw(maps(n_cod, n_dom))
        killed_dom = data.draw(killed_subspaces(n_dom))
        killed_cod = data.draw(killed_subspaces(n_cod))
        if data.draw(st.booleans()):
            killed_cod = killed_cod + push_image(a, killed_dom)
        q_dom, q_cod = quotient(killed_dom), quotient(killed_cod)
        if not killed_cod.contains(push_image(a, killed_dom)):
            with pytest.raises(PreconditionError):
                induced_map(a, q_dom, q_cod)
            return
        assert induced_map(a, q_dom, q_cod) == q_cod.projection @ a @ q_dom.section


class TestLift:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_three_product_formula(self, data):
        n_dom, n_cod = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        q_dom = quotient(data.draw(killed_subspaces(n_dom)))
        q_cod = quotient(data.draw(killed_subspaces(n_cod)))
        m = data.draw(maps(q_cod.quotient_dim, q_dom.quotient_dim))
        assert lift(m, q_dom, q_cod) == q_cod.section @ m @ q_dom.projection

    def test_shape_mismatch(self):
        q = quotient(span([[0, 1]]))
        with pytest.raises(DimensionError):
            lift(RatMatrix.identity(2), q, q)


class TestPushImage:
    def test_projection_image(self):
        assert push_image(mat([[1, 0]]), span([[1, 1]])) == Subspace.full(1)

    def test_zero_and_identity(self):
        assert push_image(mat([[1, 2], [3, 4]]), Subspace.zero(2)) == Subspace.zero(2)
        u = span([[1, 5]])
        assert push_image(RatMatrix.identity(2), u) == u
