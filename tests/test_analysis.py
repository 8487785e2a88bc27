"""Derived objects kept on the instance: every verifier run on one instance
reads the same defects, induced pair and extensions, each of them is derived
once per instance, and the cached inverse bundle that every verifier reads is
the Moore-Penrose one."""

import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import fredpairs
from fredpairs import (
    ChainInstance,
    InvariantError,
    PairInstance,
    RatMatrix,
    build_extensions,
    chains,
    fold_to_pair,
    kernel_basis,
    pairs,
    quotient_chain,
    verify_remark_2_3,
    verify_theorem_3_4,
    verify_theorem_3_6,
    verify_theorem_4_2,
    verify_theorem_4_4,
)
from fredpairs.cli import main
from fredpairs.generators import GenConfig, random_chain, random_pair

from conftest import mat


def fuzz_pairs(seed, count):
    cfg = GenConfig(seed=seed, max_dim=6)
    rng = cfg.rng()
    return [random_pair(cfg, rng) for _ in range(count)]


def fuzz_chains(seed, count):
    cfg = GenConfig(seed=seed, max_dim=6)
    rng = cfg.rng()
    return [random_chain(cfg, rng.randint(1, 4), rng) for _ in range(count)]


# An instance keeps what was derived from it, so a test that must see objects
# derived afresh takes a copy: ``replace(instance)`` has equal fields and
# nothing derived yet.
PAIRS = fuzz_pairs(41, 12)
CHAINS = fuzz_chains(43, 8)


def record_operands(monkeypatch, method):
    """Record the operands of every call to the ``RatMatrix`` operator ``method``."""
    seen = []
    original = getattr(RatMatrix, method)

    def recorded(a, b):
        seen.append((a, b))
        return original(a, b)

    monkeypatch.setattr(RatMatrix, method, recorded)
    return seen


def times(seen, a, b) -> int:
    return sum(x is a and y is b for x, y in seen)


class TestSharedObjects:
    def test_folded_pair_is_the_fold(self):
        for chain in map(replace, CHAINS):
            for verify in (verify_remark_2_3, verify_theorem_4_2, verify_theorem_4_4):
                assert verify(chain).passed
            folded = fold_to_pair(chain)
            assert chain.folded == folded
            # the fold the chain verifiers already used reports as a fresh one
            for verify in (verify_theorem_3_4, verify_theorem_3_6):
                assert verify(chain.folded) == verify(folded)

    def test_a_chain_and_its_folded_pair_form_no_cycle(self):
        # The folded pair reads the chain's per-degree objects through a copy,
        # so a verified chain is freed by reference counting alone.
        chain = replace(next(c for c in CHAINS if len(c.maps) >= 2))
        for verify in (verify_remark_2_3, verify_theorem_4_2, verify_theorem_4_4):
            assert verify(chain).passed
        folded = chain.folded
        # its folded q_x kills R(TS), which the folded pair does not hold
        assert kernel_basis(folded.induced.q_x.projection) == folded.range_ts
        alive = weakref.ref(chain)
        gc.disable()
        try:
            del chain
            assert alive() is None
        finally:
            gc.enable()

    def test_verifying_leaves_no_cyclic_garbage(self):
        # Every derived object is freed by reference counting alone; a zero
        # matrix whose cached rref held the matrix itself once left cycles.
        pairs_61, chains_61 = fuzz_pairs(61, 8), fuzz_chains(61, 8)
        gc.collect()
        saved = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for pair in map(replace, pairs_61):
                assert verify_theorem_3_4(pair).passed and verify_theorem_3_6(pair).passed
            for chain in map(replace, chains_61):
                for verify in (verify_remark_2_3, verify_theorem_4_2, verify_theorem_4_4):
                    assert verify(chain).passed
            del pair, chain
            gc.collect()
            garbage = gc.garbage[saved:]
        finally:
            gc.set_debug(0)
            del gc.garbage[saved:]
        assert not garbage, f"{len(garbage)} objects were left in reference cycles"

    def test_custom_bundle_differs_from_default(self):
        pair = PairInstance(2, 1, mat([[1, 0]]), mat([[0], [1]]))
        bundle = build_extensions(pair, s_tilde_prime=mat([[1]]), t_tilde_prime=mat([[7]]))
        report = verify_theorem_3_6(pair, bundle)
        assert report == verify_theorem_3_6(replace(pair), bundle)
        assert report != verify_theorem_3_6(pair)
        # a custom bundle is not kept in place of the default one
        assert pair.extensions != bundle
        assert verify_theorem_3_6(pair) == verify_theorem_3_6(replace(pair))


class TestComputedOnce:
    def count_calls(self, monkeypatch, targets):
        calls = {name: [] for _, name in targets}
        for module, name in targets:
            original = getattr(module, name)

            def counted(instance, *args, _name=name, _original=original, **kwargs):
                calls[_name].append(instance)
                return _original(instance, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def verify_all(self, tmp_path, capsys, obj):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["verify", "--all", str(path)]) == 0
        return json.loads(capsys.readouterr().out)["reports"]

    def test_pair_verify(self, tmp_path, capsys, monkeypatch):
        # a pair with a nonzero composition, so its induced pair differs from it
        pair = next(p for p in PAIRS if p.range_st.dim or p.range_ts.dim)
        calls = self.count_calls(
            monkeypatch,
            [(pairs, "pair_defects"), (pairs, "induced_pair"), (pairs, "build_extensions")],
        )
        reports = self.verify_all(tmp_path, capsys, pair.to_json_obj())
        assert len(reports) == 2
        # none of them runs on the induced pair, whose index its shapes give
        assert calls["pair_defects"] == calls["induced_pair"] == calls["build_extensions"] == [pair]

    def test_chain_verify(self, tmp_path, capsys, monkeypatch):
        chain = ChainInstance((1, 1, 1), (mat([[1]]), mat([[1]])))
        folded = fold_to_pair(chain)
        calls = self.count_calls(
            monkeypatch,
            [
                (chains, "chain_defects"),
                (chains, "quotient_chain"),
                (chains, "fold_to_pair"),
                (pairs, "pair_defects"),
                (pairs, "induced_pair"),
                (pairs, "build_extensions"),
            ],
        )
        # quotient's only argument is the subspace it kills
        chain_quotients = self.count_calls(monkeypatch, [(chains, "quotient")])["quotient"]
        pair_quotients = self.count_calls(monkeypatch, [(pairs, "quotient")])["quotient"]
        reports = self.verify_all(tmp_path, capsys, chain.to_json_obj())
        assert len(reports) == 5
        for name in ("chain_defects", "quotient_chain", "fold_to_pair"):
            assert calls[name] == [chain]
        assert calls["pair_defects"].count(folded) == 1
        # the folded pair's quotients and induced maps are the chain's, summed
        assert calls["induced_pair"] == []
        assert calls["build_extensions"] == [folded]
        assert chain_quotients == list(chain.composition_ranges) and pair_quotients == []

    def test_remark_2_3_builds_no_quotient_or_inverse(self, tmp_path, capsys, monkeypatch):
        # a chain whose folded composition ranges are nonzero, which its
        # folded defects report
        chain = ChainInstance((1, 1, 1), (mat([[1]]), mat([[1]])))
        calls = self.count_calls(
            monkeypatch, [(chains, "quotient_chain"), (RatMatrix, "pseudoinverse")]
        )
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain.to_json_obj()), encoding="utf-8")
        assert main(["verify", "--remark23", str(path)]) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["details"]["dim_range_st"] + report["details"]["dim_range_ts"] == 1
        assert calls == {"quotient_chain": [], "pseudoinverse": []}

    def test_pair_verifiers_share_one_instance(self, monkeypatch):
        # a pair with a nonzero composition, so its induced pair differs from
        # it, and a complex of nonzero maps, which is its own induced pair
        noncomplex = next(p for p in PAIRS if p.range_st.dim or p.range_ts.dim)
        complex_pair = next(
            p
            for p in PAIRS
            if not (p.range_st.dim or p.range_ts.dim or p.s.is_zero() or p.t.is_zero())
        )
        calls = self.count_calls(
            monkeypatch,
            [(pairs, "pair_defects"), (pairs, "induced_pair"), (pairs, "build_extensions")],
        )
        products = record_operands(monkeypatch, "__matmul__")
        sums = record_operands(monkeypatch, "__add__")
        for pair in map(replace, (noncomplex, complex_pair)):
            for seen in (*calls.values(), products, sums):
                seen.clear()
            assert verify_theorem_3_4(pair).passed and verify_theorem_3_6(pair).passed
            for name in ("pair_defects", "induced_pair", "build_extensions"):
                assert len(calls[name]) == 1 and calls[name][0] is pair
            assert times(products, pair.s, pair.t) == times(products, pair.t, pair.s) == 1
            bundle = pair.extensions
            assert times(sums, pair.s, bundle.t_prime) == times(sums, pair.t, bundle.s_prime) == 1

    def test_no_rank_is_taken_for_an_index(self, monkeypatch):
        # S + T', T + S' and the two parity operators are only ever read for
        # their index, which their shapes determine, so none is row reduced.
        def nonzero_plus(pair):
            bundle = pair.extensions
            return not (bundle.s_plus.is_zero() or bundle.t_plus.is_zero())

        pair = replace(next(p for p in PAIRS if nonzero_plus(p)))
        chain = replace(next(c for c in CHAINS if nonzero_plus(c.folded)))
        folded = chain.folded  # S and T, before recording
        reduced, parity = [], []
        rref, add = RatMatrix.rref, RatMatrix.__add__

        def recorded_rref(m):
            reduced.append(m)
            return rref(m)

        def recorded_add(a, b):
            total = add(a, b)
            # the parity operators e, o and the folded pair's S + T', T + S'
            if a is folded.s or a is folded.t:
                parity.append(total)
            return total

        monkeypatch.setattr(RatMatrix, "rref", recorded_rref)
        monkeypatch.setattr(RatMatrix, "__add__", recorded_add)
        assert verify_theorem_3_4(pair).passed and verify_theorem_4_2(chain).passed
        assert reduced and len(parity) == 4
        indexed = (pair.extensions.s_plus, pair.extensions.t_plus, *parity)
        assert not any(m is x for m in reduced for x in indexed)

    def test_theorem_4_4_forms_no_composition(self, monkeypatch):
        chain = replace(next(c for c in CHAINS if len(c.maps) >= 2))
        chain.quotient  # forms the compositions it quotients by, before recording
        products = record_operands(monkeypatch, "__matmul__")
        assert verify_theorem_4_4(chain).passed
        maps = chain.maps
        assert not any(times(products, a, b) for a, b in zip(maps, maps[1:]))

    def test_theorem_4_4_forms_two_products_per_degree_of_a_complex(self, monkeypatch):
        # d_1 d_2 = 0 with both maps nonzero: nothing is killed, so each
        # quotient Laplacian is the original one, formed once
        chain = ChainInstance.from_json_obj({"dims": [1, 2, 1], "maps": [[[0, 1]], [[1], [0]]]})
        chain.defects, chain.quotient
        products = record_operands(monkeypatch, "__matmul__")
        assert verify_theorem_4_4(chain).passed
        assert len(products) == 2 * len(chain.dims)

    def test_theorem_4_4_builds_no_bundle(self, monkeypatch):
        # each d~'_p it reads was checked when the quotient chain was built
        calls = self.count_calls(monkeypatch, [(pairs, "build_extensions")])
        for chain in map(replace, CHAINS):
            assert verify_theorem_4_4(chain).passed
        assert calls["build_extensions"] == []

    def test_default_folded_bundle_only_lifts(self, monkeypatch):
        # S~+ and T~+ are folds of per-degree inverses checked when the
        # quotient chain was built, so the default bundle checks nothing on
        # the folds: it multiplies only to lift them through the quotients
        folds = [replace(c).folded for c in CHAINS]
        for folded in folds:
            folded.induced  # the per-degree checks run here, before recording
        products = record_operands(monkeypatch, "__matmul__")
        lifts = 0
        for folded in folds:
            products.clear()
            folded.extensions
            ind = folded.induced
            lifting = [(q.section, q.projection) for q in (ind.q_x, ind.q_y)]
            for a, b in products:
                assert any(a is section or b is projection for section, projection in lifting)
            lifts += len(products)
        assert lifts

    def test_theorem_4_4_forms_quotient_laplacians_next_to_a_range(self, monkeypatch):
        # R(d_1 d_2) in X_0 and R(d_2 d_3) in X_1 are nonzero, so degrees 0,
        # 1 and 2 have a quotient-level factor of their own; degree 3 has none
        swap, first = [[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
        chain = ChainInstance.from_json_obj({"dims": [3, 3, 3, 3], "maps": [swap, first, first]})
        chain.defects
        qc = chain.quotient
        products = record_operands(monkeypatch, "__matmul__")
        assert verify_theorem_4_4(chain).passed
        maps_t, inverses_t = qc.maps_tilde, qc.inverses_tilde
        # d~_3 and d~'_3 are d_3 and d'_3 themselves, so the Laplacian of
        # degree 2 forms d~_3 d~'_3 twice, once for itself and once for its
        # quotient Laplacian, and that of degree 3 forms d~'_3 d~_3 once
        assert maps_t[2] is chain.maps[2] and inverses_t[2] is qc.extended_inverses[2]
        assert [times(products, d, i) for d, i in zip(maps_t, inverses_t)] == [1, 1, 2]
        assert [times(products, i, d) for d, i in zip(maps_t, inverses_t)] == [1, 1, 1]

    def test_theorem_3_6_forms_no_quotient_laplacian_of_a_complex(self, monkeypatch):
        noncomplex = replace(next(p for p in PAIRS if p.range_st.dim or p.range_ts.dim))
        complex_pair = replace(
            next(
                p
                for p in PAIRS
                if not (p.range_st.dim or p.range_ts.dim or p.s.is_zero() or p.t.is_zero())
            )
        )
        for pair in (noncomplex, complex_pair):
            pair.defects, pair.induced, pair.extensions
        products = record_operands(monkeypatch, "__matmul__")
        for pair, formed in ((noncomplex, 1), (complex_pair, 0)):
            products.clear()
            assert verify_theorem_3_6(pair).passed
            ind, b = pair.induced, pair.extensions
            tilde_products = [
                (b.s_tilde_prime, ind.s_tilde),
                (ind.t_tilde, b.t_tilde_prime),
                (b.t_tilde_prime, ind.t_tilde),
                (ind.s_tilde, b.s_tilde_prime),
            ]
            # for the complex these are the factors of lap_x and lap_y, formed once
            assert [times(products, x, y) for x, y in tilde_products] == [1] * 4
            assert len(products) == 7 + 4 * formed

    def test_chain_compositions_formed_once(self, monkeypatch):
        products = record_operands(monkeypatch, "__matmul__")
        cfg = GenConfig(seed=47, max_dim=6)
        rng = cfg.rng()
        for _ in range(8):
            chain = random_chain(cfg, rng.randint(1, 5), rng)
            quotient_chain(chain)
            maps = chain.maps
            # the budget check and the quotients share one d_p d_{p+1} per degree,
            # and none is formed for the two top degrees, whose ranges are zero
            assert len(chain.composition_ranges) == len(maps) + 1
            assert all(times(products, a, b) == 1 for a, b in zip(maps, maps[1:]))


def test_induced_map_checks_invariance_under_optimized_python():
    code = (
        "from fredpairs import *\n"
        "print(__debug__)\n"
        "kill = quotient(Subspace.spanned_by(RatMatrix.from_rows([[0, 1]])))\n"
        "keep = quotient(Subspace.zero(2))\n"
        "try:\n"
        "    induced_map(RatMatrix.identity(2), kill, keep)\n"
        "except PreconditionError:\n"
        "    print('PreconditionError')\n"
    )
    src = str(Path(fredpairs.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (0, "False\nPreconditionError\n"), done.stderr


# -- the default inverse bundle ---------------------------------------


def penrose_failures(a, g) -> list[str]:
    ag, ga = a @ g, g @ a
    identities = {
        "AGA = A": ag @ a == a,
        "GAG = G": g @ ag == g,
        "AG symmetric": ag.transpose() == ag,
        "GA symmetric": ga.transpose() == ga,
    }
    return [name for name, holds in identities.items() if not holds]


def check_default_bundles():
    """Every default bundle is normalized, chain compatible and Moore-Penrose."""
    instances = [replace(p) for p in PAIRS] + [replace(c).folded for c in CHAINS]
    for pair in instances:
        ind, bundle = pair.induced, pair.extensions
        assert bundle.normalized and bundle.chain_compatible
        assert penrose_failures(ind.s_tilde, bundle.s_tilde_prime) == []
        assert penrose_failures(ind.t_tilde, bundle.t_tilde_prime) == []


def test_default_bundle_is_moore_penrose():
    check_default_bundles()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda g: g + g,
        # only square ones, so that every shape stays valid
        lambda g: g.transpose() if g.rows == g.cols else g,
    ],
    ids=["twice", "transpose"],
)
def test_bundle_check_catches_a_wrong_pseudoinverse(monkeypatch, corrupt):
    # The Moore-Penrose check above fails on the corrupted inverses ...
    instances = [replace(p) for p in PAIRS] + [replace(c).folded for c in CHAINS]
    assert any(
        penrose_failures(m, corrupt(m.pseudoinverse()))
        for pair in instances
        for m in (pair.induced.s_tilde, pair.induced.t_tilde)
    )
    # ... and build_extensions refuses them before any bundle is made.
    pseudoinverse = RatMatrix.pseudoinverse
    monkeypatch.setattr(RatMatrix, "pseudoinverse", lambda self: corrupt(pseudoinverse(self)))
    with pytest.raises(InvariantError, match="pseudoinverses of the induced pair"):
        check_default_bundles()
