"""Derived objects kept on the instance: every verifier run on one instance
reads the same defects, induced pair and extensions, each of them is derived
once per instance, and the cached inverse bundle that every verifier reads is
the Moore-Penrose one."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fredpairs
from fredpairs import (
    ChainInstance,
    PairInstance,
    RatMatrix,
    build_extensions,
    chains,
    fold_to_pair,
    pairs,
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
        pair = next(p for p in PAIRS if any(pairs.composition_ranges(p)))
        calls = self.count_calls(
            monkeypatch,
            [(pairs, "pair_defects"), (pairs, "induced_pair"), (pairs, "build_extensions")],
        )
        reports = self.verify_all(tmp_path, capsys, pair.to_json_obj())
        assert len(reports) == 2
        assert calls["pair_defects"].count(pair) == 1
        assert calls["induced_pair"] == calls["build_extensions"] == [pair]

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
        reports = self.verify_all(tmp_path, capsys, chain.to_json_obj())
        assert len(reports) == 5
        for name in ("chain_defects", "quotient_chain", "fold_to_pair"):
            assert calls[name] == [chain]
        assert calls["pair_defects"].count(folded) == 1
        assert calls["induced_pair"] == calls["build_extensions"] == [folded]

    def test_pair_verifiers_share_one_instance(self, monkeypatch):
        # a pair with a nonzero composition, so its induced pair differs from it
        pair = replace(next(p for p in PAIRS if any(pairs.composition_ranges(p))))
        calls = self.count_calls(
            monkeypatch,
            [(pairs, "pair_defects"), (pairs, "induced_pair"), (pairs, "build_extensions")],
        )
        products = record_operands(monkeypatch, "__matmul__")
        sums = record_operands(monkeypatch, "__add__")
        assert verify_theorem_3_4(pair).passed and verify_theorem_3_6(pair).passed
        assert sum(p is pair for p in calls["pair_defects"]) == 1
        assert len(calls["induced_pair"]) == len(calls["build_extensions"]) == 1
        assert calls["induced_pair"][0] is calls["build_extensions"][0] is pair
        assert times(products, pair.s, pair.t) == times(products, pair.t, pair.s) == 1
        bundle = pair.extensions
        assert times(sums, pair.s, bundle.t_prime) == times(sums, pair.t, bundle.s_prime) == 1

    def test_theorem_4_4_forms_no_composition(self, monkeypatch):
        chain = replace(next(c for c in CHAINS if len(c.maps) >= 2))
        chain.quotient  # forms the compositions it quotients by, before recording
        products = record_operands(monkeypatch, "__matmul__")
        assert verify_theorem_4_4(chain).passed
        maps = chain.maps
        assert not any(times(products, a, b) for a, b in zip(maps, maps[1:]))


def test_induced_map_checks_invariance_under_optimized_python():
    code = (
        "from fredpairs import *\n"
        "print(__debug__)\n"
        "kill = quotient(2, Subspace.spanned_by(RatMatrix.from_rows([[0, 1]])))\n"
        "keep = quotient(2, Subspace.zero(2))\n"
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
        lambda g: g.scale(2),
        # only square ones, so that every shape stays valid
        lambda g: g.transpose() if g.rows == g.cols else g,
    ],
    ids=["twice", "transpose"],
)
def test_bundle_check_catches_a_wrong_pseudoinverse(monkeypatch, corrupt):
    pseudoinverse = RatMatrix.pseudoinverse
    monkeypatch.setattr(RatMatrix, "pseudoinverse", lambda self: corrupt(pseudoinverse(self)))
    with pytest.raises(AssertionError):
        check_default_bundles()
