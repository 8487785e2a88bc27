"""Per-instance analyses: the verifiers report the same on an analysis as on
an instance, one CLI call derives each object once, and the one cached
inverse bundle that every verifier reads is the Moore-Penrose one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fredpairs
from fredpairs import (
    ChainAnalysis,
    ChainInstance,
    PairAnalysis,
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


PAIRS = fuzz_pairs(41, 12)
CHAINS = fuzz_chains(43, 8)


class TestSameReports:
    def test_pair_verifiers(self):
        for pair in PAIRS:
            analysis = PairAnalysis(pair)
            assert verify_theorem_3_4(analysis) == verify_theorem_3_4(pair)
            assert verify_theorem_3_6(analysis) == verify_theorem_3_6(pair)

    def test_custom_bundle_on_an_analysis(self):
        pair = PairInstance(2, 1, mat([[1, 0]]), mat([[0], [1]]))
        bundle = build_extensions(pair, s_tilde_prime=mat([[1]]), t_tilde_prime=mat([[7]]))
        report = verify_theorem_3_6(PairAnalysis(pair), bundle)
        assert report == verify_theorem_3_6(pair, bundle)
        assert report != verify_theorem_3_6(pair)

    def test_chain_verifiers(self):
        for chain in CHAINS:
            analysis = ChainAnalysis(chain)
            for verify in (verify_remark_2_3, verify_theorem_4_2, verify_theorem_4_4):
                assert verify(analysis) == verify(chain)
            folded = fold_to_pair(chain)
            assert analysis.folded.pair == folded
            for verify in (verify_theorem_3_4, verify_theorem_3_6):
                assert verify(analysis.folded) == verify(folded)


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
    analyses = [PairAnalysis(p) for p in PAIRS] + [ChainAnalysis(c).folded for c in CHAINS]
    for analysis in analyses:
        ind, bundle = analysis.induced, analysis.extensions
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
