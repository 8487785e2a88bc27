"""Printed ranks against ranks modulo P = 2^61 - 1, at sizes sympy cannot reach.

``tests/test_report_oracle.py`` recomputes every printed value with sympy,
but only up to max_dim 4.  Here the ranks come from ``_reference_modular``,
which has its own products and its own elimination, on the pinned fuzz
streams at max_dim 16 and 32 and on the seed-71 wide-range chains of
``tests/test_chains.py``.  Two things are checked for every instance:

- The defects from ranks alone.  dim(N(A) & R(B)) = rank B - rank AB, so
  a = (cols A - rank A) - (rank B - rank AB) and b = rank AB, for both
  orders of a pair, for the folded pair of a chain and for every chain
  degree.  The package counts the meet by a Schur product instead, so this
  is a separate derivation.
- Every printed rank or nullity, against the mod-P rank of the matrix the
  package built, formed here from the package's own factors: theorem 4.4's
  ``nullity``, ``corank``, ``nullity_tilde``, ``rank_perturbation`` and
  ``rank_bound``; theorem 3.6's ``rank_corrector`` and its two quotient
  Laplacian nullities; theorem 3.4's ``rank_s_minus_s_one``; and the
  defects, indices and composition ranks each report prints.

The printed values are read from the stdout of ``fuzz`` and ``verify
--all``, run in-process; the matrices from the instance rebuilt from the
JSON that was printed with it.  Run as a script, the module checks a saved
``fuzz`` stdout instead and exits 1 on a mismatch:

    python tests/test_modular_oracle.py FUZZ_STDOUT
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

from _reference_modular import ModMatrix
from fredpairs.chains import ChainInstance
from fredpairs.cli import _parse_instance, main


def mod(m) -> ModMatrix:
    return ModMatrix.of(m.rows, m.cols, m.num, m.den)


def defects_from_ranks(a: ModMatrix, b: ModMatrix) -> tuple[int, int]:
    """(a, b) for A after B, from rank A, rank B and rank AB alone."""
    rank_ab = (a @ b).rank()
    return (a.cols - a.rank()) - (b.rank() - rank_ab), rank_ab


class Mismatches(list):
    def compare(self, what: str, reported: int, expected: int):
        if reported != expected:
            self.append(f"{what}: {reported}, but {expected} by the mod-P ranks")


def pair_mismatches(pair, reports: dict, out: Mismatches, where: str) -> tuple[int, ...]:
    """Check the pair's defects and its theorem 3.4 and 3.6 reports, if
    printed; return its a, b, c, d by the mod-P ranks."""
    s, t = mod(pair.s), mod(pair.t)
    a, b = defects_from_ranks(s, t)
    c, d = defects_from_ranks(t, s)
    index = a - b - c + d
    package = pair.defects
    for name, value in zip("abcd", (a, b, c, d)):
        out.compare(f"{where} defect {name}", getattr(package, name), value)

    if "theorem_3_4" in reports:
        details = reports["theorem_3_4"]
        out.compare(f"{where} theorem 3.4 index", details["index"], index)
        out.compare(f"{where} theorem 3.4 dim_range_st", details["dim_range_st"], b)
        out.compare(f"{where} theorem 3.4 dim_range_ts", details["dim_range_ts"], d)
        ind = pair.induced
        s_one = mod(ind.q_y.section) @ mod(ind.s_tilde) @ mod(ind.q_x.projection)
        out.compare(
            f"{where} theorem 3.4 rank_s_minus_s_one",
            details["rank_s_minus_s_one"],
            (s - s_one).rank(),
        )

    if "theorem_3_6" in reports:
        details = reports["theorem_3_6"]
        out.compare(f"{where} theorem 3.6 a", details["a"], a)
        out.compare(f"{where} theorem 3.6 c", details["c"], c)
        out.compare(f"{where} theorem 3.6 rank_bound", details["rank_bound"], b + d)
        bundle, ind = pair.extensions, pair.induced
        s_prime, t_prime = mod(bundle.s_prime), mod(bundle.t_prime)
        s_plus, t_plus = s + t_prime, t + s_prime
        lap_x = t @ t_prime + s_prime @ s
        lap_y = s @ s_prime + t_prime @ t
        # V^2 = diag((T + S')(S + T'), (S + T')(T + S')), so F is block diagonal
        corrector = (t_plus @ s_plus - lap_x).rank() + (s_plus @ t_plus - lap_y).rank()
        out.compare(f"{where} theorem 3.6 rank_corrector", details["rank_corrector"], corrector)
        s_tilde, t_tilde = mod(ind.s_tilde), mod(ind.t_tilde)
        s_tp, t_tp = mod(bundle.s_tilde_prime), mod(bundle.t_tilde_prime)
        q_x, q_y = ind.q_x.quotient_dim, ind.q_y.quotient_dim
        out.compare(
            f"{where} theorem 3.6 nullity_lap_x_tilde",
            details["nullity_lap_x_tilde"],
            q_x - (t_tilde @ t_tp + s_tp @ s_tilde).rank(),
        )
        out.compare(
            f"{where} theorem 3.6 nullity_lap_y_tilde",
            details["nullity_lap_y_tilde"],
            q_y - (s_tilde @ s_tp + t_tp @ t_tilde).rank(),
        )
    return a, b, c, d


def padded(maps, dims, up: bool) -> list[ModMatrix]:
    """The family of ``maps`` between the zero maps at either end: d_0..d_{n+1}
    of degree-lowering maps, or d'_0..d'_{n+1} of degree-raising ones."""
    if up:
        return [ModMatrix.zero(dims[0], 0), *map(mod, maps), ModMatrix.zero(0, dims[-1])]
    return [ModMatrix.zero(0, dims[0]), *map(mod, maps), ModMatrix.zero(dims[-1], 0)]


def chain_mismatches(chain: ChainInstance, reports: dict, out: Mismatches, where: str):
    dims, n = chain.dims, chain.top_degree
    down = padded(chain.maps, dims, up=False)
    a, b = zip(*(defects_from_ranks(down[p], down[p + 1]) for p in range(n + 1)))
    index = sum((a_p - b_p) * (-1) ** p for p, (a_p, b_p) in enumerate(zip(a, b)))
    package = chain.defects
    for p in range(n + 1):
        out.compare(f"{where} a_{p}", package.a[p], a[p])
        out.compare(f"{where} b_{p}", package.b[p], b[p])
    fa, fb, fc, fd = pair_mismatches(chain.folded, reports, out, f"{where} folded")

    if "remark_2_3" in reports:
        details = reports["remark_2_3"]
        out.compare(f"{where} remark 2.3 chain_index", details["chain_index"], index)
        out.compare(f"{where} remark 2.3 pair_index", details["pair_index"], fa - fb - fc + fd)
        out.compare(f"{where} remark 2.3 sum_b", details["sum_b"], sum(b))
        out.compare(f"{where} remark 2.3 dim_range_st", details["dim_range_st"], fb)
        out.compare(f"{where} remark 2.3 dim_range_ts", details["dim_range_ts"], fd)

    if "theorem_4_4" in reports:
        qc = chain.quotient
        q_dims = [q.quotient_dim for q in qc.quotients]
        up = padded(qc.extended_inverses, dims, up=True)
        down_t = padded(qc.maps_tilde, q_dims, up=False)
        up_t = padded(qc.inverses_tilde, q_dims, up=True)
        for p, details in enumerate(reports["theorem_4_4"]["degrees"]):
            lap = down[p + 1] @ up[p + 1] + up[p] @ down[p]
            lap_t = down_t[p + 1] @ up_t[p + 1] + up_t[p] @ down_t[p]
            q = qc.quotients[p]
            lifted = mod(q.section) @ lap_t @ mod(q.projection)
            nullity = dims[p] - lap.rank()
            # R(d_{p+1} d_{p+2}) is killed at degree p, and it is b_{p+1}
            killed = (b[p + 1] if p < n else 0) + b[p]
            expected = {
                "nullity": nullity,
                "corank": nullity,
                "nullity_tilde": q_dims[p] - lap_t.rank(),
                "a_p": a[p],
                "rank_perturbation": (lap - lifted).rank(),
                "rank_bound": killed,
            }
            for name, value in expected.items():
                out.compare(f"{where} theorem 4.4 degree {p} {name}", details[name], value)


def instance_mismatches(instance, reports: list, where: str) -> list[str]:
    """What the printed ``reports`` of ``instance`` get wrong, by the mod-P ranks."""
    out = Mismatches()
    by_name = {r["name"]: r["details"] for r in reports}
    if isinstance(instance, ChainInstance):
        chain_mismatches(instance, by_name, out, where)
    else:
        pair_mismatches(instance, by_name, out, where)
    return out


def fuzz_mismatches(lines) -> list[str]:
    """The mismatches over the JSON lines of a ``fuzz`` stdout."""
    out = []
    for line in map(json.loads, lines):
        if "summary" in line:
            continue
        where = f"ordinal {line['ordinal']}"
        if "error" in line:
            out.append(f"{where}: {line['error']}")
            continue
        out += instance_mismatches(_parse_instance(line["instance"]), line["reports"], where)
    return out


def run_fuzz(tmp_path, *flags) -> list[str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(["fuzz", *flags, "--failures-dir", str(tmp_path / "failures")])
    return stdout.getvalue().splitlines()


D16 = ("--seed", "3", "--count", "20", "--max-dim", "16")
D32 = ("--seed", "3", "--count", "10", "--max-dim", "32")


@pytest.mark.parametrize("flags", [D16, D32], ids=["d16", "d32"])
def test_fuzz_stream_matches_the_modular_ranks(tmp_path, flags):
    lines = run_fuzz(tmp_path, *flags)
    assert len(lines) == int(flags[3]) + 1
    assert fuzz_mismatches(lines) == []


def test_wide_range_chains_match_the_modular_ranks(tmp_path):
    from test_chains import wide_range_chains

    path = tmp_path / "chain.json"
    mismatches = []
    for i, chain in enumerate(wide_range_chains()):
        path.write_text(json.dumps(chain.to_json_obj()))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["verify", "--all", str(path)]) == 0
        reports = json.loads(stdout.getvalue())["reports"]
        assert len(reports) == 5
        mismatches += instance_mismatches(chain, reports, f"chain {i}")
    assert mismatches == []


@pytest.mark.parametrize("name", ["nullity_one_more", "a_one_more", "meet_one_short"])
def test_the_oracle_flags_a_mutation_on_the_d16_stream(tmp_path, monkeypatch, name):
    from test_mutations import MUTATIONS

    targets, mutate, _ = MUTATIONS[name]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    mismatches = fuzz_mismatches(run_fuzz(tmp_path, *D16))
    # a printed value is wrong, not only an invariant that failed
    assert any("by the mod-P ranks" in m for m in mismatches)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} FUZZ_STDOUT")
    with open(sys.argv[1], encoding="utf-8") as handle:
        found = fuzz_mismatches(handle.read().splitlines())
    print("\n".join(found) or "every printed rank matches the mod-P ranks")
    sys.exit(1 if found else 0)
