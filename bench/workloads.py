"""The benchmark's workloads: seeded instance lists, the operation sent for
each instance, and the check applied to every output.

Every instance comes from the `fredpairs fuzz` stream: instance ``j`` of seed
``s`` is generated from ``child_seed(s, j)`` with fuzz's default settings
(rank budget 2, entry bound 5) at the workload's ``max_dim``; even ordinals
are pairs, odd ordinals chains whose length fuzz draws from 1..5.

Why each workload exists, and what a later change should predict for it:

fuzz-d6
    Instances as `fredpairs fuzz` makes them at its defaults (max_dim 6),
    each sent through `verify` with fuzz's own checks (pairs: thm34 and thm36;
    chains: --remark23 --thm42 --thm44).  Many tiny matrices: the cost is
    per-call overhead and the same objects derived again and again (ROADMAP
    item 3).  It exercises every layer, `mat_mul` most (about three times the
    time of `rref_rows`, with entries up to about 300 bits); it bypasses
    none, so it is where a change to the verify path must show its gain.
defects-d16
    The same stream at max_dim 16, but each instance only goes through
    `pair-report` or `chain-report`: the read path, where row reduction
    (kernel, image and meet in `subspaces`) takes most of the time and
    `mat_mul` under a tenth of it.  It
    exercises rref and the subspace meet (items 3 and 5b); it bypasses
    `mat_mul`-heavy code, the verifiers, quotients and inverses, so a
    verifier-caching or `mat_mul` change must leave it flat, and an analysis
    object that eagerly builds quotients or inverses a report never needs
    shows up here as a slowdown.

There is no max_dim 16 verify workload: a verified instance there takes from
milliseconds to seconds, so the few dozen a run can afford give figures that
move by 20% from seed to seed.  For the same reason the report workload runs
at max_dim 16, not 32: at 32 generating an instance costs about as much as
reporting on it, and a list long enough to be steady takes minutes to set up.

Cost grows steeply with the summed dimension of an instance, so a plain run
of a few dozen fuzz instances measures mostly which sizes the seed happened
to draw.  Each list therefore has a fixed size profile: per kind, the summed
dimension is split into equal-probability strata (computed exactly from
fuzz's uniform draws), every stratum gets a fixed quota, and the stream is
read in order, keeping each instance whose stratum still has room.  The seed
still decides every instance; only the mix of sizes is fixed.  A stratum
holds about one instance, so most strata are single sizes and the seed
barely moves the size profile.  An instance's dimensions are read from the
first draws of its generator, so only the instances kept are generated.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from fredpairs import cli, generators

FUZZ_RANK_BUDGET = 2
FUZZ_ENTRY_BOUND = 5
FUZZ_MAX_CHAIN_LENGTH = 5
KINDS = ("pair", "chain")


@dataclass(frozen=True)
class Workload:
    name: str
    max_dim: int
    command: str  # "verify" or "report"
    count: int  # instances in the list, half pairs and half chains


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzz-d6", max_dim=6, command="verify", count=300),
        Workload("defects-d16", max_dim=16, command="report", count=240),
    )
}


@dataclass(frozen=True)
class Item:
    """One generated instance, as the file the program under test reads."""

    ordinal: int  # position in the fuzz stream of the seed
    kind: str
    text: str  # the instance JSON, exactly as written to disk
    expected_index: int  # dim_x - dim_y for a pair, Euler characteristic for a chain


def _convolve(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def total_dim_pmf(max_dim: int, kind: str) -> list:
    """Exact distribution of the summed dimensions of one fuzz instance.

    fuzz draws every dimension uniformly from 0..max_dim, and a chain's
    length uniformly from 1..5 before its dimensions.
    """
    uniform = [Fraction(1, max_dim + 1)] * (max_dim + 1)
    if kind == "pair":
        return _convolve(uniform, uniform)
    total = [Fraction(0)] * ((FUZZ_MAX_CHAIN_LENGTH + 1) * max_dim + 1)
    dims = uniform
    for _length in range(1, FUZZ_MAX_CHAIN_LENGTH + 1):
        dims = _convolve(dims, uniform)  # length + 1 dimensions
        for n, p in enumerate(dims):
            total[n] += p / FUZZ_MAX_CHAIN_LENGTH
    return total


def strata_plan(max_dim: int, kind: str, quota_total: int) -> tuple[list, list]:
    """Stratum of every summed dimension, and the quota of every stratum.

    A size falls in stratum ``floor(quota_total * P(smaller sizes))``, so
    the strata split the distribution at its ``k / quota_total`` quantiles,
    one instance's worth of probability each; rare sizes that start in the
    same quantile share a stratum, and empty strata are dropped.  A stratum too rare to be owed one instance joins the one before
    it (the first joins the one after), so every size can be drawn.  Quotas
    are proportional to each stratum's probability (largest remainder), so
    the list's size profile follows fuzz's.
    """
    pmf = total_dim_pmf(max_dim, kind)
    bins, below = [], Fraction(0)
    for p in pmf:
        bins.append(min(quota_total - 1, int(below * quota_total)))
        below += p
    groups = [[n for n, b in enumerate(bins) if b == k] for k in sorted(set(bins))]
    s = 0
    while s < len(groups):
        if len(groups) == 1 or sum(pmf[n] for n in groups[s]) * quota_total >= 1:
            s += 1
        elif s > 0:
            groups[s - 1] += groups.pop(s)
        else:
            groups[0] = groups.pop(0) + groups[0]
    stratum_of = [0] * len(pmf)
    for k, group in enumerate(groups):
        for n in group:
            stratum_of[n] = k
    probs = [sum(pmf[n] for n in group) for group in groups]
    exact = [p * quota_total for p in probs]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda s: (quotas[s] - exact[s], s))
    for s in by_remainder[: quota_total - sum(quotas)]:
        quotas[s] += 1
    return stratum_of, quotas


def fuzz_config(max_dim: int, seed: int, ordinal: int):
    return generators.GenConfig(
        seed=generators.child_seed(seed, ordinal),
        max_dim=max_dim,
        rank_budget=min(FUZZ_RANK_BUDGET, max_dim),
        entry_bound=FUZZ_ENTRY_BOUND,
    )


def fuzz_dims(max_dim: int, seed: int, ordinal: int) -> tuple[str, tuple]:
    """The kind and dimensions of instance ``ordinal`` of the fuzz stream,
    without generating it.

    They are the first draws of the instance's generator: fuzz draws a
    chain's length, and `random_pair` / `random_chain` then draw the
    dimensions before anything else.  ``generate`` checks every instance it
    keeps against them.
    """
    rng = fuzz_config(max_dim, seed, ordinal).rng()
    if ordinal % 2 == 0:
        return "pair", (rng.randint(0, max_dim), rng.randint(0, max_dim))
    length = rng.randint(1, FUZZ_MAX_CHAIN_LENGTH)
    return "chain", tuple(rng.randint(0, max_dim) for _ in range(length + 1))


def fuzz_instance(max_dim: int, seed: int, ordinal: int):
    """Instance ``ordinal`` of the fuzz stream, generated as `fredpairs fuzz` does."""
    # generators is looked up at call time, so a traced run sees the calls
    cfg = fuzz_config(max_dim, seed, ordinal)
    rng = cfg.rng()
    if ordinal % 2 == 0:
        return "pair", generators.random_pair(cfg, rng)
    return "chain", generators.random_chain(cfg, rng.randint(1, FUZZ_MAX_CHAIN_LENGTH), rng)


def generate(workload: Workload, seed: int) -> list[Item]:
    """The workload's fixed instance list for ``seed``."""
    plans = {
        kind: strata_plan(workload.max_dim, kind, workload.count // 2)
        for kind in KINDS
    }
    open_slots = {kind: list(plans[kind][1]) for kind in KINDS}
    items = []
    for ordinal in itertools.count():
        if not any(any(slots) for slots in open_slots.values()):
            return items
        kind, dims = fuzz_dims(workload.max_dim, seed, ordinal)
        stratum = plans[kind][0][sum(dims)]
        if not open_slots[kind][stratum]:
            continue
        open_slots[kind][stratum] -= 1
        _, instance = fuzz_instance(workload.max_dim, seed, ordinal)
        made = (instance.dim_x, instance.dim_y) if kind == "pair" else tuple(instance.dims)
        if made != dims:
            raise RuntimeError(f"instance {ordinal} has dimensions {made}, not the drawn {dims}")
        expected = sum(d if p % 2 == 0 else -d for p, d in enumerate(dims))
        items.append(Item(ordinal, kind, json.dumps(instance.to_json_obj()), expected))


def argv_for(workload: Workload, item: Item, path: str) -> list[str]:
    if workload.command == "report":
        return [f"{item.kind}-report", path]
    if item.kind == "pair":
        return ["verify", path]
    return ["verify", path, "--remark23", "--thm42", "--thm44"]


def run_op(argv: list[str]) -> tuple[int | None, str, str]:
    """One call of the CLI entry point in this process: (exit code, stdout, error).

    An exception or a SystemExit counts as a failed operation; its exit code
    is None and the error names it.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # the benchmark records and counts it
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


EXPECTED_REPORTS = {
    "pair": ["theorem_3_4", "theorem_3_6"],
    "chain": ["remark_2_3", "theorem_4_2", "theorem_4_4"],
}


def check_output(workload: Workload, item: Item, code, out: str, err: str) -> str | None:
    """None when the output is right, else what is wrong with it.

    Beyond the exit code and the reports' own verdicts, the index the program
    prints must equal the value the paper fixes independently of any
    implementation: dim_x - dim_y for a pair, the Euler characteristic of the
    dimensions for a chain.
    """
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON document: {exc}"
    if workload.command == "report":
        index = doc.get("index")
    else:
        reports = doc.get("reports", [])
        names = [r.get("name") for r in reports]
        if names != EXPECTED_REPORTS[item.kind]:
            return f"reports {names}, expected {EXPECTED_REPORTS[item.kind]}"
        failed = [r["name"] for r in reports if r.get("passed") is not True]
        if failed:
            return f"reports did not pass: {failed}"
        details = reports[0]["details"]
        index = details.get("index" if item.kind == "pair" else "chain_index")
        if item.kind == "chain" and reports[1]["details"].get("chain_index") != index:
            return "theorem_4_2 and remark_2_3 disagree on the chain index"
    if index != item.expected_index:
        return f"index {index}, expected {item.expected_index}"
    return None
