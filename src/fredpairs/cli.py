"""Command-line front end.

Subcommands:
  pair-report   defect numbers and index of a pair instance file
  chain-report  per-degree defects and index of a chain instance file
  verify        run theorem verifiers on a pair or chain file
  fuzz          generate seeded random instances and verify all of them
  pinv          pseudoinverse of a matrix file

All standard output is JSON (one document, or one document per line in fuzz
mode); diagnostics go to standard error.  Exit codes: 0 success / all checks
passed, 1 a verification failed, 2 malformed input, 3 an internal invariant
failed (a bug in the package).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .chains import (
    ChainInstance,
    chain_defects,
    verify_remark_2_3,
    verify_theorem_4_2,
    verify_theorem_4_4,
)
from .errors import FredpairsError, InputError, InvariantError
from .generators import GenConfig, SplitMix64, child_seed, random_chain, random_pair
from .matrices import RatMatrix
from .pairs import PairInstance, pair_defects, verify_theorem_3_4, verify_theorem_3_6

PAIR_CHECKS = ("thm34", "thm36")
CHAIN_CHECKS = ("remark23", "thm42", "thm44", "thm34", "thm36")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal past the interpreter's int-string digit limit,
        # bytes that are not UTF-8, or nesting deeper than the decoder's stack
        raise InputError(f"cannot parse {path}: {exc}") from None


def _parse_instance(obj):
    """Dispatch on the JSON keys: chain files carry dims/maps, pair files s/t."""
    if isinstance(obj, dict) and "dims" in obj:
        return ChainInstance.from_json_obj(obj)
    if isinstance(obj, dict) and "s" in obj:
        return PairInstance.from_json_obj(obj)
    raise InputError("instance JSON is neither a pair (dim_x/dim_y/s/t) nor a chain (dims/maps)")


def _pair_reports(pair: PairInstance, checks) -> list:
    reports = []
    if "thm34" in checks:
        reports.append(verify_theorem_3_4(pair))
    if "thm36" in checks:
        reports.append(verify_theorem_3_6(pair))
    return reports


def _chain_reports(chain: ChainInstance, checks) -> list:
    reports = []
    if "remark23" in checks:
        reports.append(verify_remark_2_3(chain))
    if "thm42" in checks:
        reports.append(verify_theorem_4_2(chain))
    if "thm44" in checks:
        reports.append(verify_theorem_4_4(chain))
    folded_checks = [c for c in checks if c in PAIR_CHECKS]
    if folded_checks:
        reports.extend(_pair_reports(chain.folded, folded_checks))
    return reports


def _requested_checks(args) -> list[str]:
    flags = {
        "thm34": args.thm34,
        "thm36": args.thm36,
        "thm42": args.thm42,
        "thm44": args.thm44,
        "remark23": args.remark23,
    }
    requested = [name for name, on in flags.items() if on]
    return requested


def cmd_pair_report(args) -> int:
    pair = PairInstance.from_json_obj(_load_json(args.file))
    print(json.dumps(pair_defects(pair).to_json_obj()))
    return 0


def cmd_chain_report(args) -> int:
    chain = ChainInstance.from_json_obj(_load_json(args.file))
    defects = chain_defects(chain)
    obj = defects.to_json_obj()
    obj["dims"] = list(chain.dims)
    obj["euler_characteristic"] = sum(
        d if p % 2 == 0 else -d for p, d in enumerate(chain.dims)
    )
    print(json.dumps(obj))
    return 0


def cmd_verify(args) -> int:
    instance = _parse_instance(_load_json(args.file))
    checks = _requested_checks(args)
    if isinstance(instance, ChainInstance):
        if args.all or not checks:
            checks = list(CHAIN_CHECKS)
        reports = _chain_reports(instance, checks)
    else:
        if args.all or not checks:
            checks = list(PAIR_CHECKS)
        bad = [c for c in checks if c not in PAIR_CHECKS]
        if bad:
            raise InputError(f"checks {bad} need a chain file, {args.file} holds a pair")
        reports = _pair_reports(instance, checks)
    print(json.dumps({"reports": [r.to_json_obj() for r in reports]}))
    return 0 if all(r.passed for r in reports) else 1


def _fuzz_instance(cfg_seed: int, ordinal: int, args):
    seed = child_seed(cfg_seed, ordinal)
    cfg = GenConfig(
        seed=seed,
        max_dim=args.max_dim,
        rank_budget=min(args.rank_budget, args.max_dim),
        entry_bound=args.entry_bound,
        complex_only=args.complex_only,
    )
    rng = cfg.rng()
    if ordinal % 2 == 0:
        instance = random_pair(cfg, rng)
        reports = _pair_reports(instance, PAIR_CHECKS)
        kind = "pair"
    else:
        instance = random_chain(cfg, rng.randint(1, 5), rng)
        reports = _chain_reports(instance, ("remark23", "thm42", "thm44"))
        kind = "chain"
    return seed, kind, instance, reports


def cmd_fuzz(args) -> int:
    failures = 0
    for ordinal in range(args.count):
        seed, kind, instance, reports = _fuzz_instance(args.seed, ordinal, args)
        passed = all(r.passed for r in reports)
        print(
            json.dumps(
                {
                    "ordinal": ordinal,
                    "kind": kind,
                    "seed": seed,
                    "instance": instance.to_json_obj(),
                    "reports": [r.to_json_obj() for r in reports],
                    "passed": passed,
                }
            )
        )
        if not passed:
            failures += 1
            directory = Path(args.failures_dir)
            directory.mkdir(parents=True, exist_ok=True)
            target = directory / f"instance_{args.seed}_{ordinal}.json"
            target.write_text(json.dumps(instance.to_json_obj()), encoding="utf-8")
    print(
        json.dumps(
            {
                "summary": {
                    "count": args.count,
                    "passed": args.count - failures,
                    "failed": failures,
                    "seed": args.seed,
                }
            }
        )
    )
    return 0 if failures == 0 else 1


def cmd_pinv(args) -> int:
    matrix = RatMatrix.from_json_obj(_load_json(args.file))
    print(json.dumps(matrix.pseudoinverse().to_json_obj()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fredpairs",
        description="Exact verification of Fredholm pair and chain index identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair-report", help="defect numbers and index of a pair file")
    p.add_argument("file")
    p.set_defaults(func=cmd_pair_report)

    p = sub.add_parser("chain-report", help="per-degree defects and index of a chain file")
    p.add_argument("file")
    p.set_defaults(func=cmd_chain_report)

    p = sub.add_parser("verify", help="run theorem verifiers on an instance file")
    p.add_argument("file")
    p.add_argument("--thm34", action="store_true")
    p.add_argument("--thm36", action="store_true")
    p.add_argument("--thm42", action="store_true")
    p.add_argument("--thm44", action="store_true")
    p.add_argument("--remark23", action="store_true")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="verify randomly generated instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-dim", type=int, default=6, dest="max_dim")
    p.add_argument("--rank-budget", type=int, default=2, dest="rank_budget")
    p.add_argument("--entry-bound", type=int, default=5, dest="entry_bound")
    p.add_argument("--complex-only", action="store_true", dest="complex_only")
    p.add_argument("--failures-dir", default="failures", dest="failures_dir")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("pinv", help="pseudoinverse of a matrix file")
    p.add_argument("file")
    p.set_defaults(func=cmd_pinv)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 3
    except FredpairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
