"""Command-line front end.

Subcommands:
  pair-report   defect numbers and index of a pair instance file
  chain-report  per-degree defects and index of a chain instance file
  verify        run theorem verifiers on a pair or chain file
  fuzz          generate seeded random instances and verify all of them
  pinv          pseudoinverse of a matrix file

All standard output is JSON (one document, or one document per line in fuzz
mode); diagnostics go to standard error.  Exit codes: 0 success / all checks
passed, 1 a verification failed, 2 malformed input or output that cannot be
written, 3 an internal invariant failed (a bug in the package).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .chains import ChainInstance, verify_remark_2_3, verify_theorem_4_2, verify_theorem_4_4
from .errors import FredpairsError, InputError, InvariantError
from .generators import GenConfig, child_seed, random_chain, random_pair
from .matrices import RatMatrix
from .pairs import MAX_TOTAL_DIM, PairInstance, verify_theorem_3_4, verify_theorem_3_6

PAIR_CHECKS = ("thm34", "thm36")
CHAIN_ONLY_CHECKS = ("thm42", "thm44", "remark23")
CHAIN_CHECKS = PAIR_CHECKS + CHAIN_ONLY_CHECKS  # the order of the flags
MAX_CHAIN_MAPS = 5  # the most maps a fuzz chain draws


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


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int-string digit limit while a result is encoded.

    Input keeps the limit (see ``_load_json``), but a result computed from an
    accepted input can hold longer integers, and those must still print.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_instance(obj):
    """Dispatch on the JSON keys: chain files carry dims/maps, pair files s/t."""
    if isinstance(obj, dict) and "dims" in obj:
        return ChainInstance.from_json_obj(obj)
    if isinstance(obj, dict) and "s" in obj:
        return PairInstance.from_json_obj(obj)
    raise InputError("instance JSON is neither a pair (dim_x/dim_y/s/t) nor a chain (dims/maps)")


def _reports(instance, checks) -> list:
    """The reports of ``checks`` on a pair; on a chain, its own checks first
    and then the pair checks on its folded pair, which is built only for
    them.  Each is reported once, in the fixed order remark 2.3, theorems
    4.2, 4.4, 3.4 and 3.6.  The verifiers are called by their module-level
    names, so a wrapper bound to one of those names sees every call."""
    reports = []
    if isinstance(instance, ChainInstance):
        if "remark23" in checks:
            reports.append(verify_remark_2_3(instance))
        if "thm42" in checks:
            reports.append(verify_theorem_4_2(instance))
        if "thm44" in checks:
            reports.append(verify_theorem_4_4(instance))
        if not any(c in PAIR_CHECKS for c in checks):
            return reports
        instance = instance.folded
    if "thm34" in checks:
        reports.append(verify_theorem_3_4(instance))
    if "thm36" in checks:
        reports.append(verify_theorem_3_6(instance))
    return reports


def cmd_pair_report(args) -> int:
    pair = PairInstance.from_json_obj(_load_json(args.file))
    print(json.dumps(pair.defects.to_json_obj()))
    return 0


def cmd_chain_report(args) -> int:
    chain = ChainInstance.from_json_obj(_load_json(args.file))
    obj = chain.defects.to_json_obj()
    obj["dims"] = list(chain.dims)
    obj["euler_characteristic"] = chain.euler_characteristic
    print(json.dumps(obj))
    return 0


def cmd_verify(args) -> int:
    instance = _parse_instance(_load_json(args.file))
    is_chain = isinstance(instance, ChainInstance)
    checks = args.checks  # None when no verifier flag is given
    if args.all or not checks:
        checks = CHAIN_CHECKS if is_chain else PAIR_CHECKS
    # ``_reports`` gives each requested check once, in its fixed order
    bad = [c for c in CHAIN_ONLY_CHECKS if c in checks]
    if bad and not is_chain:
        raise InputError(f"checks {bad} need a chain file, {args.file} holds a pair")
    reports = _reports(instance, checks)
    with _unlimited_int_digits():
        print(json.dumps({"reports": [r.to_json_obj() for r in reports]}))
    return 0 if all(r.passed for r in reports) else 1


def _fuzz_instance(cfg: GenConfig, kind: str):
    """The instance of one fuzz ordinal, generated from ``cfg`` and its seed."""
    rng = cfg.rng()
    if kind == "pair":
        return random_pair(cfg, rng)
    return random_chain(cfg, rng.randint(1, MAX_CHAIN_MAPS), rng)


def cmd_fuzz(args) -> int:
    """Verify ``--count`` seeded instances, one JSON line each, then a summary.

    The options are checked before the loop and the instances are
    generated, so a package error inside the loop is an internal failure,
    whatever its class.  It fails only its own instance: the line gives its
    message as ``"error"`` in place of ``"reports"``, the run goes on, and
    it exits 3 once the summary is printed.
    """
    if args.count < 0:
        raise InputError(f"--count must be nonnegative, got {args.count}")
    # so that no chain of MAX_CHAIN_MAPS maps passes the readers' total dimension
    max_dim = MAX_TOTAL_DIM // (MAX_CHAIN_MAPS + 1)
    if args.max_dim > max_dim:
        raise InputError(f"--max-dim must be at most {max_dim}, got {args.max_dim}")
    # checks the options once, whatever the count
    cfg = GenConfig(
        seed=args.seed,
        max_dim=args.max_dim,
        rank_budget=min(args.rank_budget, args.max_dim),
        entry_bound=args.entry_bound,
        complex_only=args.complex_only,
    )
    failures = errors = 0
    for ordinal in range(args.count):
        seed = child_seed(cfg.seed, ordinal)
        kind = "pair" if ordinal % 2 == 0 else "chain"
        checks = PAIR_CHECKS if kind == "pair" else CHAIN_ONLY_CHECKS
        instance = error = None
        try:
            instance = _fuzz_instance(replace(cfg, seed=seed), kind)
            reports = _reports(instance, checks)
        except FredpairsError as exc:
            error = str(exc)
        line = {"ordinal": ordinal, "kind": kind, "seed": seed}
        with _unlimited_int_digits():
            if instance is not None:  # None when the generator itself failed
                line["instance"] = instance.to_json_obj()
            if error is None:
                line["reports"] = [r.to_json_obj() for r in reports]
                line["passed"] = all(r.passed for r in reports)
            else:
                line["error"] = error
                line["passed"] = False
            print(json.dumps(line))
            if error is not None:
                errors += 1
                print(f"invariant failed in instance {ordinal}: {error}", file=sys.stderr)
            if not line["passed"]:
                failures += 1
                if instance is not None:
                    directory = Path(args.failures_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    target = directory / f"instance_{args.seed}_{ordinal}.json"
                    target.write_text(json.dumps(line["instance"]), encoding="utf-8")
    summary = {"count": args.count, "passed": args.count - failures, "failed": failures}
    if errors:
        summary["errors"] = errors
    summary["seed"] = args.seed
    print(json.dumps({"summary": summary}))
    if errors:
        return 3
    return 0 if failures == 0 else 1


def cmd_pinv(args) -> int:
    matrix = RatMatrix.from_json_obj(_load_json(args.file))
    pinv = matrix.pseudoinverse()
    with _unlimited_int_digits():
        print(json.dumps(pinv.to_json_obj()))
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
    # argparse starts each parse from a fresh namespace, so no list outlives a call
    for check in CHAIN_CHECKS:
        p.add_argument(f"--{check}", action="append_const", const=check, dest="checks")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="verify randomly generated instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    # a field of a dataclass with a plain default reads that default on the class
    p.add_argument("--max-dim", type=int, default=GenConfig.max_dim, dest="max_dim")
    p.add_argument("--rank-budget", type=int, default=GenConfig.rank_budget, dest="rank_budget")
    p.add_argument("--entry-bound", type=int, default=GenConfig.entry_bound, dest="entry_bound")
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
        code = args.func(args)
        sys.stdout.flush()  # so a write that fails is reported here, not at exit
        return code
    except InvariantError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 3
    except FredpairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout or --failures-dir cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself: the flush at exit writes the rest to os.devnull
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
