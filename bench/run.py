#!/usr/bin/env python3
"""The fredpairs benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload fuzz-d6 --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
there and refuses any other copy.  It is a single-threaded closed loop: set-up
generates the workload's instance list from the seed with the public
generators API and writes each instance as a JSON file; the timed loop then
sends one instance at a time through the CLI entry point in this process
(``fredpairs.cli.main``, stdout captured), cycling over the list until at
least one full pass is done and ``--seconds`` have passed, and takes each
instance's median run as its latency.  A fixed computation that uses no
code of the program (``measure.calibrate``) runs after every operation and
after each set-up; every reported time is scaled by those calibrations
(``measure.host_scale``) to a fixed reference speed, so that a shared host
that slows down for minutes at a time moves the figures little.  Every
output is checked (see ``workloads.check_output``); a failed check counts as a failed
operation and makes its instance infinitely slow.

``--trace 0`` reports the end-to-end metrics of ``measure.END_TO_END_UNITS``.
``--trace 1`` makes one traced set-up, one untraced pass and one traced pass
over the list, ignores ``--seconds``, and reports the per-layer metrics of
``tracing.layer_metrics``; its counts depend only on the seed.  The spans are
written to ``.bench_work/``.

The last line of stdout is the result.  The line before it gives the context:
backend, Python, cores, commit and source digest, the share of failed
operations, the tail band with its instance count, the runs per instance,
the host-speed scales, and the digest of the run's stdout.  For the default seed every instance's
stdout must also match the digest recorded in ``expected.json`` (see
``record_reference.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 1


class BenchError(Exception):
    """The benchmark cannot measure this tree; no result is printed."""


def import_fredpairs() -> float:
    """Import the package from this checkout's ``src/``; return the seconds taken."""
    if sys.flags.optimize:
        raise BenchError("refusing to run under python -O: src/ relies on assert for invariants")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import fredpairs
        import fredpairs.cli  # noqa: F401  (timed with the rest of the import)
    except ImportError as exc:
        raise BenchError(f"cannot import fredpairs from {SRC}: {exc}") from None
    seconds = time.perf_counter() - start
    check_package_location(fredpairs.__file__)
    return seconds


def check_package_location(package_file: str):
    if not Path(package_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fredpairs was imported from {package_file}, not from {SRC}")


def source_digest() -> str:
    digest = hashlib.sha256()
    package = SRC / "fredpairs"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def json_number(value):
    """JSON has no infinity; a metric that a failure made infinite is null."""
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_fredpairs()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import fredpairs
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(EXPECTED.read_text())["stdout_sha256"][workload.name]
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            spans_path = WORK / f"trace-{workload.name}.spans"  # the latest traced run
            outcomes, metrics, context, problems = measure.per_layer(
                workload, args.seed, run_dir, spans_path, reference)
            context["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            outcomes, metrics, context, problems = measure.end_to_end(
                workload, args.seed, args.seconds, run_dir, import_s, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "instances": len(outcomes.items),
        "attempted": outcomes.attempted,
        "failed_frac": outcomes.failed / outcomes.attempted,
        "problems": outcomes.problems + problems,
        "stdout_sha256": hashlib.sha256("".join(outcomes.outputs).encode()).hexdigest(),
        "stdout_checked_against_record": reference is not None,
        "kernel_backend": fredpairs.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        **context,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": outcomes.failed == 0 and not problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": json_number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
