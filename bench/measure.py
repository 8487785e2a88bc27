"""Set-up and the timed closed loop of one benchmark run."""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

SETUP_REPEATS = 3
SETUP_CALIBRATIONS = 50  # after each set-up
CALIBRATION_REFERENCE_S = 0.003  # calibrate() at the reference speed
TAIL_BAND = (0.80, 0.95)  # latency_tail_ms averages the instances ranked in this band

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds that one fixed computation takes on this host right now.

    It row-reduces a fixed 9x9 matrix of Fractions: the kind of work the
    program does, with the standard library only, so no change to the
    program moves it.  Other tenants of a shared host slow every process on
    it, by up to a half for minutes at a time; interleaved with the
    operations, it tracks that slowdown to within a few percent.
    """
    start = time.perf_counter()
    n = 9
    rows = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)]
            for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return time.perf_counter() - start


def host_scale(calibrations: list[float]) -> float:
    """The factor that turns times measured alongside ``calibrations`` into
    times at the reference speed.

    Calibrations fall in a fast and a slow mode, whose shares follow the
    other tenants' load; the median jumps between the modes, so the scale
    uses the mean of the middle 80%.
    """
    ordered = sorted(calibrations)
    cut = len(ordered) // 10
    return CALIBRATION_REFERENCE_S / statistics.mean(ordered[cut:len(ordered) - cut])


def set_up(workload, seed: int, directory: Path, repeats: int, tracer=None, calibrations=None):
    """Generate the instance list and write one file per instance, ``repeats``
    times; return the items, their paths, each set-up's seconds, and problems.
    With a ``calibrations`` list, each set-up is followed by
    SETUP_CALIBRATIONS calls of ``calibrate``, appended to it."""
    times, lists = [], set()
    for _ in range(repeats):
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            items = workloads.generate(workload, seed)
            directory.mkdir(parents=True, exist_ok=True)
            paths = []
            for n, item in enumerate(items):
                path = directory / f"{n:04d}-{item.kind}.json"
                path.write_text(item.text, encoding="utf-8")
                paths.append(str(path))
            times.append(time.perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        lists.add(tuple(item.text for item in items))
        if calibrations is not None:
            calibrations.extend(calibrate() for _ in range(SETUP_CALIBRATIONS))
    problems = [] if len(lists) == 1 else ["set-up made different instances from one seed"]
    return items, paths, times, problems


class Outcomes:
    """Latency samples and output checks of every operation in a run.

    ``reference``, when given, holds the sha256 of every instance's recorded
    stdout; without it each instance's later runs must repeat its first.
    """

    def __init__(self, workload, items, reference=None):
        self.workload = workload
        self.items = items
        if reference is not None and len(reference) != len(items):
            raise ValueError("the recorded outputs do not match the instance list")
        self.reference = reference
        self.samples = [[] for _ in items]
        self.outputs = [None] * len(items)  # sha256 of each instance's first stdout
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, i: int, code, out: str, err: str, seconds: float):
        item = self.items[i]
        problem = workloads.check_output(self.workload, item, code, out, err)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.outputs[i] is None:
            self.outputs[i] = digest
        expected = self.outputs[i] if self.reference is None else self.reference[i]
        if problem is None and digest != expected:
            problem = "stdout differs from the recorded output"
        self.attempted += 1
        if problem is None:
            self.samples[i].append(seconds)
        else:
            self.failed += 1
            self.samples[i].append(math.inf)  # a failure never counts as fast
            if len(self.problems) < 5:
                self.problems.append(f"instance {item.ordinal} ({item.kind}): {problem}")

    def per_instance(self) -> list[float]:
        """Each instance's median run, or infinity if any of its runs failed.

        The runs of an instance are spread over the whole measurement.  On a
        shared host the fastest of them depends on rare fast moments, which
        come and go from run to run; the median does not.
        """
        return [math.inf if math.inf in s else statistics.median(s) for s in self.samples]


def run_ops(outcomes: Outcomes, paths: list[str], seconds: float, tracer=None,
            calibrations=None) -> float:
    """Cycle over the list until one full pass is done and ``seconds`` have
    passed; return the summed latency of the operations.  With a
    ``calibrations`` list, each operation is followed by one untimed call of
    ``calibrate``, appended to it."""
    n = len(paths)
    total = 0.0
    deadline = time.perf_counter() + seconds
    k = 0
    while k < n or time.perf_counter() < deadline:
        i = k % n
        argv = workloads.argv_for(outcomes.workload, outcomes.items[i], paths[i])
        if tracer is not None:
            tracer.instance = i
        start = time.perf_counter()
        code, out, err = workloads.run_op(argv)
        elapsed = time.perf_counter() - start
        total += elapsed
        outcomes.record(i, code, out, err, elapsed)
        if calibrations is not None:
            calibrations.append(calibrate())
        k += 1
    return total


def end_to_end(workload, seed: int, seconds: float, directory: Path, import_s: float,
               reference=None):
    """Untraced run: (outcomes, metrics as name -> (value, unit), context, problems).

    Every time is scaled to the reference speed by ``host_scale``: the loop's
    by the calibrations interleaved with its operations, the set-up's and the
    import's by those that follow each set-up.  With each instance's latency
    taken as the median of its runs:
    instances_per_s is the list's length over the summed latencies,
    latency_p50_ms their median, latency_tail_ms the mean of those ranked in
    TAIL_BAND (the slow fifth of the list without its slowest twentieth, a
    handful of instances that the seed alone decides), setup_s the import
    plus the median set-up, and peak_rss_mb the process's high-water mark.
    """
    setup_calibrations, loop_calibrations = [], []
    items, paths, setup_times, problems = set_up(
        workload, seed, directory, SETUP_REPEATS, calibrations=setup_calibrations)
    outcomes = Outcomes(workload, items, reference)
    run_ops(outcomes, paths, seconds, calibrations=loop_calibrations)
    setup_scale, loop_scale = host_scale(setup_calibrations), host_scale(loop_calibrations)
    latencies = sorted(t * loop_scale for t in outcomes.per_instance())
    n = len(latencies)
    band = latencies[int(TAIL_BAND[0] * n):int(TAIL_BAND[1] * n)]
    values = {
        "instances_per_s": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": statistics.mean(band) * 1e3,
        "setup_s": (import_s + statistics.median(setup_times)) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    context = {
        "latency_tail": {"percentiles": [100 * q for q in TAIL_BAND], "instances": len(band)},
        "runs_per_instance": statistics.median(len(s) for s in outcomes.samples),
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "host_scale": {"setup": setup_scale, "loop": loop_scale,
                       "calibration_reference_s": CALIBRATION_REFERENCE_S},
    }
    return outcomes, metrics, context, problems


def per_layer(workload, seed: int, directory: Path, spans_path: Path, reference=None):
    """Traced run: one traced set-up, one untraced pass, one traced pass."""
    tracer = tracing.Tracer()
    items, paths, _, problems = set_up(workload, seed, directory, 1, tracer)
    outcomes = Outcomes(workload, items, reference)
    untraced_s = run_ops(outcomes, paths, 0.0)
    tracer.install()
    try:
        traced_s = run_ops(outcomes, paths, 0.0, tracer)
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer, traced_s / untraced_s - 1)
    context = {
        "spans": len(tracer.name),
        "untraced_instances_per_s": len(items) / untraced_s,
        "traced_instances_per_s": len(items) / traced_s,
    }
    return outcomes, metrics, context, problems
