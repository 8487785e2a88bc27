#!/usr/bin/env python3
"""Record the stdout digest of every instance of the default seed.

    python3 bench/record_reference.py

Run it from the root of a checkout, only when a change is meant to alter
the program's output; it rewrites ``bench/expected.json``, which every run
with the default seed checks each operation against.
"""

import json
import shutil
import sys

import run


def main():
    run.import_fredpairs()
    import measure
    import workloads

    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        directory = run.WORK / f"reference-{name}"
        try:
            items, paths, _, problems = measure.set_up(workload, run.DEFAULT_SEED, directory, 1)
            outcomes = measure.Outcomes(workload, items)
            measure.run_ops(outcomes, paths, 0.0)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if outcomes.failed or problems:
            sys.exit(f"{name}: {outcomes.problems + problems}")
        digests[name] = outcomes.outputs
    document = {"seed": run.DEFAULT_SEED, "stdout_sha256": digests}
    run.EXPECTED.write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
