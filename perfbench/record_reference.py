"""Record the reference reports the benchmark checks against.

Run from the root of a source checkout:

  python3 perfbench/record_reference.py [workload ...]

For every workload (default: all) and every argv its seeds can produce, the
command runs once in a fresh, pinned worker and its exit code and report are
stored in ``perfbench/reference/<workload>.json``, keyed by the argv.  Record
only from a commit whose results are trusted: later runs may tighten a
deficit bracket but must reproduce everything else.
"""

from __future__ import annotations

import json
import sys

from run import run_worker, source_stamp
from workloads import REFERENCE_DIR, WORKLOADS


def record(name: str) -> None:
    workload = WORKLOADS[name]
    cases = {}
    for seed in workload.distinct_seeds():
        _, result = run_worker("run", name, seed)
        cases[" ".join(workload.argv(seed))] = {
            "rc": result["rc"],
            "report": json.loads(result["output"]),
        }
    data = {"workload": name, "recorded_from": source_stamp(), "cases": cases}
    REFERENCE_DIR.mkdir(exist_ok=True)
    workload.reference_path().write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{name}: {len(cases)} cases -> {workload.reference_path().name}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
