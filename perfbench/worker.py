"""One benchmark process: import qcrystal, build the argv, optionally run it.

Started by ``run.py`` in a fresh interpreter with a pinned environment, so
every repetition pays what a user pays for one command.  Modes:

  setup  import ``qcrystal.cli`` and build the argv, then take a few speed
         probes back to back and stop
  run    also call ``qcrystal.cli.main(argv)`` once, capturing its report
  trace  the same under ``tracer``, also writing the spans as JSON lines to
         ``out/<workload>.spans.jsonl``

The last line on stdout is one JSON object: ``ready`` (``time.monotonic``
once set-up is done, comparable with the parent's clock), ``env``,
``speed_scale`` (see ``speedprobe``) and, when the workload ran, ``rc``,
``output``, ``wall_s`` and ``peak_rss_mb``.  The probe's own table is left out
of ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from speedprobe import SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SPEED_SAMPLES = 10


def _env_stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_config = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_config = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def _rss_mb() -> float:
    """Current resident set size, from /proc where there is one."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()

    import qcrystal.cli

    if SRC not in Path(qcrystal.cli.__file__).resolve().parents:
        print(f"qcrystal was imported from outside {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    argv = WORKLOADS[args.workload].argv(args.seed)
    ready = time.monotonic()
    result: dict = {"ready": ready, "env": _env_stamp()}
    before = _rss_mb()
    probe = SpeedProbe()
    probe_mb = _rss_mb() - before
    if args.mode == "setup":
        for _ in range(SETUP_SPEED_SAMPLES):
            probe.sample()
    else:
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), probe:
            started = time.perf_counter()
            try:
                rc = qcrystal.cli.main(argv)
            except Exception:  # a crash is a failed repetition, not a harness error
                traceback.print_exc()
                rc = -1
            wall = time.perf_counter() - started
        result.update(
            rc=rc,
            output=buf.getvalue(),
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - probe_mb,
        )
        if tracer is not None:
            from tracer import layer_metrics

            result["layers"] = layer_metrics(tracer.spans)
            result["spans"] = len(tracer.spans)
            (HERE / "out").mkdir(exist_ok=True)
            tracer.write_jsonl(HERE / "out" / f"{args.workload}.spans.jsonl")
    result["speed_scale"] = probe.scale()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
