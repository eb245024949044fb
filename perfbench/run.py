"""qcrystal benchmark: time to a checked result, end to end and per layer.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload verify_n3 --seed 0 --seconds 20 --trace 0
  python3 perfbench/run.py --workload deficit_n3 --seed 0 --seconds 20 --trace 1
  python3 perfbench/run.py --self-check

Each repetition is a fresh interpreter (``worker.py``) that imports the
package from ``src/`` of this checkout and calls ``qcrystal.cli.main(argv)``
once.  Repetitions run one at a time for ``--seconds``, and every report is
checked against the recorded reference and against the first repetition's
bytes.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` does the
same timed repetitions, then one traced repetition, and reports the per-layer
metrics.  The last stdout line is the JSON result; the lines before it give
each metric by name and unit, the sample counts and the environment.  Exit
code 0 means every check passed, 1 that a check failed, 2 that the benchmark
could not run (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import SELF_CHECK, WORKLOADS, brackets, q_for_seed  # noqa: E402

SETUP_PROBES = 11  # fresh interpreters timed for setup_s, at least
SETUP_PROBES_PER_REP = 2  # spread over the run, as the machine's speed drifts
RUN_LIMIT_S = 170.0  # a whole run, set-up probes and traced run included
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    """The pinned environment of every worker: one BLAS/OpenMP thread, no
    QCRYSTAL_THREADS, and the package taken from this checkout."""
    env = dict(os.environ)
    env.pop("QCRYSTAL_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(
    mode: str, workload: str, seed: int, timeout: float = RUN_LIMIT_S
) -> tuple[float, dict]:
    """Run one worker; return (its set-up time, its result object)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload, "--seed", str(seed)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{mode} worker for {workload} printed no result") from exc
    return result["ready"] - started, result


def source_stamp() -> dict:
    """Identify the code measured: the git commit when there is one, and a
    hash of the package sources, which a plain source checkout also has."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcrystal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def tail_summary(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    text = f"median {statistics.median(ordered):.4f} s over {n} samples"
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return text + f", p{pct:g} {ordered[rank - 1]:.4f} s"
    return text + "; no percentile has ten samples beyond it"


class Session:
    """Timed repetitions of one workload, with every report checked."""

    def __init__(self, workload: str, seed: int, reference: dict | None = None) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.argv = self.workload.argv(seed)
        self.reference = reference or self.workload.load_reference(self.argv)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_output: str | None = None
        self.env: dict = {}
        self.setups: list[float] = []
        self.ref_setups: list[float] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, mode: str) -> tuple[float, dict]:
        return run_worker(mode, self.workload.name, self.seed, self.deadline - time.monotonic())

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def accept(self, result: dict, tag: str) -> None:
        """Check one repetition's report: reference, then determinism."""
        for label, ok in self.workload.check(result["rc"], result["output"], self.reference):
            self.record(f"{tag}: {label}", ok)
        if self.first_output is None:
            self.first_output = result["output"]
        else:
            self.record(f"{tag}: byte-identical report", result["output"] == self.first_output)

    def probe_setup(self, count: int) -> None:
        for _ in range(count):
            setup, result = self.spawn("setup")
            self.setups.append(setup)
            self.ref_setups.append(setup * result["speed_scale"])
            self.env = result["env"]

    def timed_runs(self, seconds: float, reserve: float) -> list[dict]:
        """Repetitions until their timed calls add up to ``seconds``, at least
        one, each after a few set-up probes.  None is started that might not
        end ``reserve`` seconds before the deadline."""
        runs: list[dict] = []
        while not runs or sum(r["wall_s"] for r in runs) < seconds:
            if runs:
                slowest = max(r["wall_s"] for r in runs)
                if time.monotonic() + 1.5 * slowest + reserve > self.deadline:
                    break
            self.probe_setup(SETUP_PROBES_PER_REP)
            _, result = self.spawn("run")
            self.accept(result, f"run {len(runs) + 1}")
            runs.append(result)
        self.probe_setup(SETUP_PROBES - len(self.setups))
        return runs

    def traced_run(self) -> dict:
        _, result = self.spawn("trace")
        self.accept(result, "traced run")
        return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Outcome:
    """Everything one benchmark run measured and checked."""

    argv: list[str]
    walls: list[float]
    ref_walls: list[float]
    setups: list[float]
    ref_setups: list[float]
    end_to_end: dict
    per_layer: dict | None
    attempted: int
    failed: int
    stamp: dict
    lines: list[str]

    def result(self, trace: bool) -> dict:
        """The result object: per-layer metrics when traced, else end to end."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.per_layer if trace else self.end_to_end,
        }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference=None):
    """Set-up probes, timed repetitions and, with ``trace``, one traced
    repetition of one workload."""
    session = Session(workload, seed, reference)
    runs = session.timed_runs(seconds, reserve=60.0 if trace else 0.0)
    walls = [r["wall_s"] for r in runs]
    ref_walls = [r["wall_s"] * r["speed_scale"] for r in runs]
    end_to_end = {
        "wall_ref_s": _metric(min(ref_walls), "s"),
        "setup_s": _metric(statistics.median(session.ref_setups), "s"),
        "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in runs), "MB"),
    }
    lines = [
        f"workload {workload}: qcrystal {' '.join(session.argv)}",
        f"wall_s (as measured) {tail_summary(walls)}",
        f"wall_ref_s (scaled by the speed probe; the fastest is gated) {tail_summary(ref_walls)}",
        f"setup_s (scaled by the speed probe) median over {len(session.setups)} fresh "
        f"interpreters; as measured {statistics.median(session.setups):.4f} s",
    ]
    is_deficit = session.workload.kind == "deficit"
    if is_deficit:
        width, ratio = brackets(runs[0]["output"])
        lines.append(f"bracket_width_sum {width:.6f}, bracket_ratio_max {ratio:.6f}")
    per_layer = None
    if trace:
        traced = session.traced_run()
        per_layer = {name: _metric(v, u) for name, (v, u) in traced["layers"].items()}
        width, ratio = brackets(traced["output"]) if is_deficit else (0.0, 0.0)
        per_layer.update(
            {
                "trace.wall_s": _metric(traced["wall_s"], "s"),
                "trace.overhead_s": _metric(traced["wall_s"] - statistics.median(walls), "s"),
                "trace.spans": _metric(traced["spans"], "count"),
                "deficit.bracket_width_sum": _metric(width, "norm"),
                "deficit.bracket_ratio_max": _metric(ratio, "ratio"),
            }
        )
        for layer in LAYERS:
            share = per_layer[f"{layer}.self_s"]["value"] / traced["wall_s"]
            lines.append(f"{layer} self time {share:.1%} of the traced wall time")
    lines.append(
        f"fail_ratio {session.failed / session.attempted:g} "
        f"({session.failed} of {session.attempted} checks failed)"
    )
    lines += [f"FAILED {label}" for label in session.failures]
    for name, m in {**end_to_end, **(per_layer or {})}.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    stamp = {
        "nproc": _nproc(),
        "seed": seed,
        "q": q_for_seed(seed) if session.workload.uses_q else None,
        **session.env,
        **source_stamp(),
    }
    lines.append("env " + json.dumps(stamp, sort_keys=True))
    return Outcome(
        session.argv,
        walls,
        ref_walls,
        session.setups,
        session.ref_setups,
        end_to_end,
        per_layer,
        session.attempted,
        session.failed,
        stamp,
        lines,
    )


def self_check() -> int:
    """The whole pipeline on the n = 2 twins in seconds, then proof that a
    corrupted reference makes each checker report failure."""
    ok = True
    for name in SELF_CHECK:
        outcome = run_workload(name, 0, 0.5, trace=True)
        print("\n".join(outcome.lines))
        passed = outcome.failed == 0 and outcome.attempted > 0
        print(f"self-check {name}: pipeline {'ok' if passed else 'FAILED'}")

        workload = WORKLOADS[name]
        bad = workload.corrupted(workload.load_reference(workload.argv(0)))
        session = Session(name, 0, bad)
        _, result = run_worker("run", name, 0)
        session.accept(result, "corrupted reference")
        caught = session.failed > 0
        print(f"self-check {name}: corrupted reference {'caught' if caught else 'NOT caught'}")
        ok = ok and passed and caught
    print(f"self-check {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "qcrystal" / "cli.py").is_file():
        print(f"no qcrystal sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, KeyError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = outcome.result(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": outcome.stamp,
        "wall_samples_s": outcome.walls,
        "wall_ref_samples_s": outcome.ref_walls,
        "setup_samples_s": outcome.setups,
        "setup_ref_samples_s": outcome.ref_setups,
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("\n".join(outcome.lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
