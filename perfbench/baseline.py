"""Print the baseline table of the three benchmark workloads as Markdown rows.

Run from the root of a source checkout:

  python3 perfbench/baseline.py

Each row is one timed and traced benchmark run (``run.run_workload``) of
20 s, with seed 0, which gives q = 0.3 as in the hand-measured table.
"""

from __future__ import annotations

import statistics
import sys

from run import run_workload

ROWS = ("verify_n3", "deficit_n3", "spectrum_n4")
SEED = 0
SECONDS = 20.0


def _where(name: str, layers: dict, wall: float) -> str:
    def v(metric: str) -> float:
        return layers[metric]["value"]

    def share(metric: str) -> str:
        return f"{v(metric) / wall:.0%}"

    if name.startswith("verify"):
        return (
            f"factorization suite {v('cli.verify.factorization_s'):.2f} s "
            f"({share('cli.verify.factorization_s')}); "
            f"{v('reps.simple_generator_image.calls'):,.0f} `simple_generator_image` calls, "
            f"{v('fock.TensorTermSum.calls'):,.0f} `TensorTermSum` normalizations, "
            f"{v('fock.section.calls'):,.0f} sections"
        )
    if name.startswith("deficit"):
        return (
            f"`norm_bounds` self {share('fock.norm_bounds.self_s')}: "
            f"{v('fock.norm_bounds.calls'):.0f} calls, "
            f"{v('fock.norm_bounds.multi_group_calls'):.0f} multi-group, "
            f"dim {v('fock.norm_bounds.dim_max'):.0f}; "
            f"bracket width sum {v('deficit.bracket_width_sum'):.4f}, "
            f"max upper/lower {v('deficit.bracket_ratio_max'):.4f}"
        )
    return (
        f"`coxeter` self {share('coxeter.self_s')} "
        f"({v('coxeter.bruhat_leq.calls'):,.0f} `bruhat_leq` calls), "
        f"`spectrum` self {share('spectrum.self_s')}; {v('spectrum.edges'):.0f} covering edges"
    )


def main() -> int:
    print(
        "| workload | command | wall_s (median, samples) | wall_ref_s | setup_s "
        "| peak_rss_mb | where it goes (traced run) |"
    )
    print("|---|---|---|---|---|---|---|")
    ok = True
    for name in ROWS:
        outcome = run_workload(name, SEED, SECONDS, trace=True)
        ok = ok and outcome.failed == 0
        e2e, layers = outcome.end_to_end, outcome.per_layer
        print(
            f"| {name} | `qcrystal {' '.join(outcome.argv)}` "
            f"| {statistics.median(outcome.walls):.2f} s ({len(outcome.walls)}) "
            f"| {e2e['wall_ref_s']['value']:.2f} s "
            f"| {e2e['setup_s']['value']:.3f} s | {e2e['peak_rss_mb']['value']:.0f} MB "
            f"| {_where(name, layers, layers['trace.wall_s']['value'])} |",
            flush=True,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
