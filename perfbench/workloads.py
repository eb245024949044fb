"""Workload definitions, reference data and output checks for the benchmark.

A workload is a qcrystal command line.  The seed picks the q > 0 value from
``Q_VALUES``; the program only ever sees the resulting argv.  Every argv the
benchmark can build has a recorded reference case in ``reference/<name>.json``
(regenerate with ``record_reference.py``), and ``check`` compares a report
against it, returning one (label, ok) pair per correctness check.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The seed selects q from this list.  0.3 is the value of the ROADMAP baseline.
# Its neighbours give deficit_n3 the same work to within about 1% (power
# iteration steps), where q = 0.25 or 0.35 would change its time by up to 2x.
Q_VALUES = (0.3, 0.29, 0.31)

# Brackets may tighten but never loosen by more than this.
BRACKET_TOL = 1e-12

Check = tuple[str, bool]


def q_for_seed(seed: int) -> float:
    return Q_VALUES[seed % len(Q_VALUES)]


# -- per-kind checks ----------------------------------------------------------


def _check_verify(report: dict, ref: dict) -> list[Check]:
    config = report.get("config", {})
    checks = [
        ("config", all(config.get(k) == ref["config"][k] for k in ("n", "d", "q_values"))),
        ("passed", report.get("passed") is True),
    ]
    suites = report.get("suites", {})
    for name, ref_suite in sorted(ref["suites"].items()):
        got = suites.get(name, {})
        checks.append((f"{name}.passed", got.get("passed") is True))
        checks.append((f"{name}.cases", got.get("cases") == ref_suite["cases"]))
    return checks


def _check_deficit(report: dict, ref: dict) -> list[Check]:
    header = ("schema", "n", "d", "word")
    checks = [("header", all(report.get(k) == ref.get(k) for k in header))]
    rows, ref_rows = report.get("rows", []), ref["rows"]
    checks.append(("rows", len(rows) == len(ref_rows)))
    for row, ref_row in zip(rows, ref_rows):
        cells = row.get("cells", {})
        for key, (ref_lo, ref_up) in sorted(ref_row["cells"].items()):
            lo, up = cells.get(key, (float("nan"), float("nan")))
            ok = lo <= up and lo >= ref_lo - BRACKET_TOL and up <= ref_up + BRACKET_TOL
            checks.append((f"q={row.get('q')} z{key}", ok))
    return checks


def _graph_sets(report: dict) -> tuple[set, set, tuple | None]:
    keys = [
        (tuple(tuple(v) for v in node["t"]), tuple(node["word"]))
        for node in report.get("nodes", [])
    ]
    edges = {(keys[a], keys[b]) for a, b in report.get("edges", [])}
    witness = report.get("witness")
    return set(keys), edges, None if witness is None else tuple(keys[i] for i in witness)


def _check_spectrum(report: dict, ref: dict) -> list[Check]:
    nodes, edges, witness = _graph_sets(report)
    ref_nodes, ref_edges, ref_witness = _graph_sets(ref)
    return [
        ("schema", report.get("schema") == ref["schema"]),
        ("nodes", nodes == ref_nodes),
        ("edges", edges == ref_edges),
        ("witness", witness == ref_witness),
    ]


# -- corruptions used by the self-check to prove each checker can fail --------


def _corrupt_verify(ref: dict) -> None:
    ref["suites"]["factorization"]["cases"] += 1


def _corrupt_deficit(ref: dict) -> None:
    cells = ref["rows"][0]["cells"]
    key = max(cells, key=lambda k: cells[k][1] - cells[k][0])
    lo, up = cells[key]
    cells[key] = [lo, (lo + up) / 2]


def _corrupt_spectrum(ref: dict) -> None:
    ref["edges"].pop()


@dataclass(frozen=True)
class Kind:
    argv: Callable[[int, float], list[str]]
    check: Callable[[dict, dict], list[Check]]
    corrupt: Callable[[dict], None]
    uses_q: bool


KINDS = {
    "verify": Kind(
        lambda n, q: ["verify", "--n", str(n), "--q", "0", "--q", repr(q)],
        _check_verify,
        _corrupt_verify,
        True,
    ),
    "deficit": Kind(
        lambda n, q: ["deficit-table", "--n", str(n), "--q", repr(q), "--format", "json"],
        _check_deficit,
        _corrupt_deficit,
        True,
    ),
    "spectrum": Kind(
        lambda n, q: ["spectrum-graph", "--n", str(n), "--reduce", "--format", "json"],
        _check_spectrum,
        _corrupt_spectrum,
        False,
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int

    def argv(self, seed: int) -> list[str]:
        return KINDS[self.kind].argv(self.n, q_for_seed(seed))

    @property
    def uses_q(self) -> bool:
        return KINDS[self.kind].uses_q

    def distinct_seeds(self) -> range:
        """Seeds that between them produce every argv of this workload."""
        return range(len(Q_VALUES) if self.uses_q else 1)

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def load_reference(self, argv: list[str]) -> dict:
        """The recorded case for ``argv``: its exit code and parsed report."""
        cases = json.loads(self.reference_path().read_text())["cases"]
        key = " ".join(argv)
        if key not in cases:
            raise KeyError(f"no reference case for {key!r}")
        return cases[key]

    def check(self, rc: int, output: str, ref_case: dict) -> list[Check]:
        checks = [("exit code", rc == ref_case["rc"])]
        try:
            report = json.loads(output)
        except json.JSONDecodeError:
            return checks + [("report parses", False)]
        try:
            return checks + KINDS[self.kind].check(report, ref_case["report"])
        except (KeyError, TypeError, ValueError, IndexError):
            return checks + [("report shape", False)]

    def corrupted(self, ref_case: dict) -> dict:
        bad = copy.deepcopy(ref_case)
        KINDS[self.kind].corrupt(bad["report"])
        return bad


# The timed workloads, named in BENCHMARK.json, and the n = 2 twins that the
# self-check runs through the same pipeline in seconds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_n3", "verify", 3),
        Workload("deficit_n3", "deficit", 3),
        Workload("spectrum_n4", "spectrum", 4),
        Workload("verify_n2", "verify", 2),
        Workload("deficit_n2", "deficit", 2),
        Workload("spectrum_n3", "spectrum", 3),
    )
}
SELF_CHECK = ("verify_n2", "deficit_n2", "spectrum_n3")


def brackets(output: str) -> tuple[float, float]:
    """(sum of upper - lower, largest upper / lower) over a deficit report."""
    cells = [
        cell
        for row in json.loads(output)["rows"]
        for cell in row["cells"].values()
    ]
    width = sum(up - lo for lo, up in cells)
    ratio = max((up / lo for lo, up in cells if lo > 0), default=1.0)
    return width, ratio
