"""Batch front end: subcommands wiring the library into reproducible reports.

Exit codes: 0 when every requested check passes, 1 when a verification suite
fails, 2 on usage or resource errors.  Reports are byte-identical across runs
with the same configuration: iteration orders are fixed, floats are rendered
by repr, and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coalgebra import coproduct_paths, stepwise_paths
from .coxeter import (
    Permutation,
    ReducedWord,
    bruhat_leq,
    longest_permutation,
    longest_word,
    normal_form,
    reduced_word,
)
from .crystal import (
    braid_equivalence_check,
    deficit_table,
    deficit_table_csv,
    deficit_table_json,
    evaluate_kernel_element,
    factorization_check,
    generator_indices,
)
from .fock import norm_bounds, section
from .reps import RepSpec, TorusPoint, unitarity_residuals
from .soibelman import torus_grid
from .spectrum import (
    RepLabel,
    non_hausdorff_witness,
    specialization_edges,
    to_dot,
    to_graph_json,
)

VERIFY_TOL = 1e-12
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings shared by the report-producing subcommands."""

    n: int
    d: int
    q_values: tuple[float, ...]
    word: tuple[int, ...] | None = None
    torus_m: int = 1
    fmt: str = "json"
    out: str | None = None
    mutate: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("rank must be at least 1")
        if self.d < 2:
            raise ValueError("section size must be at least 2")
        for q in self.q_values:
            if not 0.0 <= q < 1.0:
                raise ValueError(f"q must lie in [0, 1): {q}")
        if self.torus_m < 1:
            raise ValueError("torus grid must have at least one point per axis")


def default_dim(n: int) -> int:
    """Default section size: 8 up to rank 2, 4 beyond.

    Block section norms keep a rank-3 deficit table at d = 4 near one second;
    d = 8 there (dimension 262,144) is within the norm budget but takes tens
    of seconds, most of it in eigensolves of blocks up to size 256.
    """
    return 8 if n <= 2 else 4


def _parse_letters(text: str) -> tuple[int, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    return tuple(int(p) for p in parts)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _all_permutations(n: int) -> list[Permutation]:
    perms = [Permutation(images) for images in itertools.permutations(range(1, n + 2))]
    return sorted(perms, key=lambda w: (w.length(), w.images))


# -- verification suites -----------------------------------------------------


def _braid_suite(cfg: RunConfig) -> dict:
    worst = 0.0
    passed = True
    cases = 0
    for q in cfg.q_values:
        rep = braid_equivalence_check(q, cfg.d, cfg.n, mutate=cfg.mutate)
        worst = max(worst, rep.phi_max_residual, rep.flip_max_residual)
        passed = passed and rep.passed
        cases += 1
    return {
        "cases": cases,
        "max_residual": worst,
        "passed": passed,
        "tolerance": VERIFY_TOL,
    }


def _coassociativity_suite(cfg: RunConfig) -> dict:
    mismatches = 0
    cases = 0
    for mode in ("crystal", "generic"):
        for i, j in generator_indices(cfg.n):
            for legs in (2, 3):
                direct = sorted(coproduct_paths(i, j, legs, cfg.n, mode))
                left = sorted(stepwise_paths(i, j, legs, cfg.n, mode, True))
                right = sorted(stepwise_paths(i, j, legs, cfg.n, mode, False))
                cases += 1
                if not direct == left == right:
                    mismatches += 1
    return {
        "cases": cases,
        "max_residual": float(mismatches),
        "passed": mismatches == 0,
        "tolerance": 0.0,
    }


def _comparable_pairs(n: int) -> list[tuple[Permutation, Permutation]]:
    perms = _all_permutations(n)
    return [(u, w) for w in perms for u in perms if bruhat_leq(u, w)]


def _factorization_suite(cfg: RunConfig) -> dict:
    # beyond rank 2 the long fibers are checked at section size 2; the
    # deletion identity is entrywise, so any truncation exercises it
    worst = 0.0
    passed = True
    cases = 0
    pairs = _comparable_pairs(cfg.n)
    for q in cfg.q_values:
        for u, w in pairs:
            d = cfg.d if cfg.n <= 2 or w.length() <= 4 else 2
            rep = factorization_check(u, w, q, d)
            worst = max(worst, rep.max_residual)
            passed = passed and rep.passed
            cases += 1
    return {
        "cases": cases,
        "max_residual": worst,
        "passed": passed,
        "tolerance": VERIFY_TOL,
    }


def _kernel_suite(cfg: RunConfig) -> dict:
    base = TorusPoint.base(cfg.n)
    w0 = longest_permutation(cfg.n)
    worst = 0.0
    cases = 0
    for w in _all_permutations(cfg.n):
        ts = evaluate_kernel_element(RepSpec(cfg.n, 0.0, base, reduced_word(w)))
        if w == w0:
            lo, up = norm_bounds(ts, cfg.d)
            residual = max(abs(lo - 1.0), abs(up - 1.0))
        else:
            residual = 0.0 if ts.is_zero() else norm_bounds(ts, cfg.d)[1]
        worst = max(worst, residual)
        cases += 1
    return {
        "cases": cases,
        "max_residual": worst,
        "passed": worst <= VERIFY_TOL,
        "tolerance": VERIFY_TOL,
    }


def _interior_flat(d: int, slots: int) -> np.ndarray:
    """Flat indices whose digits all stay below d - 2, where sections are exact."""
    if slots == 0:
        return np.ones(1, dtype=bool)
    rem = np.arange(d**slots)
    ok = np.ones(rem.shape, dtype=bool)
    for _ in range(slots):
        ok &= (rem % d) < d - 2
        rem = rem // d
    return ok


def _unitarity_suite(cfg: RunConfig) -> dict:
    base = TorusPoint.base(cfg.n)
    words = [reduced_word(w) for w in _all_permutations(cfg.n) if w.length() <= 3]
    worst = 0.0
    cases = 0
    for q in cfg.q_values:
        if q == 0.0:
            continue
        for word in words:
            spec = RepSpec(cfg.n, q, base, word)
            ok = _interior_flat(cfg.d, len(word.letters))
            for i, j in generator_indices(cfg.n):
                for ts in unitarity_residuals(spec, i, j):
                    sub = section(ts, cfg.d)[np.ix_(ok, ok)]
                    if sub.size:
                        worst = max(worst, float(np.abs(sub).max()))
            cases += 1
    return {
        "cases": cases,
        "max_residual": worst,
        "passed": worst <= UNITARITY_TOL,
        "tolerance": UNITARITY_TOL,
    }


_SUITES = (
    ("braid", _braid_suite),
    ("coassociativity", _coassociativity_suite),
    ("factorization", _factorization_suite),
    ("kernel", _kernel_suite),
    ("unitarity", _unitarity_suite),
)


# -- subcommands -------------------------------------------------------------


def cmd_normal_form(args: argparse.Namespace) -> int:
    if args.word is not None:
        if args.images:
            raise ValueError("give a one-line permutation or --word, not both")
        letters = _parse_letters(args.word)
        n = args.n if args.n is not None else max(letters, default=1)
        w = Permutation.from_word(letters, n)
    elif args.images:
        w = Permutation(tuple(args.images))
    else:
        raise ValueError("need a one-line permutation or --word")
    nf = normal_form(w)
    payload = {
        "schema": "qcrystal.normal_form.v1",
        "images": list(w.images),
        "segments": [[a, b] for a, b in nf.segments],
        "word": list(nf.letters()),
        "length": w.length(),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_deficit_table(args: argparse.Namespace) -> int:
    n = args.n
    letters = _parse_letters(args.word) if args.word else longest_word(n).letters()
    cfg = RunConfig(
        n=n,
        d=args.dim if args.dim is not None else default_dim(n),
        q_values=tuple(args.q),
        word=letters,
        fmt=args.format,
        out=args.out,
    )
    reports = deficit_table(ReducedWord(letters, n), list(cfg.q_values), cfg.d)
    if cfg.fmt == "csv":
        text = deficit_table_csv(reports)
    else:
        text = deficit_table_json(reports) + "\n"
    _emit(text, cfg.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    cfg = RunConfig(
        n=n,
        d=args.dim if args.dim is not None else default_dim(n),
        q_values=tuple(args.q) if args.q else (0.0, 0.3),
        out=args.out,
        mutate=args.self_test_mutation,
    )
    results = {name: fn(cfg) for name, fn in _SUITES}
    passed = all(r["passed"] for r in results.values())
    report = {
        "schema": "qcrystal.verify.v1",
        "config": {
            "d": cfg.d,
            "mutated": cfg.mutate,
            "n": cfg.n,
            "q_values": list(cfg.q_values),
        },
        "passed": passed,
        "suites": results,
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", cfg.out)
    return 0 if passed else 1


def _labels_from_file(path: str, n: int) -> list[RepLabel]:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"labels file does not parse: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("labels")
    if not isinstance(data, list):
        raise ValueError("labels file must hold a list of {t, word} objects")
    labels = []
    for item in data:
        try:
            t = TorusPoint(tuple(complex(re, im) for re, im in item["t"]))
            w = Permutation.from_word([int(r) for r in item["word"]], n)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed label entry: {item!r}") from exc
        labels.append(RepLabel(t, w))
    return labels


def cmd_spectrum_graph(args: argparse.Namespace) -> int:
    n = args.n
    cfg = RunConfig(
        n=n,
        d=default_dim(n),
        q_values=(),
        torus_m=args.torus_grid,
        fmt=args.format,
        out=args.out,
    )
    if args.labels is not None:
        labels = _labels_from_file(args.labels, n)
    else:
        grid = torus_grid(n, cfg.torus_m)
        perms = _all_permutations(n)
        labels = [RepLabel(t, w) for t in grid.points for w in perms]
    edges = specialization_edges(labels, transitive_reduction=args.reduce)
    witness = non_hausdorff_witness(n) if n >= 2 else None
    if cfg.fmt == "dot":
        text = to_dot(labels, edges, witness)
    else:
        text = to_graph_json(labels, edges, witness) + "\n"
    _emit(text, cfg.out)
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcrystal",
        description="verification workbench for crystal limits of quantized "
        "function algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "normal-form", help="staircase normal form of a permutation or word"
    )
    p.add_argument("images", nargs="*", type=int, help="one-line permutation, e.g. 3 2 1")
    p.add_argument("--word", help="comma or space separated letters")
    p.add_argument("--n", type=int, help="Coxeter rank when --word is given")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser(
        "deficit-table", help="certified crystal-limit deficits over a q grid"
    )
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--word", help="letters, default the longest word")
    p.add_argument("--q", action="append", type=float, required=True)
    p.add_argument("--dim", type=int, help="section size, default 8 (rank 2) or 4")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_deficit_table)

    p = sub.add_parser("verify", help="run the verification suites, report verdicts")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--dim", type=int, help="section size, default 8 (rank 2) or 4")
    p.add_argument("--q", action="append", type=float, help="default 0.0 and 0.3")
    p.add_argument(
        "--self-test-mutation",
        action="store_true",
        help="inject a sign flip; a healthy braid suite must then fail",
    )
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "spectrum-graph", help="specialization graph of representation labels"
    )
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--torus-grid", type=int, default=1, dest="torus_grid")
    p.add_argument("--labels", help="JSON labels file; default is the full grid fiber")
    p.add_argument("--reduce", action="store_true", help="keep only covering edges")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_spectrum_graph)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
