"""Crystal-limit verification checks: deficits, braid moves, kernel, factorization.

Every check in this module returns a small report object with a ``passed``
flag, the measured residuals or bounds, and a deterministic JSON form, so the
command line driver can aggregate them without recomputing anything.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .coxeter import Permutation, ReducedWord, bruhat_leq, normal_form
from .fock import TensorTermSum, norm_bounds, section
from .reps import (
    RepSpec,
    TorusPoint,
    build_image_words,
    character,
    rep_image,
    scaled_rep_image,
)

ENTRYWISE_TOL = 1e-12


def generator_indices(n: int) -> list[tuple[int, int]]:
    """All matrix entries (i, j), row-major."""
    return [(i, j) for i in range(1, n + 2) for j in range(1, n + 2)]


# -- convergence deficits ----------------------------------------------------


@dataclass(frozen=True)
class DeficitReport:
    """Per-generator certified bounds on || scaled q-image - crystal image ||."""

    n: int
    q: float
    d: int
    word: tuple[int, ...]
    cells: tuple[tuple[tuple[int, int], tuple[float, float]], ...]

    def bounds(self, i: int, j: int) -> tuple[float, float]:
        for key, value in self.cells:
            if key == (i, j):
                return value
        raise KeyError((i, j))

    @property
    def max_lower(self) -> float:
        return max(lo for _, (lo, _) in self.cells)

    @property
    def max_upper(self) -> float:
        return max(up for _, (_, up) in self.cells)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "qcrystal.deficit.v1",
                "n": self.n,
                "q": self.q,
                "d": self.d,
                "word": list(self.word),
                "cells": {
                    f"{i},{j}": [lo, up] for (i, j), (lo, up) in self.cells
                },
                "max_lower": self.max_lower,
                "max_upper": self.max_upper,
            },
            sort_keys=True,
        )


def deficit_operator(word: ReducedWord, q: float, i: int, j: int) -> TensorTermSum:
    """The difference between the scaled q-image and the crystal image of z_{i,j}.

    Built at the unit torus point: for any other t both images pick up the
    same unit-modulus character factor, so every norm computed from this
    operator is valid verbatim for every t.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("deficits compare q > 0 against the crystal limit")
    n = word.n
    base = TorusPoint.base(n)
    at_q = scaled_rep_image(RepSpec(n, q, base, word), i, j)
    at_zero = rep_image(RepSpec(n, 0.0, base, word), i, j)
    return at_q - at_zero


def convergence_deficit(
    word: ReducedWord, q: float, d: int, t: TorusPoint | None = None
) -> DeficitReport:
    """Certified norm bounds of the crystal-limit deficit, entry by entry.

    The reported bounds do not depend on ``t``; the argument is accepted and
    validated only so call sites can pass representation labels through.
    """
    n = word.n
    if t is not None and t.n != n:
        raise ValueError("torus point rank does not match the word")
    cells = []
    for i, j in generator_indices(n):
        delta = deficit_operator(word, q, i, j)
        cells.append(((i, j), norm_bounds(delta, d)))
    return DeficitReport(n, q, d, word.letters, tuple(cells))


def deficit_table(
    word: ReducedWord, q_values: list[float], d: int
) -> list[DeficitReport]:
    if not q_values:
        raise ValueError("need at least one q value")
    return [convergence_deficit(word, q, d) for q in q_values]


def deficit_table_csv(reports: list[DeficitReport]) -> str:
    """Rows are q values, columns generators, cells certified upper bounds."""
    n = reports[0].n
    header = ["q"] + [f"z[{i}][{j}]" for i, j in generator_indices(n)] + ["max_upper"]
    lines = [",".join(header)]
    for rep in reports:
        row = [repr(rep.q)]
        row += [repr(rep.bounds(i, j)[1]) for i, j in generator_indices(n)]
        row.append(repr(rep.max_upper))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def deficit_table_json(reports: list[DeficitReport]) -> str:
    return json.dumps(
        {
            "schema": "qcrystal.deficit_table.v1",
            "n": reports[0].n,
            "d": reports[0].d,
            "word": list(reports[0].word),
            "rows": [json.loads(r.to_json()) for r in reports],
        },
        sort_keys=True,
        indent=2,
    )


# -- braid equivalence -------------------------------------------------------


@dataclass(frozen=True)
class BraidReport:
    n: int
    q: float
    d: int
    tolerance: float
    phi_checked: bool
    phi_max_residual: float
    flip_max_residual: float

    @property
    def passed(self) -> bool:
        return (
            self.phi_max_residual <= self.tolerance
            and self.flip_max_residual <= self.tolerance
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "qcrystal.braid.v1",
                "n": self.n,
                "q": self.q,
                "d": self.d,
                "tolerance": self.tolerance,
                "phi_checked": self.phi_checked,
                "phi_max_residual": self.phi_max_residual,
                "flip_max_residual": self.flip_max_residual,
                "passed": self.passed,
            },
            sort_keys=True,
        )


def _slot_swapped(ts: TensorTermSum) -> TensorTermSum:
    return TensorTermSum(
        ts.slots,
        ts.q,
        tuple((c, tuple(reversed(words))) for c, words in ts.terms),
    )


def braid_equivalence_check(
    q: float, d: int, n: int, mutate: bool = False
) -> BraidReport:
    """Image-level equivalence of braid-related words.

    At q = 0, for each rank pair (r, r+1) the images of the two length-three
    braid words agree up to the adjoint and the index reflection
    x -> 2r+2-x on the window {r, r+1, r+2}.  At any q, distant letters
    commute: the two orders of [a, b] with |a-b| >= 2 give slot-swapped
    images.  ``mutate`` flips one sign inside the reflection comparison and is
    a self-test hook: a healthy suite must then fail.
    """
    base = TorusPoint.base(n)
    phi_checked = q == 0.0
    phi_max = 0.0
    if phi_checked:
        for r in range(1, n):
            left = RepSpec(n, 0.0, base, ReducedWord((r, r + 1, r), n))
            right = RepSpec(n, 0.0, base, ReducedWord((r + 1, r, r + 1), n))

            def reflect(x: int) -> int:
                return 2 * r + 2 - x if r <= x <= r + 2 else x

            for i, j in generator_indices(n):
                A = section(rep_image(left, i, j), d)
                B = section(rep_image(right, reflect(i), reflect(j)), d)
                if mutate and (i, j) == (r, r):
                    B = -B
                phi_max = max(phi_max, float(np.abs(A - B.conj().T).max()))
    flip_max = 0.0
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if b - a < 2:
            continue
        fwd = RepSpec(n, q, base, ReducedWord((a, b), n))
        rev = RepSpec(n, q, base, ReducedWord((b, a), n))
        for i, j in generator_indices(n):
            A = section(rep_image(fwd, i, j), d)
            B = section(_slot_swapped(rep_image(rev, i, j)), d)
            flip_max = max(flip_max, float(np.abs(A - B).max()))
    return BraidReport(n, q, d, ENTRYWISE_TOL, phi_checked, phi_max, flip_max)


# -- the kernel element ------------------------------------------------------


def kernel_element_factors(n: int) -> list[tuple[int, int]]:
    """Generator factors of the separating product, bracket by bracket.

    Bracket k (k = 1..n) multiplies the entries z_{n+2-k+m-1, m} for m = 1..k;
    the whole element is the product of the brackets in order.

    >>> kernel_element_factors(2)
    [(3, 1), (2, 1), (3, 2)]
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    out = []
    for k in range(1, n + 1):
        for m in range(1, k + 1):
            out.append((n + 1 - k + m, m))
    return out


def evaluate_kernel_element(spec: RepSpec) -> TensorTermSum:
    """Image of the separating product under the labeled representation."""
    result = TensorTermSum.identity(len(spec.word.letters), spec.q)
    for i, j in kernel_element_factors(spec.n):
        result = result @ rep_image(spec, i, j)
    return result


# -- Bruhat factorization ----------------------------------------------------


@dataclass(frozen=True)
class FactorizationReport:
    n: int
    q: float
    d: int
    u_word: tuple[int, ...]
    w_word: tuple[int, ...]
    kept_positions: tuple[int, ...]
    max_residual: float
    term_sums_equal: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "qcrystal.factorization.v1",
                "n": self.n,
                "q": self.q,
                "d": self.d,
                "u_word": list(self.u_word),
                "w_word": list(self.w_word),
                "kept_positions": list(self.kept_positions),
                "max_residual": self.max_residual,
                "term_sums_equal": self.term_sums_equal,
                "tolerance": self.tolerance,
                "passed": self.passed,
            },
            sort_keys=True,
        )


def subword_embedding(u: Permutation, w: Permutation) -> tuple[int, ...]:
    """Lexicographically first positions (1-based) in the canonical word of w
    whose letters multiply to u; requires u <= w in Bruhat order."""
    if not bruhat_leq(u, w):
        raise ValueError("u is not below w in Bruhat order")
    letters = normal_form(w).letters()
    length = u.length()
    for picked in itertools.combinations(range(len(letters)), length):
        if Permutation.from_word([letters[p] for p in picked], w.n) == u:
            return tuple(p + 1 for p in picked)
    raise AssertionError("Bruhat order promised an embedding")


def factorization_check(
    u: Permutation,
    w: Permutation,
    q: float,
    d: int,
    t: TorusPoint | None = None,
) -> FactorizationReport:
    """Check that collapsing coproduct legs realizes the Bruhat subword u of w.

    For every generator entry, the paths of w that are constant on the deleted
    legs, with those legs removed, must reproduce the direct image of u built
    on the embedded subword letters.  The normalized term sums are compared
    first; only when they differ are their d-box sections built and compared
    entrywise.  Equal sums skip that step exactly: ``==`` compares the
    normalized ``(slots, q, terms)``, which is all ``section`` reads, so their
    sections are identical and the residual would be 0.0.
    """
    n = w.n
    if t is None:
        t = TorusPoint.base(n)
    kept = subword_embedding(u, w)
    full = normal_form(w).letters()
    kept_letters = tuple(full[p - 1] for p in kept)
    u_spec = RepSpec(n, q, t, ReducedWord(kept_letters, n))
    # the full word of w, with each deleted leg forced to the counit
    collapsed_letters = tuple(
        letter if p in kept else None for p, letter in enumerate(full, start=1)
    )
    max_residual = 0.0
    sums_equal = True
    for i, j in generator_indices(n):
        direct = rep_image(u_spec, i, j)
        coeff = character(t, i, i)
        # each collapsed key is used once per run: keep it out of the memo
        words = build_image_words(collapsed_letters, i, j, n, q == 0.0)
        collapsed = TensorTermSum(len(kept), q, tuple((coeff, ws) for ws in words))
        if collapsed == direct:
            continue
        sums_equal = False
        residual = np.abs(section(collapsed, d) - section(direct, d))
        max_residual = max(max_residual, float(residual.max()))
    return FactorizationReport(
        n,
        q,
        d,
        kept_letters,
        full,
        kept,
        max_residual,
        sums_equal,
        ENTRYWISE_TOL,
    )


# -- torus label recovery ----------------------------------------------------


def recover_torus_label(
    images: dict[tuple[int, int], np.ndarray],
    word: ReducedWord,
    q: float,
    d: int,
) -> TorusPoint:
    """Read the torus coordinates back off diagonal-generator sections.

    The section of z_{i,i} at any t is chi_t(z_{i,i}) times the section at the
    unit point; the character values telescope, so the ratios at the largest
    reference entry recover t coordinate by coordinate.  Raises ValueError if
    a reference section vanishes identically (unrecoverable coordinate).
    """
    n = word.n
    base_spec = RepSpec(n, q, TorusPoint.base(n), word)
    values: list[complex] = []
    for i in range(1, n + 1):
        ref = section(rep_image(base_spec, i, i), d)
        flat = int(np.argmax(np.abs(ref)))
        if abs(ref.flat[flat]) == 0.0:
            raise ValueError(f"coordinate {i} unrecoverable: reference section is zero")
        if (i, i) not in images:
            raise ValueError(f"missing diagonal image ({i},{i})")
        ratio = complex(images[(i, i)].flat[flat]) / complex(ref.flat[flat])
        values.append(ratio if i == 1 else values[-1] * ratio)
    return TorusPoint(tuple(values))
