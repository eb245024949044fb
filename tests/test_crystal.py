"""Crystal-limit checks: deficits, braid equivalence, kernel element, factorization."""

import cmath
import itertools
import math

import numpy as np
import pytest

from qcrystal import crystal
from qcrystal.coalgebra import coproduct_paths
from qcrystal.coxeter import (
    Permutation,
    ReducedWord,
    bruhat_leq,
    longest_permutation,
    longest_word,
    normal_form,
)
from qcrystal.crystal import (
    braid_equivalence_check,
    convergence_deficit,
    deficit_operator,
    deficit_table,
    deficit_table_csv,
    deficit_table_json,
    evaluate_kernel_element,
    factorization_check,
    generator_indices,
    kernel_element_factors,
    recover_torus_label,
    subword_embedding,
)
from qcrystal.fock import TensorTermSum, _largest_singular_value, norm_bounds, section
from qcrystal.reps import (
    RepSpec,
    TorusPoint,
    character,
    image_words,
    rep_image,
    scaled_rep_image,
    simple_generator_image,
)

W0_WORD = ReducedWord((1, 2, 1), 2)
ONE = ReducedWord((1,), 2)


def s3_elements():
    return [Permutation(p) for p in itertools.permutations((1, 2, 3))]


def test_deficit_anchors_single_letter():
    report = convergence_deficit(ONE, 0.3, 8)
    lo, up = report.bounds(2, 1)
    assert abs(lo - 0.3) < 1e-12
    assert abs(up - 0.3) < 1e-12
    lo, up = report.bounds(1, 1)
    expected = 1 - math.sqrt(1 - 0.09)
    assert abs(lo - expected) < 1e-12
    assert abs(up - expected) < 1e-12
    assert report.bounds(3, 3) == (0.0, 0.0)
    assert report.bounds(1, 3) == (0.0, 0.0)
    assert abs(report.max_upper - 0.3) < 1e-12


def test_deficit_is_t_independent():
    t1 = TorusPoint((cmath.exp(0.9j), cmath.exp(-2.2j)))
    t2 = TorusPoint((-1.0, 1j))
    a = convergence_deficit(W0_WORD, 0.2, 6, t=t1)
    b = convergence_deficit(W0_WORD, 0.2, 6, t=t2)
    assert a.cells == b.cells  # exact equality, tolerance zero


def test_deficit_respects_character_scaling():
    # at any t the deficit operator is the unit character times the base one
    q, d = 0.25, 5
    t = TorusPoint((cmath.exp(0.4j), cmath.exp(1.3j)))
    for i, j in generator_indices(2):
        base = section(deficit_operator(W0_WORD, q, i, j), d)
        spec_t = RepSpec(2, q, t, W0_WORD)
        spec_t0 = RepSpec(2, 0.0, t, W0_WORD)
        at_t = section(scaled_rep_image(spec_t, i, j) - rep_image(spec_t0, i, j), d)
        assert np.abs(at_t - character(t, i, i) * base).max() < 1e-12


def test_deficit_strictly_decreasing_along_q():
    qs = [0.3, 0.2, 0.1, 0.05, 0.01]
    reports = deficit_table(W0_WORD, qs, 8)
    uppers = [r.max_upper for r in reports]
    for a, b in zip(uppers, uppers[1:]):
        assert b < a
    assert uppers[-1] <= uppers[0] / 10.0


def test_deficit_rejects_crystal_q():
    with pytest.raises(ValueError):
        convergence_deficit(ONE, 0.0, 4)
    with pytest.raises(ValueError):
        deficit_table(ONE, [], 4)


def test_deficit_table_serializations():
    reports = deficit_table(ONE, [0.3, 0.1], 4)
    csv = deficit_table_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("q,z[1][1],z[1][2]")
    assert lines[1].split(",")[0] == "0.3"
    assert len(lines) == 3
    data = deficit_table_json(reports)
    assert '"schema": "qcrystal.deficit_table.v1"' in data
    assert deficit_table_json(reports) == data  # deterministic bytes


# w0, n = 2, q = 0.3, d = 8 brackets as computed with dense section norms
W0_N2_BRACKETS = {
    (1, 1): (0.31330598792908876, 0.38999999999999996),
    (1, 2): (0.42028104798915733, 0.6000000000000001),
    (1, 3): (0.30000000000000004, 0.30000000000000004),
    (2, 1): (0.42028104798915744, 0.6000000000000001),
    (2, 2): (0.32790310136804657, 0.43191532671057936),
    (2, 3): (0.2999999928255464, 0.30000000000000004),
    (3, 1): (0.3, 0.3),
    (3, 2): (0.2999999928255464, 0.30000000000000004),
    (3, 3): (0.04606079858305434, 0.04606079858305434),
}


def test_deficit_brackets_pinned_n2():
    report = convergence_deficit(W0_WORD, 0.3, 8)
    assert len(report.cells) == len(W0_N2_BRACKETS)
    for key, (lo, up) in report.cells:
        ref_lo, ref_up = W0_N2_BRACKETS[key]
        assert abs(lo - ref_lo) < 1e-12
        assert abs(up - ref_up) < 1e-12


@pytest.mark.parametrize("d", [4, 8])
def test_block_lower_matches_dense_oracle_n2(d):
    spec = RepSpec(2, 0.3, TorusPoint.base(2), W0_WORD)
    for i, j in generator_indices(2):
        for ts in (deficit_operator(W0_WORD, 0.3, i, j), rep_image(spec, i, j)):
            lo, _ = norm_bounds(ts, d)
            assert abs(lo - _largest_singular_value(section(ts, d))) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_block_lower_matches_dense_oracle_n3(d):
    word = ReducedWord(longest_word(3).letters(), 3)
    for i, j in ((1, 2), (1, 3), (2, 2), (3, 3)):
        ts = deficit_operator(word, 0.3, i, j)
        lo, _ = norm_bounds(ts, d)
        assert abs(lo - _largest_singular_value(section(ts, d))) < 1e-12


def test_braid_check_passes_at_crystal_point():
    report = braid_equivalence_check(0.0, 8, 2)
    assert report.phi_checked
    assert report.phi_max_residual <= 1e-12
    assert report.flip_max_residual <= 1e-12
    assert report.passed


def test_braid_check_mutation_hook_fails():
    report = braid_equivalence_check(0.0, 8, 2, mutate=True)
    assert not report.passed
    assert report.phi_max_residual > 1e-3


def test_braid_check_flip_only_for_positive_q():
    report = braid_equivalence_check(0.3, 4, 3)
    assert not report.phi_checked
    assert report.phi_max_residual == 0.0
    assert report.flip_max_residual <= 1e-12
    assert report.passed


def test_braid_check_rank_three_crystal():
    report = braid_equivalence_check(0.0, 4, 3)
    assert report.phi_checked
    assert report.passed


def test_kernel_element_factors():
    assert kernel_element_factors(1) == [(2, 1)]
    assert kernel_element_factors(2) == [(3, 1), (2, 1), (3, 2)]
    assert kernel_element_factors(3) == [(4, 1), (3, 1), (4, 2), (2, 1), (3, 2), (4, 3)]


def test_kernel_dichotomy_on_s3():
    t = TorusPoint((cmath.exp(0.6j), cmath.exp(-1.1j)))
    w0 = longest_permutation(2)
    for w in s3_elements():
        word = ReducedWord(normal_form(w).letters(), 2)
        ts = evaluate_kernel_element(RepSpec(2, 0.0, t, word))
        if w == w0:
            assert len(ts.terms) == 1
            lo, up = norm_bounds(ts, 4)
            assert abs(lo - 1.0) < 1e-12
            assert abs(up - 1.0) < 1e-12
        else:
            assert ts.is_zero()  # exact, not merely small


def test_kernel_longest_word_image_is_rank_one_projection():
    ts = evaluate_kernel_element(RepSpec(2, 0.0, TorusPoint.base(2), W0_WORD))
    M = section(ts, 3)
    expected = np.zeros((27, 27))
    expected[0, 0] = 1.0
    assert np.abs(M - expected).max() < 1e-15


def test_kernel_survives_at_positive_q():
    ts = evaluate_kernel_element(RepSpec(2, 0.3, TorusPoint.base(2), W0_WORD))
    lo, up = norm_bounds(ts, 8)
    assert lo > 0.1
    assert lo <= up


def test_subword_embedding_prefers_lexicographic():
    w0 = longest_permutation(2)
    s1 = Permutation.simple(1, 2)
    s2 = Permutation.simple(2, 2)
    assert subword_embedding(s1, w0) == (1,)
    assert subword_embedding(s2, w0) == (2,)
    assert subword_embedding(s1 * s2, w0) == (1, 2)
    assert subword_embedding(s2 * s1, w0) == (2, 3)
    assert subword_embedding(w0, w0) == (1, 2, 3)
    assert subword_embedding(Permutation.identity(2), w0) == ()
    with pytest.raises(ValueError):
        subword_embedding(w0, s1)


@pytest.mark.parametrize("q", [0.0, 0.3])
def test_factorization_over_s3(q):
    elements = s3_elements()
    checked = 0
    for w in elements:
        for u in elements:
            if not bruhat_leq(u, w):
                continue
            report = factorization_check(u, w, q, 6)
            assert report.passed, (u, w, report.max_residual)
            assert report.term_sums_equal
            assert report.max_residual <= 1e-12
            checked += 1
    assert checked == 19  # number of comparable pairs in S_3


@pytest.mark.parametrize("q", [0.0, 0.3])
def test_factorization_check_catches_a_dropped_term(monkeypatch, q):
    # the collapsed and direct images share one builder; a defect in the
    # direct image must still surface in both verdicts
    real = crystal.rep_image

    def lossy(spec, i, j):
        ts = real(spec, i, j)
        if (i, j) == (1, 1):
            return TensorTermSum(ts.slots, ts.q, ts.terms[1:])
        return ts

    monkeypatch.setattr(crystal, "rep_image", lossy)
    w0 = longest_permutation(2)
    report = factorization_check(w0, w0, q, 4)
    assert report.term_sums_equal is False
    assert report.passed is False


def test_factorization_collapse_matches_leg_deletion_oracle():
    # counit legs in the builder are the paths of w constant on deleted legs
    for n in (2, 3):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 2))]
        w = longest_permutation(n)
        full = normal_form(w).letters()
        for u in perms:
            kept = subword_embedding(u, w)
            letters = tuple(r if p in kept else None for p, r in enumerate(full, 1))
            for q in (0.0, 0.3):
                mode = "crystal" if q == 0.0 else "generic"
                for i, j in generator_indices(n):
                    want = []
                    for path in coproduct_paths(i, j, len(full), n, mode):
                        if any(path[p - 1] != path[p] for p in range(1, len(full) + 1)
                               if p not in kept):
                            continue
                        words = [
                            simple_generator_image(full[p - 1], path[p - 1], path[p], q, n)
                            for p in kept
                        ]
                        if None not in words:
                            want.append(tuple(words))
                    assert image_words(letters, i, j, n, q == 0.0) == tuple(want)


def test_factorization_report_fields():
    u = Permutation.simple(2, 2)
    report = factorization_check(u, longest_permutation(2), 0.3, 5)
    assert report.w_word == (1, 2, 1)
    assert report.u_word == (2,)
    assert report.kept_positions == (2,)
    assert '"passed": true' in report.to_json()


def test_recover_torus_label_round_trip():
    q, d = 0.3, 6
    t = TorusPoint((cmath.exp(0.7j), cmath.exp(-0.4j)))
    spec = RepSpec(2, q, t, W0_WORD)
    images = {
        (i, i): section(rep_image(spec, i, i), d) for i in range(1, 3)
    }
    got = recover_torus_label(images, W0_WORD, q, d)
    assert max(abs(a - b) for a, b in zip(got.values, t.values)) < 1e-12
    # crystal-point labels recover too
    spec0 = RepSpec(2, 0.0, t, W0_WORD)
    images0 = {
        (i, i): section(rep_image(spec0, i, i), d) for i in range(1, 3)
    }
    got0 = recover_torus_label(images0, W0_WORD, 0.0, d)
    assert max(abs(a - b) for a, b in zip(got0.values, t.values)) < 1e-12


def test_recover_torus_label_errors():
    with pytest.raises(ValueError):
        recover_torus_label({}, W0_WORD, 0.3, 4)
    # a 1x1 section of z_{1,1} at the crystal point is identically zero
    with pytest.raises(ValueError):
        recover_torus_label(
            {(1, 1): np.zeros((1, 1)), (2, 2): np.zeros((1, 1))},
            ReducedWord((1,), 2),
            0.0,
            1,
        )
