"""Representation layer: characters, one-letter tables, path-sum images."""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from qcrystal.coalgebra import coproduct_paths
from qcrystal.coxeter import Permutation, ReducedWord, longest_word, reduced_word
from qcrystal.fock import FactorWord, Primitive, TensorTermSum, section
from qcrystal.reps import (
    RepSpec,
    TorusPoint,
    character,
    image_words,
    rep_image,
    scaled_rep_image,
    scaling_constant,
    simple_generator_image,
    unitarity_residuals,
)


def spec2(q, word, t=None):
    return RepSpec(2, q, t or TorusPoint.base(2), ReducedWord(tuple(word), 2))


def test_torus_point_validation():
    TorusPoint((1j, -1.0))
    with pytest.raises(ValueError):
        TorusPoint((0.5, 1.0))
    assert TorusPoint.base(3).values == (1.0, 1.0, 1.0)


def test_rep_spec_json_round_trip():
    spec = spec2(0.3, [1, 2, 1], TorusPoint((1j, -1.0)))
    text = spec.to_json()
    assert RepSpec.from_json(text) == spec
    assert '"n": 2' in text
    with pytest.raises(ValueError):
        RepSpec.from_json('{"n": 2}')
    with pytest.raises(ValueError):
        RepSpec(2, 0.3, TorusPoint.base(3), ReducedWord((1,), 2))


def test_character_telescopes():
    t = TorusPoint((cmath.exp(0.7j), cmath.exp(-0.4j)))
    assert character(t, 1, 1) == t.values[0]
    assert character(t, 2, 2) == t.values[0].conjugate() * t.values[1]
    assert character(t, 3, 3) == t.values[1].conjugate()
    assert character(t, 1, 2) == 0
    # the diagonal character values multiply to 1
    prod = character(t, 1, 1) * character(t, 2, 2) * character(t, 3, 3)
    assert abs(prod - 1) < 1e-15
    # q plays no role in the character
    assert character(TorusPoint.base(1), 2, 2) == 1.0


def test_one_letter_table_q_positive():
    q, n = 0.3, 2
    assert simple_generator_image(1, 1, 1, q, n).factors == (
        Primitive.SHIFT,
        Primitive.DIAG_SQRTW,
    )
    assert simple_generator_image(1, 2, 2, q, n).factors == (
        Primitive.DIAG_SQRTW,
        Primitive.COSHIFT,
    )
    up = simple_generator_image(1, 1, 2, q, n)
    assert up.factors == (Primitive.DIAG_QN1,) and up.scalar == -1.0
    assert simple_generator_image(1, 2, 1, q, n).factors == (Primitive.DIAG_QN,)
    assert simple_generator_image(1, 3, 3, q, n).factors == ()
    assert simple_generator_image(1, 1, 3, q, n) is None
    assert simple_generator_image(2, 1, 1, q, n).factors == ()
    with pytest.raises(ValueError):
        simple_generator_image(3, 1, 1, q, n)


def test_one_letter_table_q_zero():
    n = 2
    assert simple_generator_image(2, 2, 2, 0.0, n).factors == (Primitive.SHIFT,)
    assert simple_generator_image(2, 3, 3, 0.0, n).factors == (Primitive.COSHIFT,)
    assert simple_generator_image(2, 2, 3, 0.0, n).factors == (Primitive.PROJ0,)
    assert simple_generator_image(2, 3, 2, 0.0, n).factors == (Primitive.PROJ0,)
    assert simple_generator_image(2, 1, 1, 0.0, n).factors == ()
    assert simple_generator_image(2, 1, 3, 0.0, n) is None


def test_one_letter_sections():
    # the 2x2 block of letter 1 at q: shifts weighted by sqrt(1-q^{2m}), diagonals q^m
    q, d = 0.4, 5
    img = rep_image(spec2(q, [1]), 1, 1)
    M = section(img, d)
    for m in range(1, d):
        assert abs(M[m - 1, m] - math.sqrt(1 - q ** (2 * m))) < 1e-15
    img = rep_image(spec2(q, [1]), 2, 1)
    assert np.allclose(section(img, d), np.diag([q**m for m in range(d)]), atol=1e-15)
    img = rep_image(spec2(q, [1]), 1, 2)
    assert np.allclose(
        section(img, d), np.diag([-(q ** (m + 1)) for m in range(d)]), atol=1e-15
    )


def test_empty_word_gives_character():
    t = TorusPoint((cmath.exp(0.3j), cmath.exp(1.1j)))
    spec = RepSpec(2, 0.3, t, ReducedWord((), 2))
    for i in range(1, 4):
        for j in range(1, 4):
            ts = rep_image(spec, i, j)
            M = section(ts, 1)
            assert abs(M[0, 0] - character(t, i, j)) < 1e-15


def test_crystal_rep_known_tensor():
    # at q = 0, word [2,1]: z_{3,1} lands on P0 x P0 scaled by chi_t(z_{3,3})
    t = TorusPoint((cmath.exp(0.2j), cmath.exp(-0.9j)))
    spec = RepSpec(2, 0.0, t, ReducedWord((2, 1), 2))
    M = section(rep_image(spec, 3, 1), 3)
    expected = np.zeros((9, 9), dtype=complex)
    expected[0, 0] = character(t, 3, 3)
    assert np.allclose(M, expected, atol=1e-15)


def test_rep_image_pruning_never_keeps_dead_words():
    for q in (0.0, 0.3):
        spec = spec2(q, [1, 2, 1])
        for i in range(1, 4):
            for j in range(1, 4):
                ts = rep_image(spec, i, j)
                for coeff, words in ts.terms:
                    assert abs(coeff) > 1e-15
                    assert not any(w.is_zero(q) for w in words)


def test_character_factorization_of_images():
    # section at t equals chi_t(z_ii) times the section at the unit point
    q, d = 0.3, 4
    t = TorusPoint((cmath.exp(0.7j), cmath.exp(-0.4j)))
    for word in [(1,), (2, 1), (1, 2, 1)]:
        for i in range(1, 4):
            for j in range(1, 4):
                at_t = section(rep_image(spec2(q, word, t), i, j), d)
                at_base = section(rep_image(spec2(q, word), i, j), d)
                assert np.allclose(at_t, character(t, i, i) * at_base, atol=1e-13)


def test_scaling_constants():
    q = 0.3
    assert scaling_constant(2, 1, q) == 1.0
    assert scaling_constant(1, 2, q) == (-q) ** (-1)
    assert scaling_constant(1, 3, q) == (-q) ** (-2)
    assert scaling_constant(1, 3, 0.0) == 1.0


def test_scaled_image_of_upper_entry_is_positive_diagonal():
    # (-q)^{-1} * (-q^{N+1}) = q^N
    q, d = 0.3, 6
    M = section(scaled_rep_image(spec2(q, [1]), 1, 2), d)
    assert np.allclose(M, np.diag([q**m for m in range(d)]), atol=1e-15)


def test_crystal_limit_of_scaled_entries_single_letter():
    # entrywise, scaled q-images approach the crystal images as q drops
    d = 6
    for i in range(1, 4):
        for j in range(1, 4):
            crystal = section(rep_image(spec2(0.0, [1]), i, j), d)
            gaps = []
            for q in (0.3, 0.05):
                scaled = section(scaled_rep_image(spec2(q, [1]), i, j), d)
                gaps.append(np.abs(scaled - crystal).max())
            assert gaps[1] <= gaps[0] + 1e-15


@pytest.mark.parametrize("word", [(1,), (2,), (1, 2), (1, 2, 1)])
def test_unitarity_residuals_vanish_for_positive_q(word):
    q, d = 0.3, 5
    spec = spec2(q, word)
    degree = 2  # residual words carry at most two shifts per slot
    interior = d - degree
    L = len(word)
    idx = np.array(
        [
            sum(dig * d ** (L - 1 - s) for s, dig in enumerate(digits))
            for digits in np.ndindex(*(interior,) * L)
        ]
    )
    for i in range(1, 4):
        for j in range(1, 4):
            for ts in unitarity_residuals(spec, i, j):
                if ts.is_zero():
                    continue
                M = section(ts, d)
                assert np.abs(M[np.ix_(idx, idx)]).max() < 1e-10


def test_unitarity_rejected_at_crystal_point():
    with pytest.raises(ValueError):
        unitarity_residuals(spec2(0.0, [1]), 1, 1)


def oracle_rep_image(spec, i, j):
    """The path-enumeration image: every coproduct path, dead ones discarded."""
    L = len(spec.word.letters)
    coeff = character(spec.t, i, i)
    if L == 0:
        if i != j:
            return TensorTermSum.zero(0, spec.q)
        return TensorTermSum(0, spec.q, ((character(spec.t, i, j), ()),))
    terms = []
    for path in coproduct_paths(i, j, L, spec.n, spec.mode):
        words = []
        for m, letter in enumerate(spec.word.letters):
            w = simple_generator_image(letter, path[m], path[m + 1], spec.q, spec.n)
            if w is None:
                break
            words.append(w)
        else:
            terms.append((coeff, tuple(words)))
    return TensorTermSum(L, spec.q, tuple(terms))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rep_image_matches_path_enumeration_oracle(n):
    points = [
        TorusPoint.base(n),
        TorusPoint(tuple(cmath.exp(0.4j * (k + 1) - 0.3j) for k in range(n))),
    ]
    checked = 0
    for images in itertools.permutations(range(1, n + 2)):
        word = reduced_word(Permutation(images))
        for q in (0.0, 0.3):
            for t in points:
                spec = RepSpec(n, q, t, word)
                for i in range(1, n + 2):
                    for j in range(1, n + 2):
                        got = rep_image(spec, i, j)
                        want = oracle_rep_image(spec, i, j)
                        assert got == want, (word, q, t, i, j)
                        assert got.terms == want.terms
                        checked += 1
    assert checked == math.factorial(n + 1) * 2 * 2 * (n + 1) ** 2
    with pytest.raises(ValueError):
        rep_image(RepSpec(n, 0.3, points[0], word), 1, n + 2)


def test_rank_four_longest_word_images_build_fast():
    # path enumeration took about 20 s for one such entry (1.95M paths)
    word = longest_word(4).word()
    image_words.cache_clear()
    start = time.perf_counter()
    images = {
        (q, i, j): rep_image(RepSpec(4, q, TorusPoint.base(4), word), i, j)
        for q in (0.0, 0.3)
        for i in range(1, 6)
        for j in range(1, 6)
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(images[(0.3, 1, 1)].terms) == 14
    assert len(images[(0.0, 1, 1)].terms) == 1
