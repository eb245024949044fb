"""Combinatorics layer: words, normal forms, Bruhat order."""

import itertools
import json
from pathlib import Path

import pytest

from qcrystal.cli import main
from qcrystal.coxeter import (
    NormalForm,
    Permutation,
    ReducedWord,
    bruhat_leq,
    longest_permutation,
    longest_word,
    lower_interval,
    maximal_subword_words,
    maximal_subwords_of_longest,
    normal_form,
    reduced_word,
    reduced_words,
)


def all_permutations(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 2))]


def bruhat_leq_oracle(u, w):
    """Brute force: u <= w iff some subword of a reduced word of w multiplies to u."""
    letters = normal_form(w).letters()
    for mask in range(1 << len(letters)):
        picked = [letters[i] for i in range(len(letters)) if mask >> i & 1]
        if Permutation.from_word(picked, w.n) == u:
            return True
    return False


def test_permutation_basics():
    w = Permutation((3, 1, 2))
    assert w(1) == 3 and w(2) == 1 and w(3) == 2
    assert w.inverse() * w == Permutation.identity(2)
    assert w * w.inverse() == Permutation.identity(2)
    assert Permutation.identity(3).length() == 0
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((3, 2, 1)) * Permutation((2, 1))


def test_word_product_convention():
    # left-to-right product: [1,2] means s1*s2, so (s1*s2)(3) = s1(2) = 1
    w = Permutation.from_word([1, 2], 2)
    assert w.images == (2, 3, 1)
    assert Permutation.from_word([1, 2, 1], 2) == Permutation.from_word([2, 1, 2], 2)
    with pytest.raises(ValueError):
        Permutation.from_word([3], 2)


def test_length_counts_inversions():
    for w in all_permutations(3):
        inv = sum(
            1 for i, j in itertools.combinations(range(1, 5), 2) if w(i) > w(j)
        )
        assert w.length() == inv


def test_reduced_word_validation():
    assert ReducedWord((), 2).permutation() == Permutation.identity(2)
    with pytest.raises(ValueError):
        ReducedWord((1, 1), 2)
    with pytest.raises(ValueError):
        ReducedWord((1, 2, 1, 2), 2)
    rt = ReducedWord.from_string("1,2,1", 2)
    assert rt.letters == (1, 2, 1)
    assert rt.to_string() == "1,2,1"
    assert ReducedWord.from_string("", 2).letters == ()


def test_normal_form_known_values():
    assert normal_form(Permutation((3, 2, 1))).segments == ((1, 1), (1, 2))
    assert normal_form(Permutation.identity(2)).segments == ()
    assert normal_form(Permutation.simple(2, 2)).segments == ((2, 2),)
    # single segment: the cycle sending a to b+1 and sliding the rest down
    assert normal_form(Permutation((3, 1, 2))).segments == ((1, 2),)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_normal_form_round_trip(n):
    for w in all_permutations(n):
        form = normal_form(w)
        assert form.permutation() == w
        # expansion is reduced: length equals letter count
        assert w.length() == len(form.letters())
        assert NormalForm.from_json(form.to_json(), n) == form


def test_normal_form_json():
    form = longest_word(2)
    assert form.to_json() == "[[1, 1], [1, 2]]"
    with pytest.raises(ValueError):
        NormalForm.from_json("[[1]]", 2)
    with pytest.raises(ValueError):
        NormalForm(((1, 2), (1, 1)), 2)  # tops must increase


@pytest.mark.parametrize("n", [2, 3])
def test_bruhat_matches_subword_oracle(n):
    perms = all_permutations(n)
    for u in perms:
        for w in perms:
            assert bruhat_leq(u, w) == bruhat_leq_oracle(u, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lower_interval_matches_subword_oracle(n):
    perms = all_permutations(n)
    for w in perms:
        interval = lower_interval(w)
        assert isinstance(interval, frozenset)
        assert interval == {u for u in perms if bruhat_leq_oracle(u, w)}


def test_memos_are_bounded():
    assert lower_interval.cache_info().maxsize is not None
    assert normal_form.cache_info().maxsize is not None


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("n", [3, 4])
def test_spectrum_graph_matches_recorded_reference(n, capsys):
    argv = ["spectrum-graph", "--n", str(n), "--reduce", "--format", "json"]
    recorded = json.loads((REFERENCE / f"spectrum_n{n}.json").read_text())
    case = recorded["cases"][" ".join(argv)]
    assert main(argv) == case["rc"] == 0
    assert json.loads(capsys.readouterr().out) == case["report"]


def test_bruhat_order_axioms():
    perms = all_permutations(3)
    w0 = longest_permutation(3)
    for u in perms:
        assert bruhat_leq(Permutation.identity(3), u)
        assert bruhat_leq(u, w0)
        for w in perms:
            if bruhat_leq(u, w) and u != w:
                assert u.length() < w.length()


def test_reduced_words_closure():
    w0 = longest_permutation(2)
    words = reduced_words(w0)
    assert sorted(rw.letters for rw in words) == [(1, 2, 1), (2, 1, 2)]
    # starting word does not matter: every enumerated word is reduced for w0
    for rw in words:
        assert rw.permutation() == w0
    assert len(reduced_words(Permutation.identity(2))) == 1


def test_reduced_words_counts():
    # S_4 longest element has 16 reduced words
    assert len(reduced_words(longest_permutation(3))) == 16
    with pytest.raises(RuntimeError):
        reduced_words(longest_permutation(3), budget=5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_longest_word(n):
    form = longest_word(n)
    w0 = form.permutation()
    assert w0 == longest_permutation(n)
    assert w0.length() == n * (n + 1) // 2
    assert form.segments == tuple((1, b) for b in range(1, n + 1))


def test_canonical_reduced_word():
    assert reduced_word(longest_permutation(2)).letters == (1, 2, 1)
    assert reduced_word(Permutation.identity(4)).letters == ()


@pytest.mark.parametrize("n", [2, 3])
def test_maximal_subwords_exhaust_corank_one(n):
    w0 = longest_permutation(n)
    subs = maximal_subwords_of_longest(n)
    assert len(subs) == n
    assert len(set(subs)) == n
    for u in subs:
        assert u.length() == w0.length() - 1
        assert bruhat_leq(u, w0)
    expected = {
        u for u in all_permutations(n) if u.length() == w0.length() - 1
    }
    assert set(subs) == expected


def test_maximal_subwords_known_n2():
    subs = maximal_subwords_of_longest(2)
    assert [w.images for w in subs] == [(3, 1, 2), (2, 3, 1)]
    assert [w.letters for w in maximal_subword_words(2)] == [(2, 1), (1, 2)]
    with pytest.raises(ValueError):
        maximal_subwords_of_longest(1)
