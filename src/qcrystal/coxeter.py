"""Symmetric group combinatorics: reduced words, staircase normal forms, Bruhat order.

Permutations of {1, .., n+1} are the Weyl group of SU(n+1).  Words are lists of
simple-transposition indices in {1, .., n}; the product convention is left to
right, so ``[1, 2, 1]`` means s1*s2*s1 with s1 applied last to a point.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

# memo bounds: S_6 has 720 elements, so rank 5 fits whole
NORMAL_FORM_CACHE_SIZE = 1024
INTERVAL_CACHE_SIZE = 1024


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation in one-line notation, ``images[x-1] = w(x)``.

    >>> w = Permutation((3, 2, 1))
    >>> w(1), w(3)
    (3, 1)
    >>> w.length()
    3
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 2)))

    @staticmethod
    def simple(r: int, n: int) -> "Permutation":
        """The simple transposition s_r in S_{n+1}, swapping r and r+1."""
        if not 1 <= r <= n:
            raise ValueError(f"letter {r} out of range for rank {n}")
        images = list(range(1, n + 2))
        images[r - 1], images[r] = images[r], images[r - 1]
        return Permutation(tuple(images))

    @staticmethod
    def from_word(letters: "ReducedWord | list[int] | tuple[int, ...]", n: int) -> "Permutation":
        """Multiply out a word of simple transpositions, left to right.

        >>> Permutation.from_word([1, 2, 1], 2)
        Permutation(images=(3, 2, 1))
        """
        if isinstance(letters, ReducedWord):
            if letters.n != n:
                raise ValueError(f"rank mismatch: word rank {letters.n}, requested {n}")
            letters = letters.letters
        images = list(range(1, n + 2))
        for r in letters:
            if not 1 <= r <= n:
                raise ValueError(f"letter {r} out of range for rank {n}")
            # right multiplication by s_r swaps positions r, r+1
            images[r - 1], images[r] = images[r], images[r - 1]
        return Permutation(tuple(images))

    @property
    def n(self) -> int:
        """Coxeter rank: the permutation lives in S_{n+1}."""
        return len(self.images) - 1

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``(self*other)(x) = self(other(x))``."""
        if len(self.images) != len(other.images):
            raise ValueError("rank mismatch in product")
        return Permutation(tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for x, y in enumerate(self.images, start=1):
            images[y - 1] = x
        return Permutation(tuple(images))

    def length(self) -> int:
        """Coxeter length = number of inversions.

        >>> Permutation((2, 3, 1)).length()
        2
        """
        return sum(
            1
            for i, j in itertools.combinations(range(len(self.images)), 2)
            if self.images[i] > self.images[j]
        )

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def to_json(self) -> str:
        return json.dumps(list(self.images))

    @staticmethod
    def from_json(text: str) -> "Permutation":
        data = json.loads(text)
        if not isinstance(data, list) or not all(isinstance(x, int) for x in data):
            raise ValueError(f"not a one-line permutation: {text!r}")
        return Permutation(tuple(data))


@dataclass(frozen=True)
class ReducedWord:
    """A reduced word: letters in 1..n whose product has length == number of letters.

    >>> ReducedWord((1, 2, 1), 2).to_string()
    '1,2,1'
    >>> ReducedWord((1, 1), 2)
    Traceback (most recent call last):
        ...
    ValueError: word (1, 1) is not reduced
    """

    letters: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        for r in self.letters:
            if not 1 <= r <= self.n:
                raise ValueError(f"letter {r} out of range for rank {self.n}")
        if Permutation.from_word(self.letters, self.n).length() != len(self.letters):
            raise ValueError(f"word {self.letters} is not reduced")

    def permutation(self) -> Permutation:
        return Permutation.from_word(self.letters, self.n)

    def to_string(self) -> str:
        return ",".join(str(r) for r in self.letters)

    @staticmethod
    def from_string(text: str, n: int) -> "ReducedWord":
        text = text.strip()
        letters = tuple(int(part) for part in text.split(",")) if text else ()
        return ReducedWord(letters, n)


@dataclass(frozen=True)
class NormalForm:
    """Staircase normal form: an ordered list of segments (a, b), a <= b.

    Segment (a, b) stands for the descending run s_b s_{b-1} .. s_a; the word of
    the whole form is the concatenation of segment words in list order, and the
    segment tops b are strictly increasing along the list.
    """

    segments: tuple[tuple[int, int], ...]
    n: int

    def __post_init__(self) -> None:
        prev_b = 0
        for a, b in self.segments:
            if not (1 <= a <= b <= self.n):
                raise ValueError(f"segment {(a, b)} out of range for rank {self.n}")
            if b <= prev_b:
                raise ValueError(f"segment tops not increasing: {self.segments}")
            prev_b = b

    def letters(self) -> tuple[int, ...]:
        """Expand to a reduced word.

        >>> NormalForm(((1, 1), (1, 2)), 2).letters()
        (1, 2, 1)
        """
        out: list[int] = []
        for a, b in self.segments:
            out.extend(range(b, a - 1, -1))
        return tuple(out)

    def word(self) -> ReducedWord:
        return ReducedWord(self.letters(), self.n)

    def permutation(self) -> Permutation:
        return Permutation.from_word(self.letters(), self.n)

    def to_json(self) -> str:
        return json.dumps([[a, b] for a, b in self.segments])

    @staticmethod
    def from_json(text: str, n: int) -> "NormalForm":
        data = json.loads(text)
        try:
            segments = tuple((int(a), int(b)) for a, b in data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"not a segment list: {text!r}") from exc
        return NormalForm(segments, n)


def _segment_permutation(a: int, b: int, n: int) -> Permutation:
    return Permutation.from_word(tuple(range(b, a - 1, -1)), n)


@functools.lru_cache(maxsize=NORMAL_FORM_CACHE_SIZE)
def normal_form(w: Permutation) -> NormalForm:
    """Staircase normal form of a permutation, memoized (both are frozen).

    Peels the rightmost segment: the largest moved point is b+1, and it sits at
    position a; dividing by s_b..s_a strictly shrinks the moved range, so the
    recursion terminates with strictly increasing segment tops.

    >>> normal_form(Permutation((3, 2, 1))).segments
    ((1, 1), (1, 2))
    >>> normal_form(Permutation.identity(3)).segments
    ()
    """
    n = w.n
    segments: list[tuple[int, int]] = []
    cur = w
    while not cur.is_identity():
        top = max(x for x in range(1, n + 2) if cur(x) != x)
        b = top - 1
        a = cur.inverse()(top)
        segments.append((a, b))
        cur = cur * _segment_permutation(a, b, n).inverse()
    segments.reverse()
    form = NormalForm(tuple(segments), n)
    assert form.permutation() == w
    return form


def reduced_word(w: Permutation) -> ReducedWord:
    """The canonical reduced word: the normal-form expansion."""
    return normal_form(w).word()


@functools.lru_cache(maxsize=INTERVAL_CACHE_SIZE)
def lower_interval(w: Permutation) -> frozenset[Permutation]:
    """The Bruhat lower interval [e, w], by the subword property, memoized.

    Walks one fixed reduced word of ``w`` keeping the set of all products of
    subwords of the prefix; at the end that set is exactly the lower interval.

    >>> sorted(u.images for u in lower_interval(Permutation((2, 3, 1))))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)]
    """
    reachable = {Permutation.identity(w.n)}
    for r in normal_form(w).letters():
        s = Permutation.simple(r, w.n)
        reachable |= {x * s for x in reachable}
    return frozenset(reachable)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order test: membership in the memoized ``lower_interval(w)``.

    >>> s1 = Permutation.simple(1, 2); w0 = Permutation((3, 2, 1))
    >>> bruhat_leq(s1, w0), bruhat_leq(w0, s1)
    (True, False)
    """
    if len(u.images) != len(w.images):
        raise ValueError("rank mismatch in Bruhat comparison")
    return u in lower_interval(w)


def reduced_words(w: Permutation, budget: int = 100_000) -> list[ReducedWord]:
    """All reduced words of ``w``, as the closure of one word under braid moves.

    Commutation moves swap distant letters, braid moves rewrite r,r',r with
    |r - r'| = 1.  Raises RuntimeError when more than ``budget`` words appear.
    """
    n = w.n
    start = normal_form(w).letters()
    seen = {start}
    queue = [start]
    while queue:
        word = queue.pop()
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if abs(a - b) >= 2:
                cand = word[:i] + (b, a) + word[i + 2:]
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
        for i in range(len(word) - 2):
            a, b, c = word[i], word[i + 1], word[i + 2]
            if a == c and abs(a - b) == 1:
                cand = word[:i] + (b, a, b) + word[i + 3:]
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
        if len(seen) > budget:
            raise RuntimeError(f"enumeration budget exceeded: more than {budget} reduced words")
    return [ReducedWord(letters, n) for letters in sorted(seen)]


def longest_word(n: int) -> NormalForm:
    """Normal form of the longest element: segments (1,1), (1,2), .., (1,n).

    >>> longest_word(2).letters()
    (1, 2, 1)
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return NormalForm(tuple((1, b) for b in range(1, n + 1)), n)


def longest_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(n + 1, 0, -1)))


def maximal_subword_words(n: int) -> list[ReducedWord]:
    """Words below the longest one: drop the final letter 1 from the k-th segment.

    Segment k of the longest word expands to k, k-1, .., 1; the k-th maximal
    subword keeps k, .., 2 there and all other segments whole.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    out = []
    for k in range(1, n + 1):
        letters: list[int] = []
        for b in range(1, n + 1):
            stop = 2 if b == k else 1
            letters.extend(range(b, stop - 1, -1))
        out.append(ReducedWord(tuple(letters), n))
    return out


def maximal_subwords_of_longest(n: int) -> list[Permutation]:
    """The n permutations covered by the longest element, in segment order.

    >>> [w.images for w in maximal_subwords_of_longest(2)]
    [(3, 1, 2), (2, 3, 1)]
    """
    return [word.permutation() for word in maximal_subword_words(n)]
