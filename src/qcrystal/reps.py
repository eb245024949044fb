"""Irreducible-type representations labeled by a torus point and a reduced word.

The building blocks are the one-letter representations acting on l2(N).  For a
letter r, only the four matrix entries touching rows/columns {r, r+1} act
nontrivially; every other diagonal entry is the identity and every other
off-diagonal entry is zero:

                    q > 0                        q = 0
  z_{r,r}       ->  S sqrt(1 - q^{2N})           S
  z_{r+1,r+1}   ->  sqrt(1 - q^{2N}) S*          S*
  z_{r,r+1}     ->  -q^{N+1}                     P0
  z_{r+1,r}     ->  q^N                          P0

A torus point t contributes the diagonal character chi_t, and a reduced word
w = s_{i_1} .. s_{i_L} contributes one letter representation per slot; the
composite is the convolution of all of them along the coproduct, which
concretely is a sum over coproduct index paths with one factor word per slot.

Only those cells are nonzero, so ``image_words`` expands a path leg by leg
through them (at q = 0 only weakly monotone towards the target) instead of
enumerating all (n+1)^(L-1) generic paths and discarding the dead ones.  The
word tuples depend on q only through q == 0; ``image_words`` memoizes them on
(letters, i, j, n, q == 0) and each image is rebuilt with its torus character.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .coalgebra import Mode
from .coxeter import ReducedWord
from .fock import FactorWord, Primitive, TensorTermSum

UNIT_TOL = 1e-9


@dataclass(frozen=True)
class TorusPoint:
    """A point of the n-torus: n unit-modulus complex coordinates."""

    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for v in vals:
            if abs(abs(v) - 1.0) > UNIT_TOL:
                raise ValueError(f"torus coordinate {v} is not unit modulus")

    @property
    def n(self) -> int:
        return len(self.values)

    @staticmethod
    def base(n: int) -> "TorusPoint":
        """The unit point (1, .., 1)."""
        return TorusPoint((1.0 + 0.0j,) * n)


@dataclass(frozen=True)
class RepSpec:
    """Label (n, q, t, w) of a representation of the rank-n algebra."""

    n: int
    q: float
    t: TorusPoint
    word: ReducedWord

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("rank must be at least 1")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0, 1): {self.q}")
        if self.t.n != self.n:
            raise ValueError(f"torus point has {self.t.n} coordinates, expected {self.n}")
        if self.word.n != self.n:
            raise ValueError("word rank does not match n")

    @property
    def mode(self) -> Mode:
        return "crystal" if self.q == 0.0 else "generic"

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "q": self.q,
                "t": [[v.real, v.imag] for v in self.t.values],
                "word": list(self.word.letters),
            }
        )

    @staticmethod
    def from_json(text: str) -> "RepSpec":
        data = json.loads(text)
        try:
            n = int(data["n"])
            q = float(data["q"])
            t = TorusPoint(tuple(complex(re, im) for re, im in data["t"]))
            word = ReducedWord(tuple(int(r) for r in data["word"]), n)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed representation label: {text!r}") from exc
        return RepSpec(n, q, t, word)


def character(t: TorusPoint, i: int, j: int) -> complex:
    """The torus character on z_{i,j}: diagonal, telescoping in t.

    chi_t(z_{1,1}) = t_1, chi_t(z_{n+1,n+1}) = conj(t_n), and in between
    chi_t(z_{i,i}) = conj(t_{i-1}) t_i; off-diagonal entries vanish.
    """
    n = t.n
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise ValueError(f"matrix index ({i},{j}) out of range for n={n}")
    if i != j:
        return 0.0 + 0.0j
    if i == 1:
        return complex(t.values[0])
    if i == n + 1:
        return complex(t.values[n - 1]).conjugate()
    return complex(t.values[i - 2]).conjugate() * complex(t.values[i - 1])


_ONE_LETTER = {
    # q = 0
    True: {
        (0, 0): FactorWord((Primitive.SHIFT,)),
        (1, 1): FactorWord((Primitive.COSHIFT,)),
        (0, 1): FactorWord((Primitive.PROJ0,)),
        (1, 0): FactorWord((Primitive.PROJ0,)),
    },
    # q > 0
    False: {
        (0, 0): FactorWord((Primitive.SHIFT, Primitive.DIAG_SQRTW)),
        (1, 1): FactorWord((Primitive.DIAG_SQRTW, Primitive.COSHIFT)),
        (0, 1): FactorWord((Primitive.DIAG_QN1,), scalar=-1.0),
        (1, 0): FactorWord((Primitive.DIAG_QN,)),
    },
}
_IDENTITY_WORD = FactorWord(())
IMAGE_CACHE_SIZE = 4096


def _cell(letter: int, i: int, j: int, crystal: bool) -> FactorWord | None:
    word = _ONE_LETTER[crystal].get((i - letter, j - letter))
    if word is None and i == j:
        return _IDENTITY_WORD
    return word


def simple_generator_image(
    letter: int, i: int, j: int, q: float, n: int
) -> FactorWord | None:
    """One-letter image of z_{i,j} as a factor word, or None when it vanishes."""
    if not 1 <= letter <= n:
        raise ValueError(f"letter {letter} out of range for rank {n}")
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise ValueError(f"matrix index ({i},{j}) out of range for n={n}")
    return _cell(letter, i, j, q == 0.0)


def build_image_words(
    letters: tuple[int | None, ...], i: int, j: int, n: int, crystal: bool
) -> tuple[tuple[FactorWord, ...], ...]:
    """Factor-word tuples of the live coproduct paths from i to j.

    The path is expanded leg by leg through the nonzero cells of each letter,
    next nodes in ascending order, so the tuples come out in lexicographic
    path order and a path through a vanishing cell is never built.  In crystal
    mode the steps stay weakly monotone from i towards j.  A ``None`` letter is
    a leg collapsed by the counit: the node stays and no word is emitted.
    ``image_words`` is this builder memoized; callers whose keys do not
    recur call the builder directly, so they do not evict reusable entries.

    >>> [[w.factors for w in ws] for ws in image_words((1, 2), 1, 3, 2, True)]
    [[(<Primitive.PROJ0: 'P0'>,), (<Primitive.PROJ0: 'P0'>,)]]
    >>> len(image_words((1, 2, 1), 1, 1, 2, False))
    2
    >>> [[w.factors for w in ws] for ws in image_words((None, 1), 2, 1, 2, True)]
    [[(<Primitive.PROJ0: 'P0'>,)]]
    """
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise ValueError(f"matrix index ({i},{j}) out of range for n={n}")
    toward = (j > i) - (j < i)
    steps = sorted({0, toward}) if crystal else (-1, 0, 1)
    partial: list[tuple[int, tuple[FactorWord, ...]]] = [(i, ())]
    for m, letter in enumerate(letters):
        left = len(letters) - 1 - m
        grown = []
        for a, words in partial:
            for b in (a,) if letter is None else [a + s for s in steps]:
                # a leg moves the node by at most one: farther nodes never reach j
                if abs(b - j) > left:
                    continue
                if letter is None:
                    grown.append((b, words))
                elif (word := _cell(letter, a, b, crystal)) is not None:
                    grown.append((b, words + (word,)))
        partial = grown
    return tuple(words for b, words in partial if b == j)


image_words = functools.lru_cache(maxsize=IMAGE_CACHE_SIZE)(build_image_words)


def rep_image(spec: RepSpec, i: int, j: int) -> TensorTermSum:
    """The operator representing z_{i,j}: a path sum over coproduct legs.

    The torus character collapses the first coproduct leg to the scalar
    chi_t(z_{i,i}); each surviving path contributes one factor word per letter.
    """
    coeff = character(spec.t, i, i)
    words = image_words(spec.word.letters, i, j, spec.n, spec.q == 0.0)
    return TensorTermSum(
        len(spec.word.letters), spec.q, tuple((coeff, ws) for ws in words)
    )


def scaling_constant(k: int, j: int, q: float) -> complex:
    """Crystallization scaling c_{k,j}(q) = (-q)^{min(k - j, 0)} for q > 0."""
    if q == 0.0:
        return 1.0 + 0.0j
    return complex((-q) ** min(k - j, 0))


def scaled_rep_image(spec: RepSpec, k: int, j: int) -> TensorTermSum:
    """rep_image rescaled by the crystallization constant of the entry (k, j)."""
    return rep_image(spec, k, j).scale(scaling_constant(k, j, spec.q))


def unitarity_residuals(
    spec: RepSpec, i: int, j: int
) -> tuple[TensorTermSum, TensorTermSum]:
    """The two unitarity defects at entry (i, j), as operators.

    Column family: sum_k z_{k,i}* z_{k,j} - delta_{ij}.  Row family:
    sum_k z_{i,k} z_{j,k}* - delta_{ij}.  Both vanish for q > 0; the q = 0
    generators are not unitary and the check is not meaningful there.
    """
    if spec.q == 0.0:
        raise ValueError("unitarity residuals are defined for q > 0 only")
    L = len(spec.word.letters)
    col = TensorTermSum.zero(L, spec.q)
    row = TensorTermSum.zero(L, spec.q)
    for k in range(1, spec.n + 2):
        col = col + rep_image(spec, k, i).adjoint() @ rep_image(spec, k, j)
        row = row + rep_image(spec, i, k) @ rep_image(spec, j, k).adjoint()
    if i == j:
        ident = TensorTermSum.identity(L, spec.q)
        col = col - ident
        row = row - ident
    return col, row
