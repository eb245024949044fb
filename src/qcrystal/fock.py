"""Weighted-shift operators on tensor powers of l2(N), with certified norms.

Every operator here is a finite sum of elementary tensors whose slots are words
in seven primitive operators on l2(N) with basis e_0, e_1, ...:

  SHIFT       S       e_m -> e_{m-1}, kills e_0
  COSHIFT     S*      e_m -> e_{m+1}
  PROJ0       P0      rank-one projection onto e_0  (P0 = I - S*S)
  DIAG_QN     q^N     e_m -> q^m e_m
  DIAG_QN1    q^{N+1} e_m -> q^{m+1} e_m
  DIAG_SQRTW          e_m -> sqrt(1 - q^{2m}) e_m, kills e_0
  IDENTITY    I

A word sends each basis vector to a scalar multiple of a single basis vector
(or to zero), so sums of tensor words are banded in the index lattice and all
matrix sections are exact.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

COEFF_EPS = 1e-15
SECTION_MAX_DIM = 4096
APPLY_MAX_DIM = 1 << 22  # norm budget: largest d-box dimension norm_bounds takes
WORD_COLUMNS_CACHE_SIZE = 1024
WORD_COLUMNS_CACHE_MAX_D = 256


class Primitive(enum.Enum):
    SHIFT = "S"
    COSHIFT = "S*"
    PROJ0 = "P0"
    DIAG_QN = "qN"
    DIAG_QN1 = "qN1"
    DIAG_SQRTW = "sqrtw"
    IDENTITY = "I"


_Q_INDEPENDENT = {Primitive.SHIFT, Primitive.COSHIFT, Primitive.PROJ0, Primitive.IDENTITY}

_ADJOINT = {
    Primitive.SHIFT: Primitive.COSHIFT,
    Primitive.COSHIFT: Primitive.SHIFT,
    Primitive.PROJ0: Primitive.PROJ0,
    Primitive.DIAG_QN: Primitive.DIAG_QN,
    Primitive.DIAG_QN1: Primitive.DIAG_QN1,
    Primitive.DIAG_SQRTW: Primitive.DIAG_SQRTW,
    Primitive.IDENTITY: Primitive.IDENTITY,
}


def primitive_step(p: Primitive, m: int, q: float) -> tuple[float, int] | None:
    """Apply one primitive to e_m: (weight, new index), or None when killed."""
    if p is Primitive.SHIFT:
        return (1.0, m - 1) if m >= 1 else None
    if p is Primitive.COSHIFT:
        return (1.0, m + 1)
    if p is Primitive.PROJ0:
        return (1.0, 0) if m == 0 else None
    if p is Primitive.DIAG_QN:
        w = q**m
        return (w, m) if w != 0.0 else None
    if p is Primitive.DIAG_QN1:
        w = q ** (m + 1)
        return (w, m) if w != 0.0 else None
    if p is Primitive.DIAG_SQRTW:
        w = math.sqrt(max(1.0 - q ** (2 * m), 0.0))
        return (w, m) if w != 0.0 else None
    return (1.0, m)


@dataclass(frozen=True)
class FactorWord:
    """A product of primitives, applied right to left, times a scalar."""

    factors: tuple[Primitive, ...]
    scalar: complex = 1.0 + 0.0j

    def apply(self, m: int, q: float) -> tuple[complex, int] | None:
        amp = complex(self.scalar)
        if amp == 0:
            return None
        idx = m
        for p in reversed(self.factors):
            step = primitive_step(p, idx, q)
            if step is None:
                return None
            amp *= step[0]
            idx = step[1]
        return amp, idx

    def net_shift(self) -> int:
        up = sum(1 for p in self.factors if p is Primitive.COSHIFT)
        down = sum(1 for p in self.factors if p is Primitive.SHIFT)
        return up - down

    def adjoint(self) -> "FactorWord":
        return FactorWord(
            tuple(_ADJOINT[p] for p in reversed(self.factors)),
            self.scalar.conjugate(),
        )

    def is_q_independent(self) -> bool:
        return all(p in _Q_INDEPENDENT for p in self.factors)

    def support_interval(self, q: float) -> tuple[int, int | None] | None:
        """Input indices m with nonzero output, as [lo, hi] (hi None = infinity).

        All primitive constraints are "m >= 1" or "m == 0", so the support of a
        word is exactly an interval; None means the word is identically zero.
        """
        if self.scalar == 0:
            return None
        lo, hi = 0, None  # running constraint on the current index
        shift = 0  # current index = input index + shift
        for p in reversed(self.factors):
            if p is Primitive.SHIFT:
                lo = max(lo, 1 - shift)
                shift -= 1
            elif p is Primitive.COSHIFT:
                shift += 1
            elif p is Primitive.PROJ0 or (p is Primitive.DIAG_QN and q == 0.0):
                lo = max(lo, -shift)
                hi = -shift if hi is None else min(hi, -shift)
            elif p is Primitive.DIAG_SQRTW:
                lo = max(lo, 1 - shift)
            elif p is Primitive.DIAG_QN1 and q == 0.0:
                return None
            if hi is not None and lo > hi:
                return None
        return lo, hi

    def is_zero(self, q: float) -> bool:
        return self.support_interval(q) is None


Term = tuple[complex, tuple[FactorWord, ...]]


def _word_key(word: FactorWord) -> tuple:
    return tuple(p.value for p in word.factors)


@dataclass(frozen=True)
class TensorTermSum:
    """A finite sum  sum_t c_t (w_{t,1} x .. x w_{t,L})  of tensor words.

    ``q`` is the deformation parameter every q-dependent primitive reads.
    Terms are normalized on construction: word scalars folded into the
    coefficients, identically-zero words pruned, duplicate word tuples merged,
    and the term list put in a canonical order, so equality of the normalized
    data is meaningful and all downstream numerics are deterministic.
    """

    slots: int
    q: float
    terms: tuple[Term, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0, 1): {self.q}")
        merged: dict[tuple, tuple[complex, tuple[FactorWord, ...]]] = {}
        for coeff, words in self.terms:
            if len(words) != self.slots:
                raise ValueError("term does not have one word per slot")
            c = complex(coeff)
            clean = []
            dead = False
            for w in words:
                c *= w.scalar
                clean.append(FactorWord(w.factors) if w.scalar != 1.0 else w)
                if w.is_zero(self.q):
                    dead = True
            if dead or c == 0:
                continue
            key = tuple(_word_key(w) for w in clean)
            if key in merged:
                merged[key] = (merged[key][0] + c, merged[key][1])
            else:
                merged[key] = (c, tuple(clean))
        out = tuple(
            (c, words)
            for _, (c, words) in sorted(merged.items())
            if abs(c) > COEFF_EPS
        )
        object.__setattr__(self, "terms", out)

    # -- algebra ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_q_independent(self) -> bool:
        return all(w.is_q_independent() for _, words in self.terms for w in words)

    def _join_q(self, other: "TensorTermSum") -> float:
        if self.q == other.q:
            return self.q
        if self.is_q_independent():
            return other.q
        if other.is_q_independent():
            return self.q
        raise ValueError(f"incompatible deformation parameters {self.q} and {other.q}")

    def __add__(self, other: "TensorTermSum") -> "TensorTermSum":
        if self.slots != other.slots:
            raise ValueError("slot count mismatch in sum")
        return TensorTermSum(self.slots, self._join_q(other), self.terms + other.terms)

    def scale(self, c: complex) -> "TensorTermSum":
        return TensorTermSum(
            self.slots, self.q, tuple((c * coeff, words) for coeff, words in self.terms)
        )

    def __sub__(self, other: "TensorTermSum") -> "TensorTermSum":
        return self + other.scale(-1.0)

    def __matmul__(self, other: "TensorTermSum") -> "TensorTermSum":
        """Operator product; ``other`` acts first."""
        if self.slots != other.slots:
            raise ValueError("slot count mismatch in product")
        terms = []
        for c1, ws1 in self.terms:
            for c2, ws2 in other.terms:
                words = tuple(
                    FactorWord(a.factors + b.factors) for a, b in zip(ws1, ws2)
                )
                terms.append((c1 * c2, words))
        return TensorTermSum(self.slots, self._join_q(other), tuple(terms))

    def adjoint(self) -> "TensorTermSum":
        return TensorTermSum(
            self.slots,
            self.q,
            tuple(
                (coeff.conjugate(), tuple(w.adjoint() for w in words))
                for coeff, words in self.terms
            ),
        )

    @staticmethod
    def zero(slots: int, q: float) -> "TensorTermSum":
        return TensorTermSum(slots, q, ())

    @staticmethod
    def identity(slots: int, q: float) -> "TensorTermSum":
        return TensorTermSum(slots, q, ((1.0 + 0.0j, (FactorWord(()),) * slots),))


def apply(ts: TensorTermSum, beta: tuple[int, ...]) -> dict[tuple[int, ...], complex]:
    """Image of the basis vector e_beta as a sparse index-amplitude mapping."""
    if len(beta) != ts.slots:
        raise ValueError("multi-index length does not match slot count")
    if any(b < 0 for b in beta):
        raise ValueError(f"negative index in {beta}")
    out: dict[tuple[int, ...], complex] = {}
    for coeff, words in ts.terms:
        amp = coeff
        target = []
        for w, m in zip(words, beta):
            step = w.apply(m, ts.q)
            if step is None:
                break
            amp *= step[0]
            target.append(step[1])
        else:
            key = tuple(target)
            out[key] = out.get(key, 0.0) + amp
    return {k: v for k, v in out.items() if v != 0}


def _word_columns(word: FactorWord, d: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-column targets (or -1) and weights of a word on indices 0..d-1.

    The arrays are read-only: up to ``WORD_COLUMNS_CACHE_MAX_D`` they come
    from a cache, whose size that bound keeps to a few megabytes.
    """
    if d <= WORD_COLUMNS_CACHE_MAX_D:
        return _cached_word_columns(word, d, q)
    return _build_word_columns(word, d, q)


def _build_word_columns(
    word: FactorWord, d: int, q: float
) -> tuple[np.ndarray, np.ndarray]:
    tgt = np.full(d, -1, dtype=np.int64)
    wt = np.zeros(d, dtype=np.complex128)
    for m in range(d):
        step = word.apply(m, q)
        if step is not None:
            wt[m] = step[0]
            tgt[m] = step[1]
    tgt.flags.writeable = False
    wt.flags.writeable = False
    return tgt, wt


_cached_word_columns = functools.lru_cache(maxsize=WORD_COLUMNS_CACHE_SIZE)(
    _build_word_columns
)


def _term_columns(
    words: tuple[FactorWord, ...], d: int, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened targets (or -1) and weights for all d^L source multi-indices.

    Flattening is lexicographic with slot 0 most significant (C order).
    """
    L = len(words)
    dim = d**L
    rows = np.zeros(dim, dtype=np.int64)
    weights = np.ones(dim, dtype=np.complex128)
    alive = np.ones(dim, dtype=bool)
    cols = np.arange(dim)
    for s, w in enumerate(words):
        stride = d ** (L - 1 - s)
        idx = (cols // stride) % d
        tgt, wt = _word_columns(w, d, q)
        t = tgt[idx]
        alive &= (t >= 0) & (t < d)
        rows += np.where(t >= 0, t, 0) * stride
        weights *= wt[idx]
    rows[~alive] = -1
    weights[~alive] = 0
    return rows, weights


def section(ts: TensorTermSum, d: int) -> np.ndarray:
    """The d^L x d^L corner of the operator in the tensor basis, exactly.

    Row/column order is lexicographic in the multi-index with slot 0 most
    significant, matching C-order flattening of a (d, .., d) array.
    """
    if d < 1:
        raise ValueError("section size must be positive")
    dim = d**ts.slots
    if dim > SECTION_MAX_DIM:
        raise RuntimeError(
            f"section budget exceeded: dimension {dim} > {SECTION_MAX_DIM}"
        )
    M = np.zeros((dim, dim), dtype=np.complex128)
    cols = np.arange(dim)
    for coeff, words in ts.terms:
        rows, weights = _term_columns(words, d, ts.q)
        ok = rows >= 0
        np.add.at(M, (rows[ok], cols[ok]), coeff * weights[ok])
    return M


# -- norm certification ----------------------------------------------------


def _term_shift_vector(words: tuple[FactorWord, ...]) -> tuple[int, ...]:
    return tuple(w.net_shift() for w in words)


def _largest_singular_value(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    gram = M.conj().T @ M
    ev = np.linalg.eigvalsh(gram)
    return math.sqrt(max(float(ev[-1]), 0.0))


def _group_cells(
    terms: list[Term], d: int, q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero cells (rows, cols, values) of one shift group on the d-box.

    Every live term of a group sends column beta to the same row beta + sigma,
    so duplicate cells merge by summing the terms column by column.
    """
    dim = d ** len(terms[0][1])
    total = np.zeros(dim, dtype=np.complex128)
    target = np.full(dim, -1, dtype=np.int64)
    for coeff, words in terms:
        rows, weights = _term_columns(words, d, q)
        ok = rows >= 0
        total[ok] += coeff * weights[ok]
        target[ok] = rows[ok]
    cols = np.flatnonzero((target >= 0) & (total != 0))
    return target[cols], cols, total[cols]


def _components(u: np.ndarray, v: np.ndarray, nodes: int) -> np.ndarray:
    """Root label of each edge (u, v) in the graph on ``nodes`` vertices.

    Hook-and-jump union: every root hooks under the smallest root it shares an
    edge with, then pointers jump to their roots.  Pointers only decrease, so
    each round either merges two trees or ends the loop.
    """
    parent = np.arange(nodes)
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return pu
        low = np.minimum(pu, pv)
        np.minimum.at(parent, pu, low)
        np.minimum.at(parent, pv, low)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _local_index(
    node: np.ndarray, comp: np.ndarray, blocks: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's node index inside its block, and the node count per block."""
    keys, inverse = np.unique(comp * dim + node, return_inverse=True)
    owner = keys // dim
    counts = np.bincount(owner, minlength=blocks)
    starts = np.cumsum(counts) - counts
    return inverse - starts[comp], counts


def _block_section_norm(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dim: int
) -> float:
    """Exact norm of the d-box section given by its nonzero cells.

    The section is block-diagonal over the connected components of its
    bipartite column/row graph.  Blocks of one shape are stacked and share one
    batched eigensolve of their Gram matrices (the smaller of M*M and MM*).
    """
    if values.size == 0:
        return 0.0
    roots = _components(cols, rows + dim, 2 * dim)
    _, comp = np.unique(roots, return_inverse=True)
    blocks = int(comp.max()) + 1
    local_row, height = _local_index(rows, comp, blocks, dim)
    local_col, width = _local_index(cols, comp, blocks, dim)
    base = int(width.max()) + 1
    shapes, shape_of = np.unique(height * base + width, return_inverse=True)
    cell_shape = shape_of[comp]
    cell_order = np.argsort(cell_shape, kind="stable")
    edges = np.searchsorted(cell_shape[cell_order], np.arange(len(shapes) + 1))
    best = 0.0
    for s, key in enumerate(shapes):
        h, w = divmod(int(key), base)
        idx = cell_order[edges[s] : edges[s + 1]]
        members, slot = np.unique(comp[idx], return_inverse=True)
        stack = np.zeros((members.size, h, w), dtype=np.complex128)
        stack[slot, local_row[idx], local_col[idx]] = values[idx]
        adj = stack.conj().transpose(0, 2, 1)
        gram = adj @ stack if h >= w else stack @ adj
        best = max(best, float(np.linalg.eigvalsh(gram)[:, -1].max()))
    return math.sqrt(max(best, 0.0))


def _tail_envelope(word: FactorWord, m_start: int, q: float) -> tuple[float, float]:
    """Interval containing {|weight of word on e_m| : m >= m_start}.

    Factors act right to left; only shifts lower the running index and only
    coshifts raise it, so a per-factor lower bound ``cur`` stays exact.
    """
    lo, hi = 1.0, 1.0
    cur = m_start
    for p in reversed(word.factors):
        if p is Primitive.SHIFT:
            flo, fhi = (1.0, 1.0) if cur >= 1 else (0.0, 1.0)
            cur = max(cur - 1, 0)
        elif p is Primitive.COSHIFT:
            flo, fhi = 1.0, 1.0
            cur += 1
        elif p is Primitive.IDENTITY:
            flo, fhi = 1.0, 1.0
        elif p is Primitive.PROJ0:
            flo, fhi = (0.0, 0.0) if cur >= 1 else (0.0, 1.0)
        elif p is Primitive.DIAG_QN:
            if q == 0.0:
                flo, fhi = (0.0, 0.0) if cur >= 1 else (0.0, 1.0)
            else:
                flo, fhi = 0.0, q**cur
        elif p is Primitive.DIAG_QN1:
            flo, fhi = (0.0, 0.0) if q == 0.0 else (0.0, q ** (cur + 1))
        else:  # DIAG_SQRTW
            if cur >= 1:
                flo, fhi = math.sqrt(max(1.0 - q ** (2 * cur), 0.0)), 1.0
            else:
                flo, fhi = 0.0, 1.0
        lo, hi = lo * flo, hi * fhi
    return lo, hi


def _slot_weight_intervals(
    word: FactorWord, grid: int, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weight intervals on indices {0..grid-1} plus a tail symbol for m >= grid."""
    lo = np.zeros(grid + 1)
    hi = np.zeros(grid + 1)
    for m in range(grid):
        step = word.apply(m, q)
        if step is not None:
            lo[m] = hi[m] = abs(step[0])
    tlo, thi = _tail_envelope(word, grid, q)
    lo[grid], hi[grid] = tlo, thi
    return lo, hi


def _group_weight_sup(
    terms: list[Term],
    sigma: tuple[int, ...],
    d: int,
    q: float,
) -> tuple[float, float]:
    """Sups of the grouped diagonal weight outside the d-box and everywhere.

    Finite indices are evaluated exactly, indices beyond the grid through
    interval envelopes; complex term segments are summed as center +- radius,
    so cancellation between terms survives into the bound.  Both sups are
    read from one interval grid.
    """
    L = len(sigma)
    if L == 0:
        return 0.0, 0.0
    reach = [
        max(len(words[s].factors) for _, words in terms) for s in range(L)
    ]
    grids = [d + reach[s] + 1 for s in range(L)]
    # cap the product grid; coarser tails stay rigorous
    while math.prod(g + 1 for g in grids) > 200_000:
        grids = [max(2, g - 1) for g in grids]
        if all(g == 2 for g in grids):
            break
    shape = tuple(g + 1 for g in grids)
    center = np.zeros(shape, dtype=np.complex128)
    radius = np.zeros(shape)
    for coeff, words in terms:
        lo = np.ones(shape)
        hi = np.ones(shape)
        for s in range(L):
            slo, shi = _slot_weight_intervals(words[s], grids[s], q)
            expand = [None] * L
            expand[s] = slice(None)
            lo = lo * slo[tuple(expand)]
            hi = hi * shi[tuple(expand)]
        center += coeff * (lo + hi) / 2.0
        radius += abs(coeff) * (hi - lo) / 2.0
    bound = np.abs(center) + radius
    # entries outside the box: some source or target index >= d
    mask = np.zeros(shape, dtype=bool)
    for s in range(L):
        tau = max(d - max(sigma[s], 0), 0)
        axis = np.arange(grids[s] + 1) >= min(tau, grids[s])
        expand = [None] * L
        expand[s] = slice(None)
        mask |= axis[tuple(expand)]
    outside = float(bound[mask].max()) if mask.any() else 0.0
    return outside, float(bound.max())


def norm_bounds(ts: TensorTermSum, d: int) -> tuple[float, float]:
    """Certified two-sided bounds lower <= ||A|| <= upper.

    The lower bound is the exact norm of the d-box section (norms of sections
    increase to the operator norm).  Each term moves a multi-index by its
    net-shift vector, so the section is block-diagonal over the connected
    components of its sparse cells; the norm is the largest of small dense
    block norms, and the d^L x d^L matrix is never built.  A single shift
    group has one cell per column, so its section norm is the largest column
    weight.  The d-box dimension d^L may not exceed ``APPLY_MAX_DIM`` (the
    norm budget); a larger one raises RuntimeError before any allocation.

    Two rigorous upper certificates are formed and the smaller wins: the
    section norm plus, per net-shift-vector group of terms, an
    interval-arithmetic sup of the grouped weight outside the box (tight when
    outgoing diagonals decay or vanish), and the sum over groups of each
    group's full weight sup (tight when a single group carries persistent
    far-out weight).
    """
    dim = d**ts.slots
    if dim > APPLY_MAX_DIM:
        raise RuntimeError(
            f"norm budget exceeded: dimension {dim} > {APPLY_MAX_DIM}"
        )
    if ts.is_zero():
        return 0.0, 0.0
    if ts.slots == 0:
        value = abs(sum(c for c, _ in ts.terms))
        return value, value
    groups: dict[tuple[int, ...], list[Term]] = {}
    for term in ts.terms:
        groups.setdefault(_term_shift_vector(term[1]), []).append(term)
    ordered = sorted(groups.items())
    cells = [_group_cells(terms, d, ts.q) for _, terms in ordered]
    sups = [_group_weight_sup(terms, sigma, d, ts.q) for sigma, terms in ordered]

    if len(groups) == 1:
        values = cells[0][2]
        lower = float(np.abs(values).max()) if values.size else 0.0
        return lower, max(lower, sups[0][0])

    rows, cols, values = (np.concatenate(parts) for parts in zip(*cells))
    lower = _block_section_norm(rows, cols, values, dim)
    tail = sum(outside for outside, _ in sups)
    total = sum(full for _, full in sups)
    return lower, max(lower, min(lower + tail, total))


# -- export ----------------------------------------------------------------


def _format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def matrix_to_csv(M: np.ndarray) -> str:
    """Row-major CSV with cells formatted as re+imi."""
    lines = [",".join(_format_complex(z) for z in row) for row in np.atleast_2d(M)]
    return "\n".join(lines) + "\n"


def matrix_to_json(M: np.ndarray) -> str:
    """Row-major nested lists of [re, im] pairs."""
    data = [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(M)]
    return json.dumps(data)
