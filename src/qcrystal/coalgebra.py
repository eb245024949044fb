"""Coproduct index paths for the generator matrix, generic and crystal modes.

Iterated coproducts of a matrix entry z_{i,j} expand into sums indexed by
paths i = k_0, k_1, .., k_L = j, one leg per tensor slot.  In generic mode the
intermediate nodes range over the whole index set 1..n+1.  In crystal mode the
single coproduct of z_{i,j} only keeps middle indices between i and j, and
iterating that truncation in any bracketing order produces exactly the weakly
monotone paths from i to j, each once.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Literal

IndexPath = tuple[int, ...]
Mode = Literal["generic", "crystal"]


def coproduct_middle_indices(i: int, j: int, n: int, mode: Mode) -> list[int]:
    """Middle indices k of the one-step coproduct of z_{i,j}."""
    _check(i, j, n)
    if mode == "generic":
        return list(range(1, n + 2))
    return list(range(min(i, j), max(i, j) + 1))


def coproduct_paths(i: int, j: int, legs: int, n: int, mode: Mode) -> list[IndexPath]:
    """All admissible node paths from i to j with the given number of legs.

    Paths are returned in lexicographic order and each admissible path occurs
    exactly once; for the crystal mode these are the weakly monotone paths.

    >>> coproduct_paths(1, 2, 2, 2, "crystal")
    [(1, 1, 2), (1, 2, 2)]
    >>> len(coproduct_paths(1, 2, 2, 2, "generic"))
    3
    """
    _check(i, j, n)
    if legs < 1:
        raise ValueError("need at least one leg")
    if mode == "generic":
        return [
            (i, *mid, j)
            for mid in itertools.product(range(1, n + 2), repeat=legs - 1)
        ]
    if i == j:
        return [(i,) * (legs + 1)]
    lo, hi = min(i, j), max(i, j)
    paths = []
    for mid in itertools.combinations_with_replacement(range(lo, hi + 1), legs - 1):
        nodes = (i, *mid, j) if i < j else (i, *reversed(mid), j)
        paths.append(nodes)
    return paths


def stepwise_paths(
    i: int, j: int, legs: int, n: int, mode: Mode, leftward: bool
) -> list[IndexPath]:
    """Iterate the one-step coproduct one leg at a time, from either end.

    ``leftward`` splits off the first leg, otherwise the last one.  By
    coassociativity both orders give the paths of ``coproduct_paths``; this
    recursion is the independent oracle for that.

    >>> stepwise_paths(3, 1, 2, 2, "crystal", False)
    [(3, 1, 1), (3, 2, 1), (3, 3, 1)]
    """
    if legs < 1:
        raise ValueError("need at least one leg")
    if legs == 1:
        _check(i, j, n)
        return [(i, j)]
    out: list[IndexPath] = []
    for k in coproduct_middle_indices(i, j, n, mode):
        if leftward:
            for rest in stepwise_paths(k, j, legs - 1, n, mode, leftward):
                out.append((i,) + rest)
        else:
            for rest in stepwise_paths(i, k, legs - 1, n, mode, leftward):
                out.append(rest + (j,))
    return out


def is_monotone(path: IndexPath) -> bool:
    steps = [b - a for a, b in zip(path, path[1:])]
    return all(s >= 0 for s in steps) or all(s <= 0 for s in steps)


def delete_legs(paths: Iterable[IndexPath], deleted: Iterable[int]) -> list[IndexPath]:
    """Collapse legs by the counit: keep paths constant on each deleted leg.

    ``deleted`` holds 1-based leg positions.  Surviving paths are returned with
    those legs removed; order is inherited from the input.

    >>> delete_legs([(1, 1, 2), (1, 2, 2)], [1])
    [(1, 2)]
    """
    positions = set(deleted)
    out = []
    for path in paths:
        if any(not 1 <= p <= len(path) - 1 for p in positions):
            raise ValueError(f"deleted leg out of range for path {path}")
        if all(path[p - 1] == path[p] for p in positions):
            out.append(tuple(node for m, node in enumerate(path) if m not in positions))
    return out


def _check(i: int, j: int, n: int) -> None:
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise ValueError(f"matrix index ({i},{j}) out of range for n={n}")
