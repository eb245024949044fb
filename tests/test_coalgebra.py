"""Coproduct path combinatorics."""

from collections import Counter

import pytest

from qcrystal.coalgebra import (
    coproduct_middle_indices,
    coproduct_paths,
    delete_legs,
    is_monotone,
    stepwise_paths,
)


def expand_paths_recursive(i, j, legs, n, mode, leftward):
    """Oracle: iterate the one-step coproduct one leg at a time.

    ``leftward`` expands the first leg first, otherwise the last leg first;
    coassociativity says the resulting path multisets agree.
    """
    if legs == 1:
        return [(i, j)]
    out = []
    for k in coproduct_middle_indices(i, j, n, mode):
        if leftward:
            for rest in expand_paths_recursive(k, j, legs - 1, n, mode, leftward):
                out.append((i,) + rest)
        else:
            for rest in expand_paths_recursive(i, k, legs - 1, n, mode, leftward):
                out.append(rest + (j,))
    return out


def test_middle_indices():
    assert coproduct_middle_indices(1, 3, 2, "crystal") == [1, 2, 3]
    assert coproduct_middle_indices(3, 1, 2, "crystal") == [1, 2, 3]
    assert coproduct_middle_indices(2, 2, 2, "crystal") == [2]
    assert coproduct_middle_indices(2, 2, 2, "generic") == [1, 2, 3]
    with pytest.raises(ValueError):
        coproduct_middle_indices(0, 1, 2, "crystal")


def test_crystal_paths_are_the_monotone_paths():
    for n in (1, 2, 3):
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                for legs in (1, 2, 3):
                    crystal = coproduct_paths(i, j, legs, n, "crystal")
                    generic = coproduct_paths(i, j, legs, n, "generic")
                    monotone = [p for p in generic if is_monotone(p)]
                    assert sorted(crystal) == sorted(monotone)
                    assert len(set(crystal)) == len(crystal)
                    assert set(crystal) <= set(generic)


@pytest.mark.parametrize("mode", ["crystal", "generic"])
def test_coassociativity_of_iterated_paths(mode):
    # expanding leg-by-leg from either end gives the same path multiset
    for n in (1, 2, 3):
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                for legs in (1, 2, 3, 4):
                    left = Counter(expand_paths_recursive(i, j, legs, n, mode, True))
                    right = Counter(expand_paths_recursive(i, j, legs, n, mode, False))
                    # the verify suite's oracle is the same recursion
                    for leftward in (True, False):
                        assert stepwise_paths(
                            i, j, legs, n, mode, leftward
                        ) == expand_paths_recursive(i, j, legs, n, mode, leftward)
                    direct = Counter(coproduct_paths(i, j, legs, n, mode))
                    assert left == right == direct
                    assert all(c == 1 for c in direct.values())


def test_path_counts():
    assert coproduct_paths(2, 2, 3, 2, "crystal") == [(2, 2, 2, 2)]
    assert len(coproduct_paths(1, 3, 2, 2, "crystal")) == 3  # 1<=k<=3
    assert len(coproduct_paths(1, 2, 3, 2, "generic")) == 9
    with pytest.raises(ValueError):
        coproduct_paths(1, 1, 0, 2, "crystal")
    with pytest.raises(ValueError):
        stepwise_paths(1, 1, 0, 2, "crystal", True)
    with pytest.raises(ValueError):
        stepwise_paths(1, 4, 1, 2, "generic", True)


def test_paths_deterministic_order():
    paths = coproduct_paths(1, 3, 2, 2, "crystal")
    assert paths == [(1, 1, 3), (1, 2, 3), (1, 3, 3)]
    down = coproduct_paths(3, 1, 2, 2, "crystal")
    assert down == [(3, 1, 1), (3, 2, 1), (3, 3, 1)]


def test_delete_legs():
    paths = [(1, 1, 2), (1, 2, 2), (1, 3, 2)]
    assert delete_legs(paths, [1]) == [(1, 2)]
    assert delete_legs(paths, [2]) == [(1, 2)]
    assert delete_legs([(2, 2, 2, 2)], [1, 3]) == [(2, 2)]
    assert delete_legs(paths, []) == paths
    with pytest.raises(ValueError):
        delete_legs(paths, [3])
