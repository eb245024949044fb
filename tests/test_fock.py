"""Operator layer: primitive shifts, tensor term sums, sections, norm brackets."""

import math
import tracemalloc

import numpy as np
import pytest

from qcrystal.fock import (
    APPLY_MAX_DIM,
    SECTION_MAX_DIM,
    WORD_COLUMNS_CACHE_MAX_D,
    FactorWord,
    Primitive,
    TensorTermSum,
    apply,
    matrix_to_csv,
    matrix_to_json,
    norm_bounds,
    primitive_step,
    section,
    _largest_singular_value,
    _word_columns,
)

S = Primitive.SHIFT
SS = Primitive.COSHIFT
P0 = Primitive.PROJ0
QN = Primitive.DIAG_QN
QN1 = Primitive.DIAG_QN1
SQ = Primitive.DIAG_SQRTW
I = Primitive.IDENTITY


def one_slot(q, *terms):
    return TensorTermSum(1, q, tuple((c, (FactorWord(fs),)) for c, fs in terms))


def test_primitive_steps():
    assert primitive_step(S, 0, 0.5) is None
    assert primitive_step(S, 3, 0.5) == (1.0, 2)
    assert primitive_step(SS, 2, 0.5) == (1.0, 3)
    assert primitive_step(P0, 0, 0.5) == (1.0, 0)
    assert primitive_step(P0, 1, 0.5) is None
    assert primitive_step(QN, 2, 0.5) == (0.25, 2)
    assert primitive_step(QN, 0, 0.0) == (1.0, 0)
    assert primitive_step(QN, 1, 0.0) is None
    assert primitive_step(QN1, 1, 0.5) == (0.25, 1)
    assert primitive_step(QN1, 0, 0.0) is None
    w, m = primitive_step(SQ, 2, 0.5)
    assert m == 2 and abs(w - math.sqrt(1 - 0.5**4)) < 1e-15
    assert primitive_step(SQ, 0, 0.5) is None
    assert primitive_step(SQ, 3, 0.0) == (1.0, 3)


def test_factor_word_applies_right_to_left():
    # (SHIFT, DIAG_QN) is the operator S q^N: weight picked up before the shift
    word = FactorWord((S, QN))
    assert word.apply(2, 0.5) == (0.25, 1)
    assert word.apply(0, 0.5) is None
    # (DIAG_QN, SHIFT) is q^N S: weight read at the shifted index
    other = FactorWord((QN, S))
    assert other.apply(2, 0.5) == (0.5, 1)
    assert FactorWord((), 2.0 - 1.0j).apply(5, 0.0) == (2.0 - 1.0j, 5)


def test_adjoint_swaps_shifts_and_reverses():
    word = FactorWord((S, SQ), 1.0 + 2.0j)
    adj = word.adjoint()
    assert adj.factors == (SQ, SS)
    assert adj.scalar == 1.0 - 2.0j
    assert adj.adjoint() == word


def test_support_interval_detects_dead_words():
    assert FactorWord((S, P0)).is_zero(0.5)  # S P0 e_0 = S e_0 = 0
    assert not FactorWord((P0, S)).is_zero(0.5)  # P0 S e_1 = e_0
    assert FactorWord((P0, P0, S)).is_zero(0.5) is False
    assert FactorWord((P0, S, P0)).is_zero(0.5)
    assert FactorWord((QN1,)).is_zero(0.0)
    assert not FactorWord((QN1,)).is_zero(0.3)
    assert FactorWord((QN, SS)).is_zero(0.0)  # q^N S* has index >= 1 at q = 0
    assert FactorWord((SQ, P0)).is_zero(0.0)
    assert FactorWord((S,), 0.0).is_zero(0.5)
    assert FactorWord((SS, S)).support_interval(0.5) == (1, None)
    assert FactorWord((P0,)).support_interval(0.5) == (0, 0)


def test_term_sum_normalization():
    ts = one_slot(0.5, (1.0, (S,)), (1.0, (S,)), (-2.0, (S,)))
    assert ts.is_zero()
    ts = one_slot(0.0, (3.0, (QN1,)), (1.0, (I,)))
    assert len(ts.terms) == 1  # q = 0 kills the q^{N+1} word
    folded = TensorTermSum(1, 0.5, ((2.0, (FactorWord((S,), scalar=-0.5j),)),))
    assert folded.terms[0][0] == -1.0j
    assert folded.terms[0][1][0].scalar == 1.0
    with pytest.raises(ValueError):
        TensorTermSum(1, 1.0, ())
    with pytest.raises(ValueError):
        TensorTermSum(2, 0.5, ((1.0, (FactorWord((S,)),)),))


def test_q_compatibility_rules():
    shifty = one_slot(0.0, (1.0, (S,)))
    diag = one_slot(0.5, (1.0, (QN,)))
    assert (shifty + diag).q == 0.5  # q-independent side adopts the other q
    with pytest.raises(ValueError):
        one_slot(0.3, (1.0, (QN,))) + diag


def test_apply_matches_section_entries():
    q = 0.4
    ts = TensorTermSum(
        2,
        q,
        (
            (1.5, (FactorWord((S, SQ)), FactorWord((QN,)))),
            (-0.5j, (FactorWord((SS,)), FactorWord((P0,)))),
            (2.0, (FactorWord(()), FactorWord((QN1,)))),
        ),
    )
    d = 5
    M = section(ts, d)
    for b0 in range(d):
        for b1 in range(d):
            image = apply(ts, (b0, b1))
            col = np.zeros(d * d, dtype=complex)
            for (t0, t1), amp in image.items():
                if t0 < d and t1 < d:
                    col[t0 * d + t1] = amp
            assert np.allclose(M[:, b0 * d + b1], col, atol=1e-15)


def test_apply_is_linear_in_terms():
    q = 0.3
    a = one_slot(q, (1.0, (S, SQ)))
    b = one_slot(q, (1.0j, (QN,)))
    beta = (3,)
    combined = apply(a + b, beta)
    separate = {}
    for part in (apply(a, beta), apply(b, beta)):
        for k, v in part.items():
            separate[k] = separate.get(k, 0) + v
    assert combined == {k: v for k, v in separate.items() if v != 0}
    with pytest.raises(ValueError):
        apply(a, (1, 2))


def test_word_columns_are_read_only_on_both_sides_of_the_cache_bound():
    word = FactorWord((SQ, SS, QN))
    d = WORD_COLUMNS_CACHE_MAX_D
    small = _word_columns(word, d, 0.3)
    large = _word_columns(word, d + 5, 0.3)
    assert _word_columns(word, d, 0.3) is small  # cached
    assert _word_columns(word, d + 5, 0.3) is not large  # beyond the bound
    for arr in small + large:
        assert not arr.flags.writeable
    assert np.array_equal(large[0][:d], small[0])
    assert np.array_equal(large[1][:d], small[1])


def test_section_structure():
    d = 4
    shift = one_slot(0.5, (1.0, (S,)))
    M = section(shift, d)
    expected = np.zeros((d, d))
    for m in range(1, d):
        expected[m - 1, m] = 1.0
    assert np.array_equal(M, expected)
    # S* section is the adjoint section
    assert np.array_equal(section(shift.adjoint(), d), M.conj().T)
    # S S* = I exactly
    assert np.array_equal(section(shift @ shift.adjoint(), d), np.eye(d))
    # S* S = I - P0
    M2 = section(shift.adjoint() @ shift, d)
    assert np.array_equal(M2, np.diag([0.0] + [1.0] * (d - 1)))


def test_product_section_interior_identity():
    q = 0.35
    a = TensorTermSum(
        2, q, ((1.0, (FactorWord((S, SQ)), FactorWord((QN,)))),
               (0.5, (FactorWord((SS,)), FactorWord((S,)))))
    )
    b = TensorTermSum(
        2, q, ((1.0j, (FactorWord((QN1,)), FactorWord((SS,)))),
               (-1.0, (FactorWord((P0,)), FactorWord(()))))
    )
    d = 6
    reach = 2  # every word above has at most one shift per slot, twice composed
    Mab = section(a @ b, d)
    Ma, Mb = section(a, d), section(b, d)
    prod = Ma @ Mb
    interior = d - reach
    idx = [i * d + j for i in range(interior) for j in range(interior)]
    assert np.allclose(Mab[np.ix_(idx, idx)], prod[np.ix_(idx, idx)], atol=1e-13)


def test_adjoint_is_involutive_and_matches_sections():
    q = 0.25
    ts = TensorTermSum(
        2, q, ((1.0 - 2.0j, (FactorWord((S, SQ)), FactorWord((QN, SS)))),)
    )
    assert ts.adjoint().adjoint() == ts
    M = section(ts, 5)
    assert np.allclose(section(ts.adjoint(), 5), M.conj().T, atol=1e-15)


def test_norm_bounds_zero_identity_and_scalars():
    assert norm_bounds(TensorTermSum.zero(2, 0.3), 6) == (0.0, 0.0)
    lo, up = norm_bounds(TensorTermSum.identity(2, 0.3), 6)
    assert lo == up == 1.0
    scalar = TensorTermSum(0, 0.0, ((3.0 - 4.0j, ()),))
    assert norm_bounds(scalar, 1) == (5.0, 5.0)
    shift = one_slot(0.5, (1.0, (S,)))
    lo, up = norm_bounds(shift, 8)
    assert lo == up == 1.0


def test_norm_anchor_diagonal_deficit():
    # q^N - P0 at q = 0.3: norm is exactly q, met by lower and upper
    q = 0.3
    ts = one_slot(q, (1.0, (QN,)), (-1.0, (P0,)))
    lo, up = norm_bounds(ts, 8)
    assert lo == q
    assert up == q


def test_norm_anchor_shift_deficit():
    # S sqrt(1-q^{2N}) - S: norm is 1 - sqrt(1 - q^2), exact on both sides
    q = 0.3
    ts = one_slot(q, (1.0, (S, SQ)), (-1.0, (S,)))
    lo, up = norm_bounds(ts, 8)
    expected = 1.0 - math.sqrt(1.0 - q * q)
    assert abs(lo - expected) < 1e-15
    assert abs(up - expected) < 1e-15


def test_norm_bracket_multi_group():
    # S + S* has norm 2; the bracket must contain it even if loose above
    ts = one_slot(0.5, (1.0, (S,)), (1.0, (SS,)))
    lo, up = norm_bounds(ts, 32)
    assert lo <= 2.0 <= up
    assert lo > 1.9  # the section lower bound approaches 2 from below


def test_norm_lower_monotone_in_section_size():
    q = 0.4
    ts = TensorTermSum(
        2, q, ((1.0, (FactorWord((S, SQ)), FactorWord((QN,)))),
               (-1.0, (FactorWord((S,)), FactorWord((P0,)))))
    )
    lowers = [norm_bounds(ts, d)[0] for d in (2, 4, 6, 8)]
    for a, b in zip(lowers, lowers[1:]):
        assert a <= b + 1e-15


def test_norm_gap_shrinks_for_decaying_tails():
    q = 0.3
    ts = one_slot(q, (1.0, (QN,)), (-1.0, (P0,)), (1.0, (S, QN1)))
    gaps = []
    for d in (4, 10):
        lo, up = norm_bounds(ts, d)
        assert lo <= up
        gaps.append(up - lo)
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-4


def test_norm_fast_path_matches_dense():
    q = 0.45
    ts = TensorTermSum(
        2, q, ((1.0, (FactorWord((S, SQ)), FactorWord((S,)))),
               (-1.0, (FactorWord((S,)), FactorWord((S,)))))
    )
    lo, _ = norm_bounds(ts, 6)
    M = section(ts, 6)
    dense = max(np.linalg.svd(M, compute_uv=False))
    assert abs(lo - dense) < 1e-12


def test_block_norm_path_above_old_dense_cutoff():
    # two shift groups at dimension 1600 go through the block path
    q = 0.5
    ts = TensorTermSum(
        2, q, ((1.0, (FactorWord((QN,)), FactorWord((QN,)))),
               (0.5, (FactorWord((S,)), FactorWord((S,)))))
    )
    lo, up = norm_bounds(ts, 40)
    assert 1.0 <= lo <= up
    assert lo >= math.sqrt(1 + 0.25 * q**4) - 1e-9
    assert norm_bounds(ts, 40) == (lo, up)  # deterministic
    assert 40**2 <= SECTION_MAX_DIM
    assert abs(lo - _largest_singular_value(section(ts, 40))) < 1e-12


def _multi_group_sums():
    q = 0.35
    yield TensorTermSum(
        2, q, ((1.0, (FactorWord((S, SQ)), FactorWord((QN,)))),
               (-0.5j, (FactorWord((SS,)), FactorWord((P0,)))),
               (2.0, (FactorWord(()), FactorWord((QN1,)))))
    )
    # a chain coupling three groups, with complex coefficients
    yield TensorTermSum(
        2, q, ((1.0 + 1.0j, (FactorWord((S,)), FactorWord((SS,)))),
               (0.7, (FactorWord((SS, QN)), FactorWord((S,)))),
               (-0.3j, (FactorWord((SQ,)), FactorWord(()))))
    )
    # three slots, rectangular blocks at the box edge
    yield TensorTermSum(
        3, q, ((1.0, (FactorWord((S,)), FactorWord(()), FactorWord((P0,)))),
               (0.5, (FactorWord(()), FactorWord((SS,)), FactorWord((QN,)))),
               (-1.0, (FactorWord((QN1,)), FactorWord((S, SQ)), FactorWord((SS,)))))
    )
    # terms that cancel on part of the box: S sqrt(1-q^{2N}) - S plus S*
    yield one_slot(q, (1.0, (S, SQ)), (-1.0, (S,)), (0.25, (SS,)))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_block_norm_matches_dense_oracle(d):
    for ts in _multi_group_sums():
        lo, up = norm_bounds(ts, d)
        assert abs(lo - _largest_singular_value(section(ts, d))) < 1e-12
        assert lo <= up


def test_norm_budget_guard_before_allocation():
    # a single-group operator whose box could not even be allocated
    ts = TensorTermSum.identity(4, 0.3)
    d = 1 << 16
    assert d**4 > APPLY_MAX_DIM
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="budget"):
            norm_bounds(ts, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(RuntimeError, match="budget"):
        norm_bounds(one_slot(0.5, (1.0, (S,))), APPLY_MAX_DIM + 1)
    assert norm_bounds(one_slot(0.5, (1.0, (S,))), 64) == (1.0, 1.0)


def test_section_budget_guard():
    ts = TensorTermSum.identity(4, 0.0)
    with pytest.raises(RuntimeError):
        section(ts, 10)


def test_matrix_export_formats():
    M = np.array([[1.0, -2.5j], [0.25 + 0.5j, 0.0]])
    csv = matrix_to_csv(M)
    assert csv == "1.0+0.0i,-0.0-2.5i\n0.25+0.5i,0.0+0.0i\n"
    data = matrix_to_json(M)
    assert data == "[[[1.0, 0.0], [-0.0, -2.5]], [[0.25, 0.5], [0.0, 0.0]]]"
