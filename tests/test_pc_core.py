import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgeom import (
    IndexOutOfRangeError,
    MultiplicativeMatrix,
    NonFiniteEntryError,
    NonIncreasingTriadError,
    NonPositiveEntryError,
    NonSquareError,
    NotReciprocalError,
    NotSkewSymmetricError,
    TooSmallError,
    algebraic_inconsistency,
    all_triad_deviations,
    from_scores,
    is_consistent,
    new_additive,
    new_multiplicative,
    permute,
    recover_scores,
    to_additive,
    to_multiplicative,
    triad_deviation,
)
from pcgeom import indexing

CONSISTENT_3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
INCONSISTENT_3 = [[0, 1, 3], [-1, 0, 1], [-3, -1, 0]]


def random_additive(rng, n, scale=5.0):
    upper = rng.uniform(-scale, scale, size=(n, n))
    raw = np.triu(upper, k=1)
    return new_additive(raw - raw.T)


# ---------------------------------------------------------------- construction


def test_new_additive_accepts_consistent_example():
    a = new_additive(CONSISTENT_3, tol=1e-9)
    assert a.n == 3
    np.testing.assert_array_equal(a.to_array(), np.asarray(CONSISTENT_3, float))


def test_new_additive_accepts_zero_matrix():
    a = new_additive([[0, 0], [0, 0]])
    assert np.all(a.upper == 0)


def test_new_additive_rejects_symmetric():
    with pytest.raises(NotSkewSymmetricError, match=r"\(1,2\)"):
        new_additive([[0, 1], [1, 0]])


def test_new_additive_rejects_nonzero_diagonal():
    with pytest.raises(NotSkewSymmetricError, match=r"\(2,2\)"):
        new_additive([[0, 1], [-1, 0.5]])


def test_new_additive_rejects_non_square():
    with pytest.raises(NonSquareError):
        new_additive([[0, 1, 0], [-1, 0, 0]])


def test_new_additive_rejects_tiny():
    with pytest.raises(TooSmallError):
        new_additive([[0.0]])


def test_new_additive_rejects_nan():
    with pytest.raises(NonFiniteEntryError, match=r"\(1,2\)"):
        new_additive([[0, np.nan], [-1, 0]])


def test_new_additive_tolerates_small_asymmetry():
    a = new_additive([[0, 1], [-1 + 1e-12, 0]], tol=1e-9)
    # upper triangle wins, lower triangle is the exact negation
    assert a.entry(2, 1) == -1.0


def test_lower_triangle_is_exact_negation():
    rng = np.random.default_rng(7)
    a = random_additive(rng, 5)
    full = a.to_array()
    assert np.array_equal(full, -full.T)


def test_entry_accessor_is_one_based():
    a = new_additive(INCONSISTENT_3)
    assert a.entry(1, 3) == 3.0
    assert a.entry(3, 1) == -3.0
    assert a.entry(2, 2) == 0.0
    with pytest.raises(IndexOutOfRangeError):
        a.entry(0, 1)
    with pytest.raises(IndexOutOfRangeError):
        a.entry(1, 4)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: from_scores([0.0, math.nan, 1.0]), NonFiniteEntryError,
         "score 2 is not finite"),
        (lambda: from_scores([1.0]), TooSmallError, "need at least 2 scores"),
        (lambda: from_scores([0.0, 1e308, -1e308]), OverflowError,
         "difference of scores 2 and 3 overflows: 1e+308 - -1e+308 is too large"),
        (lambda: new_multiplicative([[1, math.inf], [0.5, 1]]),
         NonFiniteEntryError, "entry (1,2) is not finite"),
        (lambda: new_multiplicative(np.ones((2, 2))).entry(3, 1),
         IndexOutOfRangeError, "index 3 outside 1..2"),
        (lambda: new_additive(np.zeros((2, 2)), tol=0.0), ValueError,
         "tolerance must be positive"),
        (lambda: new_multiplicative(np.ones((2, 2)), tol=-1.0), ValueError,
         "tolerance must be positive"),
        (lambda: is_consistent(new_additive(CONSISTENT_3), tol=0.0), ValueError,
         "tolerance must be positive"),
        (lambda: permute(new_additive(CONSISTENT_3), [1, 1, 2]), ValueError,
         "order must be a permutation of 1..3"),
        (lambda: permute(from_scores([1, 2, 3]), [1.5, 2, 3]), ValueError,
         "order must be a permutation of 1..3"),
        (lambda: permute(from_scores([1, 2, 3]), ["1", "2", "3"]), ValueError,
         "order must be a permutation of 1..3"),
    ],
    ids=["scores-non-finite", "scores-too-few", "scores-overflow",
         "multiplicative-non-finite", "multiplicative-entry", "additive-tol",
         "multiplicative-tol", "consistent-tol", "permute-not-permutation",
         "permute-fraction", "permute-strings"],
)
def test_refusals_name_the_fault(call, error, message):
    with pytest.raises(error) as exc, warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal is the only signal
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


# ------------------------------------------------------------------ conversion


def test_from_scores_reproduces_consistent_example():
    a = from_scores([1.0, 0.0, 1.0])
    np.testing.assert_array_equal(a.to_array(), np.asarray(CONSISTENT_3, float))


def test_from_scores_constant_gives_zero_matrix():
    a = from_scores([3.5] * 4)
    assert np.all(a.upper == 0)


def test_from_scores_hand_example():
    a = from_scores([1.0, 0.0, 0.0])
    expected = [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]
    np.testing.assert_array_equal(a.to_array(), np.asarray(expected, float))


def test_to_multiplicative_matches_exponentials():
    a = new_additive(CONSISTENT_3)
    m = to_multiplicative(a)
    e = math.e
    expected = [[1, e, 1], [1 / e, 1, 1 / e], [1, e, 1]]
    np.testing.assert_allclose(m.entries, expected, rtol=0, atol=1e-15)


def test_to_multiplicative_zero_matrix_gives_ones():
    m = to_multiplicative(new_additive(np.zeros((3, 3))))
    np.testing.assert_array_equal(m.entries, np.ones((3, 3)))


def test_to_multiplicative_two_by_two():
    m = to_multiplicative(new_additive([[0, 2], [-2, 0]]))
    np.testing.assert_allclose(
        m.entries, [[1, math.e**2], [math.e**-2, 1]], rtol=1e-15
    )


def test_to_multiplicative_overflow():
    a = new_additive([[0, 1000.0], [-1000.0, 0]])
    with pytest.raises(OverflowError):
        to_multiplicative(a)


def test_to_additive_inverts_exponential():
    a = to_additive(new_multiplicative([[1, math.e**2], [math.e**-2, 1]]))
    np.testing.assert_allclose(a.to_array(), [[0, 2], [-2, 0]], atol=1e-14)


def test_to_additive_all_ones_gives_zero():
    a = to_additive(new_multiplicative(np.ones((4, 4))))
    assert np.all(a.upper == 0)


def test_to_additive_names_the_non_positive_entry_as_a_plain_float():
    m = MultiplicativeMatrix(n=2, entries=np.array([[1.0, -2.0], [-0.5, 1.0]]))
    with pytest.raises(NonPositiveEntryError) as exc:
        to_additive(m)
    assert str(exc.value) == "entry (1,2) = -2.0 must be positive"


def test_new_multiplicative_rejects_non_positive():
    with pytest.raises(NonPositiveEntryError):
        new_multiplicative([[1, 0.0], [2.0, 1]])


def test_new_multiplicative_rejects_non_reciprocal():
    with pytest.raises(NotReciprocalError):
        new_multiplicative([[1, 2], [2, 1]])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=7),
    st.data(),
)
def test_round_trip_within_1e12(scores, data):
    """exp then log returns the additive matrix within 1e-12 per entry."""
    n = len(scores)
    noise = data.draw(
        st.lists(
            st.floats(-50, 50), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        )
    )
    rows, cols = np.triu_indices(n, k=1)
    raw = np.zeros((n, n))
    raw[rows, cols] = np.asarray(scores)[rows] - np.asarray(scores)[cols] + noise
    raw = np.clip(raw, -100, 100)
    a = new_additive(raw - raw.T)
    back = to_additive(to_multiplicative(a))
    np.testing.assert_allclose(back.upper, a.upper, rtol=0, atol=1e-12)


# ------------------------------------------------------------------ deviations


def test_triad_deviation_consistent_matrix_is_zero():
    a = new_additive(CONSISTENT_3)
    assert triad_deviation(a, 1, 2, 3) == 0.0


def test_triad_deviation_zero_matrix():
    a = new_additive(np.zeros((4, 4)))
    assert triad_deviation(a, 2, 3, 4) == 0.0


def test_triad_deviation_hand_example():
    a = new_additive(INCONSISTENT_3)
    assert triad_deviation(a, 1, 2, 3) == -1.0


def test_triad_deviation_rejects_bad_order():
    a = new_additive(INCONSISTENT_3)
    with pytest.raises(NonIncreasingTriadError):
        triad_deviation(a, 2, 1, 3)
    with pytest.raises(IndexOutOfRangeError):
        triad_deviation(a, 1, 2, 4)


def test_all_triad_deviations_single_triad():
    assert all_triad_deviations(new_additive(CONSISTENT_3)).tolist() == [0.0]
    assert all_triad_deviations(new_additive(INCONSISTENT_3)).tolist() == [-1.0]


def test_all_triad_deviations_n4_zero():
    d = all_triad_deviations(new_additive(np.zeros((4, 4))))
    assert d.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert (np.column_stack(indexing.unranker(4, 3)(np.arange(4))) + 1).tolist() == [
        [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]
    ]


def test_deviation_sign_flips_under_index_swap():
    """Swapping two triad indices in the raw formula flips the sign."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_additive(rng, 6)
        full = a.to_array()
        i, j, k = sorted(rng.choice(6, size=3, replace=False))
        forward = full[i, j] + full[j, k] - full[i, k]
        swapped = full[i, k] + full[k, j] - full[i, j]  # (i, k, j) ordering
        assert forward == pytest.approx(-swapped, abs=1e-12)


# --------------------------------------------------------------------- indices


def test_algebraic_inconsistency_examples():
    assert algebraic_inconsistency(new_additive(CONSISTENT_3)) == 0.0
    assert algebraic_inconsistency(new_additive(INCONSISTENT_3)) == 1.0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
def test_from_scores_is_consistent(scores):
    a = from_scores(scores)
    assert algebraic_inconsistency(a) <= 1e-12


def test_is_consistent_examples():
    assert is_consistent(new_additive(CONSISTENT_3), tol=1e-9)
    assert is_consistent(new_additive(np.zeros((5, 5))))
    assert not is_consistent(new_additive(INCONSISTENT_3), tol=1e-9)


def test_permutation_invariance_of_i_alg():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(3, 7)
        a = random_additive(rng, n)
        order = rng.permutation(n) + 1
        b = permute(a, order)
        assert algebraic_inconsistency(b) == pytest.approx(
            algebraic_inconsistency(a), rel=1e-12
        )
        assert np.allclose(
            np.sort(np.abs(all_triad_deviations(b))),
            np.sort(np.abs(all_triad_deviations(a))),
            atol=1e-12,
        )


# ---------------------------------------------------------------------- scores


def test_recover_scores_consistent_example():
    s, r = recover_scores(new_additive(CONSISTENT_3))
    np.testing.assert_allclose(s, [1 / 3, -2 / 3, 1 / 3], atol=1e-15)
    assert np.all(r.upper == 0)
    np.testing.assert_allclose(
        from_scores(s).to_array(), np.asarray(CONSISTENT_3, float), atol=1e-15
    )


def test_recover_scores_zero_matrix():
    s, r = recover_scores(new_additive(np.zeros((3, 3))))
    assert np.all(s == 0)
    assert np.all(r.upper == 0)


def test_recover_scores_hand_example():
    s, r = recover_scores(new_additive(INCONSISTENT_3))
    np.testing.assert_allclose(s, [4 / 3, 0.0, -4 / 3], atol=1e-15)
    np.testing.assert_allclose(r.upper, [-1 / 3, 1 / 3, -1 / 3], atol=1e-15)


def test_residual_is_skew_symmetric():
    rng = np.random.default_rng(5)
    a = random_additive(rng, 6)
    _, r = recover_scores(a)
    full = r.to_array()
    assert np.array_equal(full, -full.T)


def test_consistency_matches_residual_size():
    """Consistent matrices have small residuals and vice versa."""
    rng = np.random.default_rng(13)
    tol = 1e-9
    for _ in range(20):
        n = int(rng.integers(3, 8))
        consistent = from_scores(rng.uniform(-5, 5, size=n))
        assert is_consistent(consistent, tol)
        _, r = recover_scores(consistent)
        assert np.max(np.abs(r.upper)) <= n * tol

        noisy = random_additive(rng, n)
        _, r = recover_scores(noisy)
        if np.max(np.abs(r.upper)) <= tol / 3:
            assert is_consistent(noisy, tol)
