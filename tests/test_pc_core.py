import json
import math
import warnings
from itertools import combinations

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
    NonPositiveLambdaError,
    NonPositiveStepError,
    NonSquareError,
    NotReciprocalError,
    NotSkewSymmetricError,
    TooSmallError,
    algebraic_inconsistency,
    all_triad_deviations,
    closed_form_diagnosis,
    coupling_coefficients,
    from_scores,
    gram_rows,
    is_consistent,
    new_additive,
    new_multiplicative,
    new_two_vector,
    permute,
    planar_embedding,
    recover_scores,
    reduce_iterative,
    standard_area_form,
    to_additive,
    to_multiplicative,
    triad_deviation,
)

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
         "tol must be positive and finite, got 0.0"),
        (lambda: new_multiplicative(np.ones((2, 2)), tol=-1.0), ValueError,
         "tol must be positive and finite, got -1.0"),
        (lambda: is_consistent(new_additive(CONSISTENT_3), tol=0.0), ValueError,
         "tol must be positive and finite, got 0.0"),
        (lambda: permute(new_additive(CONSISTENT_3), [1, 1, 2]), ValueError,
         "order must be a permutation of 1..3"),
        (lambda: permute(from_scores([1, 2, 3]), [1.5, 2, 3]), ValueError,
         "order must be a permutation of 1..3"),
        (lambda: permute(from_scores([1, 2, 3]), ["1", "2", "3"]), ValueError,
         "order must be a permutation of 1..3"),
        # An infinite tolerance would accept any matrix and call it consistent.
        (lambda: new_additive([[0, 5], [-4, 0]], tol=math.inf), ValueError,
         "tol must be positive and finite, got inf"),
        (lambda: new_multiplicative([[1, 5], [0.1, 1]], tol=math.inf), ValueError,
         "tol must be positive and finite, got inf"),
        (lambda: is_consistent(new_additive(INCONSISTENT_3), tol=math.inf),
         ValueError, "tol must be positive and finite, got inf"),
        (lambda: is_consistent(new_additive(CONSISTENT_3), tol=math.nan),
         ValueError, "tol must be positive and finite, got nan"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), tol=math.inf),
         ValueError, "tol must be positive and finite, got inf"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), eta=math.inf),
         NonPositiveStepError, "eta must be positive and finite, got inf"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), eta=0.0),
         NonPositiveStepError, "eta must be positive and finite, got 0.0"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), max_steps=0),
         NonPositiveStepError, "max-steps must be an integer of at least 1, got 0"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), lam=math.nan),
         NonPositiveLambdaError, "lambda must be nonnegative and finite, got nan"),
        (lambda: closed_form_diagnosis(3, -1.0), NonPositiveLambdaError,
         "lambda must be nonnegative and finite, got -1.0"),
        (lambda: coupling_coefficients(2), TooSmallError,
         "n must be an integer of at least 3, got 2"),
        (lambda: coupling_coefficients(3.5), TooSmallError,
         "n must be an integer of at least 3, got 3.5"),
        (lambda: closed_form_diagnosis(True), TooSmallError,
         "n must be an integer of at least 3, got True"),
        (lambda: closed_form_diagnosis("4"), TooSmallError,
         "n must be an integer of at least 3, got '4'"),
        (lambda: gram_rows(4.5), TooSmallError,
         "n must be an integer of at least 3, got 4.5"),
        # Every 1-based index and count is an integer by the rule of n.
        (lambda: new_additive(INCONSISTENT_3).entry(1.5, 2), IndexOutOfRangeError,
         "index 1.5 outside 1..3"),
        (lambda: new_additive(INCONSISTENT_3).entry(True, 2), IndexOutOfRangeError,
         "index True outside 1..3"),
        (lambda: new_additive(INCONSISTENT_3).entry("1", 2), IndexOutOfRangeError,
         "index '1' outside 1..3"),
        (lambda: new_multiplicative([[1, 2], [0.5, 1]]).entry(1.5, 1),
         IndexOutOfRangeError, "index 1.5 outside 1..2"),
        (lambda: new_multiplicative([[1, 2], [0.5, 1]]).entry(1, True),
         IndexOutOfRangeError, "index True outside 1..2"),
        (lambda: new_multiplicative([[1, 2], [0.5, 1]]).entry("2", 1),
         IndexOutOfRangeError, "index '2' outside 1..2"),
        (lambda: triad_deviation(new_additive(INCONSISTENT_3), 1, 2.5, 3),
         IndexOutOfRangeError, "index 2.5 outside 1..3"),
        (lambda: triad_deviation(new_additive(INCONSISTENT_3), True, 2, 3),
         IndexOutOfRangeError, "index True outside 1..3"),
        (lambda: triad_deviation(new_additive(INCONSISTENT_3), 1, 2, "3"),
         IndexOutOfRangeError, "index '3' outside 1..3"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), max_steps=math.nan),
         NonPositiveStepError, "max-steps must be an integer of at least 1, got nan"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), max_steps=2.5),
         NonPositiveStepError, "max-steps must be an integer of at least 1, got 2.5"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), max_steps=True),
         NonPositiveStepError, "max-steps must be an integer of at least 1, got True"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), max_steps="3"),
         NonPositiveStepError, "max-steps must be an integer of at least 1, got '3'"),
        # A real-valued setting is a real number, not text, None, an array or
        # a bool.
        (lambda: is_consistent(new_additive(CONSISTENT_3), "1e-3"), ValueError,
         "tol must be positive and finite, got '1e-3'"),
        (lambda: is_consistent(new_additive(CONSISTENT_3), None), ValueError,
         "tol must be positive and finite, got None"),
        (lambda: is_consistent(new_additive(CONSISTENT_3), np.array([1e-3, 1.0])),
         ValueError, "tol must be positive and finite, got array([0.001, 1.   ])"),
        (lambda: is_consistent(new_additive(CONSISTENT_3), True), ValueError,
         "tol must be positive and finite, got True"),
        (lambda: new_additive(CONSISTENT_3, tol="x"), ValueError,
         "tol must be positive and finite, got 'x'"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), lam=None),
         NonPositiveLambdaError, "lambda must be nonnegative and finite, got None"),
        (lambda: closed_form_diagnosis(4, True), NonPositiveLambdaError,
         "lambda must be nonnegative and finite, got True"),
        (lambda: reduce_iterative(new_additive(INCONSISTENT_3), eta="0.1"),
         NonPositiveStepError, "eta must be positive and finite, got '0.1'"),
    ],
    ids=["scores-non-finite", "scores-too-few", "scores-overflow",
         "multiplicative-non-finite", "multiplicative-entry", "additive-tol",
         "multiplicative-tol", "consistent-tol", "permute-not-permutation",
         "permute-fraction", "permute-strings", "additive-tol-inf",
         "multiplicative-tol-inf", "consistent-tol-inf", "consistent-tol-nan",
         "reduce-tol-inf", "reduce-eta-inf", "reduce-eta-zero", "reduce-no-steps",
         "reduce-lambda-nan", "diagnosis-lambda", "coupling-n-small",
         "coupling-n-fraction", "diagnosis-n-bool", "diagnosis-n-text",
         "gram-n-fraction", "additive-entry-fraction", "additive-entry-bool",
         "additive-entry-text", "multiplicative-entry-fraction",
         "multiplicative-entry-bool", "multiplicative-entry-text",
         "triad-fraction", "triad-bool", "triad-text", "reduce-steps-nan",
         "reduce-steps-fraction", "reduce-steps-bool", "reduce-steps-text",
         "consistent-tol-text", "consistent-tol-none", "consistent-tol-array",
         "consistent-tol-bool", "additive-tol-text", "reduce-lambda-none",
         "diagnosis-lambda-bool", "reduce-eta-text"],
)
def test_refusals_name_the_fault(call, error, message):
    with pytest.raises(error) as exc, warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal is the only signal
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [3, 3.0, np.int64(3), np.float64(3.0)],
                         ids=["int", "float", "numpy-int", "numpy-float"])
def test_an_integral_n_is_taken_as_a_python_int(n):
    # The rule of a document's "n": an integer or an integral float.
    p = new_two_vector(n, [1.0, 2.0, 3.0])
    assert type(p.n) is int and json.dumps(p.n) == "3"
    assert type(standard_area_form(n).n) is int
    assert type(coupling_coefficients(n).n) is int
    assert closed_form_diagnosis(n) == closed_form_diagnosis(3)
    assert gram_rows(n)(slice(0, 1)).tolist() == [[3.0]]


@pytest.mark.parametrize("i", [2, 2.0, np.int64(2), np.float64(2.0)],
                         ids=["int", "float", "numpy-int", "numpy-float"])
def test_an_integral_index_is_read_as_that_integer(i):
    # The rule of n, in each accessor that takes a 1-based index.
    a = new_additive(INCONSISTENT_3)
    assert a.entry(i, 3) == 1.0 and a.entry(3, i) == -1.0
    assert to_multiplicative(a).entry(i, 3) == math.exp(1.0)
    assert triad_deviation(a, 1, i, 3) == -1.0
    assert planar_embedding([1.0, 2.0, 3.0]).vector(i).tolist() == [2.0, 1.0, 0.0]
    assert new_two_vector(3, [1.0, 2.0, 3.0]).coord(1, i) == 1.0


def test_is_consistent_answers_a_python_bool():
    assert is_consistent(new_additive(CONSISTENT_3), np.float32(10.0)) is True
    assert is_consistent(new_additive(INCONSISTENT_3), np.float64(1e-9)) is False


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
    assert [list(t) for t in combinations(range(1, 5), 3)] == [
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


NEAR_MAX = [[0, 1.7e308, 1.7e308], [-1.7e308, 0, 0], [-1.7e308, 0, 0]]


def test_recover_scores_near_the_float_maximum():
    """Each row's mean is taken in units of its largest magnitude, so a
    row of finite entries near the float maximum has a finite mean."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, r = recover_scores(new_additive(NEAR_MAX))
    np.testing.assert_allclose(s, [2 / 3 * 1.7e308, -1.7e308 / 3, -1.7e308 / 3], rtol=1e-15)
    np.testing.assert_allclose(r.upper, 0.0, atol=1e293)


#: Scores 2M/3, 0, -2M/3: s_1 - s_3 = 4M/3 overflows, its residual -M/3 does not.
FAR_SCORES = [[0, 1.7e308, 1.7e308], [-1.7e308, 0, 1.7e308], [-1.7e308, -1.7e308, 0]]


def test_residual_is_finite_where_a_score_difference_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, r = recover_scores(new_additive(FAR_SCORES))
    np.testing.assert_allclose(s, [2 / 3 * 1.7e308, 0.0, -2 / 3 * 1.7e308], rtol=1e-15)
    np.testing.assert_allclose(r.upper, [1.7e308 / 3, -1.7e308 / 3, 1.7e308 / 3], rtol=1e-15)


def test_residual_beyond_the_float_range_is_refused_by_name():
    # s_1 = M/4 and s_2 = -M/4 are in range, r_12 = -M - M/2 is not.
    m = 1.7e308
    a = new_additive([[0, -m, m, m], [m, 0, -m, -m], [-m, m, 0, 0], [-m, m, 0, 0]])
    with pytest.raises(OverflowError, match=r"residual at entry \(1,2\) overflows"):
        recover_scores(a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_algebraic_inconsistency_beyond_the_float_range_is_refused_by_name():
    # The residual is in range; n |r|^2 is not, and no dot product overflows.
    a = new_additive(np.ldexp(INCONSISTENT_3, 900))
    with pytest.raises(OverflowError, match=r"^I_alg is beyond the float range$"):
        algebraic_inconsistency(a)


def test_recover_scores_bits_are_plain_row_means():
    """The scaling is by powers of two, so ordinary scores keep their bits,
    and so do residuals where s_i - s_j is finite."""
    rng = np.random.default_rng(29)
    for n in range(2, 13):
        rows, cols = np.triu_indices(n, k=1)
        for k in range(-40, 41, 4):
            a = random_additive(rng, n, scale=10.0**k)
            s, r = recover_scores(a)
            assert s.tobytes() == a.to_array().mean(axis=1).tobytes(), (n, k)
            assert r.upper.tobytes() == (a.upper - (s[rows] - s[cols])).tobytes(), (n, k)


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
