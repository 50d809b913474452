import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgeom import (
    DimensionMismatchError,
    TwoVector,
    all_triad_deviations,
    evaluate,
    evaluation_columns,
    from_scores,
    is_consistent,
    matrix_form,
    new_additive,
    new_two_vector,
    planar_embedding,
    recover_scores,
    standard_area_form,
    wedge,
)

CONSISTENT_3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
INCONSISTENT_3 = [[0, 1, 3], [-1, 0, 1], [-3, -1, 0]]


# ----------------------------------------------------------------- matrix view


def test_matrix_view_skew_extension():
    form = new_two_vector(3, [1.0, 0.0, 0.0])
    expected = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    np.testing.assert_array_equal(form.matrix_view, np.asarray(expected, float))


def test_matrix_view_zero_form():
    form = new_two_vector(4, np.zeros(6))
    assert np.all(form.matrix_view == 0)


def test_matrix_view_from_wedge():
    form = wedge([1, 2, 3, 4], [5, 6, 7, 8])
    upper = form.matrix_view[np.triu_indices(4, k=1)]
    assert upper.tolist() == [-4.0, -8.0, -12.0, -4.0, -8.0, -4.0]
    assert np.array_equal(form.matrix_view, -form.matrix_view.T)


# ------------------------------------------------------------------ evaluation


def test_evaluate_basis_pairing():
    form = standard_area_form(3)
    assert isinstance(form, TwoVector) and form.coords.tolist() == [1.0, 0.0, 0.0]
    assert evaluate(form, [1, 0, 0], [0, 1, 0]) == 1.0


def test_evaluate_on_equal_vectors_is_zero():
    form = wedge([1, 2, 3], [4, 5, 6])
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.normal(size=3)
        assert evaluate(form, u, u) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_reproduces_entry_through_planar_vectors():
    emb = planar_embedding([1.0, 0.0, 1.0])
    form = standard_area_form(3)
    assert evaluate(form, emb.vector(1), emb.vector(2)) == 1.0


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate(standard_area_form(3), [1, 0, 0, 0], [0, 1, 0, 0])


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.data())
def test_evaluate_bilinear_antisymmetric(n, data):
    def vec():
        return np.array(
            data.draw(
                st.lists(st.floats(-5, 5), min_size=n, max_size=n)
            )
        )

    coords = data.draw(
        st.lists(
            st.floats(-5, 5),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    form = new_two_vector(n, coords)
    u, v, w = vec(), vec(), vec()
    alpha = data.draw(st.floats(-3, 3))
    beta = data.draw(st.floats(-3, 3))
    left = evaluate(form, alpha * u + beta * w, v)
    right = alpha * evaluate(form, u, v) + beta * evaluate(form, w, v)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-10)
    assert evaluate(form, u, v) == pytest.approx(
        -evaluate(form, v, u), rel=1e-12, abs=1e-12
    )


def test_evaluate_agrees_with_matrix_view():
    rng = np.random.default_rng(11)
    for n in (3, 4, 6):
        coords = rng.uniform(-3, 3, size=n * (n - 1) // 2)
        form = new_two_vector(n, coords)
        for _ in range(10):
            u = rng.normal(size=n)
            v = rng.normal(size=n)
            via_matrix = float(u @ form.matrix_view @ v)
            assert evaluate(form, u, v) == pytest.approx(
                via_matrix, rel=1e-12, abs=1e-12
            )


# -------------------------------------------------------------- matrix pairing


def test_matrix_form_reproduces_consistent_entries_exactly():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        a = from_scores(rng.uniform(-5, 5, size=n))
        form, emb = matrix_form(a)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                omega = evaluate(form, emb.vector(i), emb.vector(j))
                assert omega == pytest.approx(a.entry(i, j), abs=1e-12)


def test_evaluation_table_consistent_example():
    a = new_additive(CONSISTENT_3)
    omega, entry, abs_error = evaluation_columns(a)
    assert omega.tolist() == [1.0, 0.0, -1.0]
    assert entry.tolist() == a.upper.tolist()
    assert np.max(abs_error) == 0.0


def test_evaluation_refuses_a_form_value_past_the_float_range():
    # Scores 2M/3, 0, -2M/3: omega_13 = 4M/3 overflows, the residuals do not.
    m = 1.7e308
    a = new_additive([[0, m, m], [-m, 0, m], [-m, -m, 0]])
    with pytest.raises(OverflowError, match="difference of scores 1 and 3 overflows"):
        evaluation_columns(a)


def test_evaluation_table_flags_inconsistent_matrix():
    _, _, abs_error = evaluation_columns(new_additive(INCONSISTENT_3))
    assert np.max(abs_error) > 0.1


# ------------------------------------------------------------------ closedness


def test_closedness_examples():
    # Discrete closedness of the entries' 2-form is is_consistent.
    assert is_consistent(new_additive(CONSISTENT_3))
    assert not is_consistent(new_additive(INCONSISTENT_3))
    assert is_consistent(new_additive(np.zeros((4, 4))))


def test_closedness_agrees_with_consistency_on_random_matrices():
    rng = np.random.default_rng(17)
    tol = 1e-9
    for _ in range(200):
        n = int(rng.integers(3, 7))
        if rng.uniform() < 0.5:
            a = from_scores(rng.uniform(-4, 4, size=n))
        else:
            raw = np.triu(rng.uniform(-4, 4, size=(n, n)), k=1)
            a = new_additive(raw - raw.T)
        # Closed: the triad coboundary of the entries vanishes.
        closed = np.max(np.abs(all_triad_deviations(a))) <= tol
        assert closed == is_consistent(a, tol)


def test_closed_matrix_has_exact_planar_reproduction():
    a = from_scores([0.25, -1.5, 3.0, 0.0])
    scores, _ = recover_scores(a)
    form, emb = matrix_form(a)
    for (i, j) in [(1, 2), (1, 4), (2, 3), (3, 4)]:
        assert evaluate(form, emb.vector(i), emb.vector(j)) == pytest.approx(
            a.entry(i, j), abs=1e-12
        )
