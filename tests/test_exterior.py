import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgeom import (
    DimensionMismatchError,
    NonFiniteEntryError,
    TooSmallError,
    ZeroTwoVectorError,
    chordal_distance,
    is_decomposable,
    new_two_vector,
    normalize_grassmann,
    quad_residuals,
    standard_area_form,
    wedge,
)


def vectors(n, max_size=None):
    return st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=max_size or n,
    )


def minor_oracle(u, v):
    """2x2 determinants, computed independently of the library layout."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    out = {}
    for k in range(len(u)):
        for l in range(k + 1, len(u)):
            out[(k + 1, l + 1)] = np.linalg.det(
                np.array([[u[k], u[l]], [v[k], v[l]]])
            )
    return out


# ----------------------------------------------------------------------- wedge


def test_wedge_basis_example():
    w = wedge([1, 0, 0], [0, 1, 0])
    assert w.coords.tolist() == [1.0, 0.0, 0.0]
    pairs = [list(p) for p in combinations(range(1, w.n + 1), 2)]
    assert pairs == [[1, 2], [1, 3], [2, 3]]


def test_wedge_of_equal_vectors_is_zero():
    w = wedge([2.0, -1.0, 3.0, 0.5], [2.0, -1.0, 3.0, 0.5])
    assert w.is_zero()


def test_wedge_hand_example_against_determinant_oracle():
    u, v = [1, 2, 3, 4], [5, 6, 7, 8]
    w = wedge(u, v)
    assert w.coords.tolist() == [-4.0, -8.0, -12.0, -4.0, -8.0, -4.0]
    oracle = minor_oracle(u, v)
    for (k, l), value in oracle.items():
        assert w.coord(k, l) == pytest.approx(value, abs=1e-12)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        wedge([1, 2, 3], [1, 2])


@pytest.mark.parametrize(
    "u, v", [([[1, 2], [3, 4]], [1, 2, 3, 4]), ([1, 2, 3, 4], [[1, 2, 3, 4]])]
)
def test_wedge_refuses_nested_vectors(u, v):
    with pytest.raises(DimensionMismatchError, match="flat vector"):
        wedge(u, v)


def test_new_two_vector_refuses_nested_coords():
    with pytest.raises(DimensionMismatchError, match="coords must be a flat"):
        new_two_vector(3, [[1, 2, 3]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: new_two_vector(1, []), DimensionMismatchError,
         "n must be an integer of at least 2, got 1"),
        (lambda: new_two_vector(3, [1.0, 2.0]), DimensionMismatchError,
         "expected 3 coordinates for n=3, got 2"),
        (lambda: new_two_vector(3, [1.0, np.nan, 0.0]), NonFiniteEntryError,
         "coordinate 2 is not finite"),
        (lambda: wedge([1.0], [1.0]), TooSmallError,
         "need at least 2 u components"),
        (lambda: wedge([1.0, 2.0], [np.inf, 0.0]), NonFiniteEntryError,
         "v component 1 is not finite"),
        (lambda: wedge([1, 0, 0], [0, 1, 0]).coord(1, 4), DimensionMismatchError,
         "pair (1,4) invalid for dimension 3"),
        (lambda: new_two_vector(3, [1, 2, 3]).coord(1, 2.5), DimensionMismatchError,
         "pair (1,2.5) invalid for dimension 3"),
        (lambda: new_two_vector(3, [1, 2, 3]).coord(True, 2), DimensionMismatchError,
         "pair (True,2) invalid for dimension 3"),
        (lambda: new_two_vector(3, [1, 2, 3]).coord(1, "2"), DimensionMismatchError,
         "pair (1,'2') invalid for dimension 3"),
        (lambda: is_decomposable(wedge([1, 0, 0, 0], [0, 1, 0, 0]), tol=0.0),
         ValueError, "tol must be positive and finite, got 0.0"),
        # An infinite tolerance would call any 2-vector decomposable.
        (lambda: is_decomposable(new_two_vector(4, [1, 0, 0, 0, 0, 1]), tol=math.inf),
         ValueError, "tol must be positive and finite, got inf"),
        (lambda: new_two_vector(2.5, [1.0]), DimensionMismatchError,
         "n must be an integer of at least 2, got 2.5"),
        (lambda: new_two_vector(True, []), DimensionMismatchError,
         "n must be an integer of at least 2, got True"),
        (lambda: new_two_vector("3", [1.0, 2.0, 3.0]), DimensionMismatchError,
         "n must be an integer of at least 2, got '3'"),
        (lambda: standard_area_form(1), DimensionMismatchError,
         "n must be an integer of at least 2, got 1"),
        (lambda: standard_area_form(True), DimensionMismatchError,
         "n must be an integer of at least 2, got True"),
        (lambda: standard_area_form(-1), DimensionMismatchError,
         "n must be an integer of at least 2, got -1"),
        (lambda: standard_area_form(2.5), DimensionMismatchError,
         "n must be an integer of at least 2, got 2.5"),
        (lambda: wedge(np.ones(3), np.ones(4)), DimensionMismatchError,
         "vectors have different dimensions (3 vs 4)"),
    ],
    ids=["two-vector-n", "two-vector-length", "two-vector-non-finite",
         "wedge-too-short", "wedge-non-finite", "coord-out-of-range",
         "coord-fraction", "coord-bool", "coord-text",
         "decomposable-tol", "decomposable-tol-inf", "two-vector-n-fraction",
         "two-vector-n-bool", "two-vector-n-text", "area-form-n",
         "area-form-n-bool", "area-form-n-negative", "area-form-n-fraction",
         "wedge-widths"],
)
def test_refusals_name_the_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.data())
def test_wedge_antisymmetry_exact(n, data):
    u = data.draw(vectors(n))
    v = data.draw(vectors(n))
    assert np.array_equal(wedge(u, v).coords, -wedge(v, u).coords)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.data())
def test_wedge_bilinearity(n, data):
    u = np.array(data.draw(vectors(n)))
    w = np.array(data.draw(vectors(n)))
    v = np.array(data.draw(vectors(n)))
    alpha = data.draw(st.floats(-5, 5))
    beta = data.draw(st.floats(-5, 5))
    left = wedge(alpha * u + beta * w, v).coords
    right = alpha * wedge(u, v).coords + beta * wedge(w, v).coords
    np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_wedge_scaling(n, data):
    """One scaled vector multiplies coordinates by c, both by c^2."""
    u = np.array(data.draw(vectors(n)))
    v = np.array(data.draw(vectors(n)))
    c = data.draw(st.floats(-4, 4))
    np.testing.assert_allclose(
        wedge(c * u, v).coords, c * wedge(u, v).coords, rtol=1e-10, atol=1e-12
    )
    np.testing.assert_allclose(
        wedge(c * u, c * v).coords,
        c * c * wedge(u, v).coords,
        rtol=1e-10,
        atol=1e-12,
    )


# ------------------------------------------------------------------ arithmetic


def test_two_vector_arithmetic():
    p, q = wedge([1, 2, 3], [0, 1, 5]), wedge([1, 0, 0], [0, 1, 0])
    assert (p + q).coords.tolist() == [2.0, 5.0, 7.0]
    assert (p - q).coords.tolist() == [0.0, 5.0, 7.0]
    assert (-p).coords.tolist() == [-1.0, -5.0, -7.0]
    for scaled in (p * 2, 2 * p, p * 2.0, np.float64(2) * p, p * np.int64(2)):
        assert scaled.coords.tolist() == [2.0, 10.0, 14.0]
    with pytest.raises(DimensionMismatchError, match="different dimensions"):
        p + wedge([1, 0, 0, 0], [0, 1, 0, 0])


@pytest.mark.parametrize("other", [1, 1.0, None, "x", np.zeros(3)])
def test_two_vector_sum_refuses_non_two_vectors(other):
    p = wedge([1, 2, 3], [0, 1, 5])
    with pytest.raises(TypeError):
        p + other
    with pytest.raises(TypeError):
        other + p
    with pytest.raises(TypeError):
        p - other
    with pytest.raises(TypeError):
        other - p


@pytest.mark.parametrize("scalar", ["2", None, np.full(3, 2.0), np.array(2.0)])
def test_two_vector_scaling_refuses_non_real_scalars(scalar):
    p = wedge([1, 2, 3], [0, 1, 5])
    with pytest.raises(TypeError):
        p * scalar
    with pytest.raises(TypeError):
        scalar * p


# ------------------------------------------------------------------- residuals


def test_residuals_of_decomposable_vanish():
    w = wedge([1, 2, 3, 4], [5, 6, 7, 8])
    quads, values = quad_residuals(w)
    assert quads.tolist() == [[1, 2, 3, 4]]
    assert values.tolist() == [0.0]


def test_residuals_empty_for_n3():
    quads, values = quad_residuals(new_two_vector(3, [1.0, 2.0, 3.0]))
    assert quads.shape == (0, 4)
    assert values.size == 0
    assert np.max(np.abs(values), initial=0.0) == 0.0


def test_nondecomposable_witness_residual_is_one():
    p = new_two_vector(4, [1, 0, 0, 0, 0, 1])
    quads, values = quad_residuals(p)
    assert quads.tolist() == [[1, 2, 3, 4]]
    assert values.tolist() == [1.0]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_random_decomposables_satisfy_relations(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(100):
        w = wedge(rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))
        bound = 1e-9 * max(1.0, w.norm_squared())
        assert np.max(np.abs(quad_residuals(w)[1])) <= bound


# --------------------------------------------------------------- decomposable


def test_wedges_are_decomposable():
    rng = np.random.default_rng(2)
    for n in range(2, 7):
        w = wedge(rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))
        assert is_decomposable(w)


def test_witness_is_not_decomposable():
    assert not is_decomposable(new_two_vector(4, [1, 0, 0, 0, 0, 1]))


def test_zero_two_vector_is_decomposable():
    assert is_decomposable(new_two_vector(5, np.zeros(10)))


def skew_matrix(p):
    full = np.zeros((p.n, p.n))
    rows, cols = np.triu_indices(p.n, k=1)
    full[rows, cols] = p.coords
    full[cols, rows] = -p.coords
    return full


@pytest.mark.parametrize("n", [4, 5, 6])
def test_decomposable_agrees_with_rank_oracle(n):
    """p is a single wedge exactly when its skew matrix has rank <= 2."""
    rng = np.random.default_rng(40 + n)
    for _ in range(50):
        if rng.uniform() < 0.5:
            p = wedge(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n))
        else:
            p = new_two_vector(n, rng.uniform(-5, 5, n * (n - 1) // 2))
        rank = np.linalg.matrix_rank(skew_matrix(p), tol=1e-8)
        assert is_decomposable(p, tol=1e-8) == (rank <= 2)


# --------------------------------------------------------------- normalization


def test_normalize_scaling():
    p = normalize_grassmann(new_two_vector(3, [2, 0, 0]))
    assert p.coords.tolist() == [1.0, 0.0, 0.0]


def test_normalize_sign_fix():
    p = normalize_grassmann(new_two_vector(3, [-3, 0, 4]))
    np.testing.assert_allclose(p.coords, [0.6, 0.0, -0.8], atol=1e-15)


def test_normalize_rejects_zero():
    with pytest.raises(ZeroTwoVectorError):
        normalize_grassmann(new_two_vector(4, np.zeros(6)))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 6), st.data())
def test_normalize_unit_norm_and_idempotent(n, data):
    coords = data.draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        ).filter(lambda c: any(abs(x) > 1e-6 for x in c))
    )
    p = normalize_grassmann(new_two_vector(n, coords))
    assert abs(p.norm() - 1.0) <= 1e-12
    lead = p.coords[np.nonzero(p.coords)[0][0]]
    assert lead > 0
    again = normalize_grassmann(p)
    assert np.array_equal(again.coords, p.coords)


def test_normalize_is_blind_to_a_power_of_two_scale():
    """The norm is taken on the coordinates scaled by max|p_kl|, so 2^k p
    normalizes to the bits of p's normal form even where |2^k p|^2 leaves
    the float range (k < -537 or k > 510 here), with no warning."""
    rng = np.random.default_rng(5)
    p = new_two_vector(5, rng.uniform(1, 3, 10) * rng.choice([-1, 1], 10))
    want = normalize_grassmann(p).coords
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-1000, 601):
            got = normalize_grassmann(p * 2.0**k).coords
            assert got.tobytes() == want.tobytes(), k
            assert chordal_distance(p * 2.0**k, p) == 0.0, k


@pytest.mark.parametrize(
    "p, k",
    [
        (new_two_vector(4, [1e-300] * 6), 600),
        (wedge([1e-160, 2e-160, 0, 1e-160], [0, 1e-160, 3e-160, 1e-160]), 1100),
        (new_two_vector(4, [1e200] * 6), -600),
    ],
    ids=["tiny", "tiny-wedge", "huge"],
)
def test_squared_norm_out_of_range_still_normalizes(p, k):
    """A nonzero 2-vector whose squared norm underflows or overflows has
    the normal form and norm of p * 2^k, whose squares are in range."""
    q = p * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)  # exact, and in range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert normalize_grassmann(p).coords.tobytes() == (
            normalize_grassmann(q).coords.tobytes()
        )
        assert 0.0 < p.norm() == math.ldexp(q.norm(), -k)
        assert chordal_distance(p, q) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm_beyond_the_float_range_raises():
    with pytest.raises(OverflowError, match=r"^\|p\| of the 2-vector is beyond"):
        new_two_vector(4, [1e308] * 6).norm()
    with pytest.raises(OverflowError, match=r"^\|p\|\^2 of the 2-vector is beyond"):
        new_two_vector(4, [1e200] * 6).norm_squared()


def test_norm_squared_is_blind_to_a_power_of_two_scale():
    """|2^k p|^2 is 4^k |p|^2 to the bit, and ordinary coordinates keep the
    bits of their plain dot product."""
    rng = np.random.default_rng(6)
    p = new_two_vector(6, rng.normal(size=15))
    assert p.norm_squared() == float(np.dot(p.coords, p.coords))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-500, 501):
            assert (p * 2.0**k).norm_squared() == math.ldexp(p.norm_squared(), 2 * k), k


def test_decomposable_verdict_past_the_float_range():
    """The quads are walked on p scaled to max|p_kl| in [1/2, 1), against the
    bound scaled alike: a 2-vector whose squared residuals leave the float
    range gets the verdict of its scaled copies, with no warning."""
    rng = np.random.default_rng(7)
    w = wedge(rng.uniform(1, 3, 6), rng.uniform(1, 3, 6))
    q = new_two_vector(6, rng.uniform(1, 3, 15))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_decomposable(new_two_vector(4, [1e200, 0, 0, 0, 0, 1e200])) is False
        assert is_decomposable(new_two_vector(4, [1e200, 0, 0, 0, 0, 0])) is True
        for k in range(0, 1000, 7):
            assert is_decomposable(w * 2.0**k) is True, k
            assert is_decomposable(q * 2.0**k) is False, k


# -------------------------------------------------------------------- distance


def test_chordal_distance_identical():
    p = wedge([1, 2, 3], [4, 5, 6])
    assert chordal_distance(p, p) == 0.0


def test_chordal_distance_orthonormal():
    p = new_two_vector(3, [1, 0, 0])
    q = new_two_vector(3, [0, 1, 0])
    assert chordal_distance(p, q) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_chordal_distance_projective_equivalence():
    p = new_two_vector(3, [1, 0, 0])
    q = new_two_vector(3, [2, 0, 0])
    assert chordal_distance(p, q) == 0.0
    assert chordal_distance(p, -1.0 * q) == 0.0


def test_chordal_distance_symmetric():
    rng = np.random.default_rng(9)
    p = wedge(rng.normal(size=5), rng.normal(size=5))
    q = wedge(rng.normal(size=5), rng.normal(size=5))
    assert chordal_distance(p, q) == chordal_distance(q, p)


def test_chordal_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        chordal_distance(new_two_vector(3, [1, 0, 0]), new_two_vector(4, np.ones(6)))
