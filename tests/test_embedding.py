import warnings
from fractions import Fraction

import numpy as np
import pytest

from pcgeom import (
    IndexOutOfRangeError,
    NonFiniteEntryError,
    TooSmallError,
    ZeroCoefficientError,
    algebraic_inconsistency,
    custom_embedding,
    from_scores,
    geometric_inconsistency,
    max_abs_triad_deviation,
    new_additive,
    new_two_vector,
    orthogonal_embedding,
    planar_embedding,
    planar_matrix_inconsistency,
    planar_pair_wedges,
    recover_scores,
    scores_to_coefficients,
    wedge,
)

from oracles import DegeneratePairWarning, geometric_deviation, pair_subspace

INCONSISTENT_3 = [[0, 1, 3], [-1, 0, 1], [-3, -1, 0]]


# ------------------------------------------------------------------ embeddings


def test_orthogonal_embedding_is_diagonal():
    e = orthogonal_embedding([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(e.vectors, np.diag([1.0, 2.0, 3.0]))
    assert e.kind == "orthogonal"


def test_orthogonal_embedding_unit_coefficients():
    e = orthogonal_embedding([1.0, 1.0])
    np.testing.assert_array_equal(e.vectors, np.eye(2))


def test_orthogonal_embedding_rejects_zero_coefficient():
    with pytest.raises(ZeroCoefficientError, match="2"):
        orthogonal_embedding([1.0, 0.0, 2.0])


def test_planar_embedding_rows():
    e = planar_embedding([1.0, 0.0, 1.0])
    np.testing.assert_array_equal(
        e.vectors, [[1, 1, 0], [0, 1, 0], [1, 1, 0]]
    )
    assert e.kind == "planar"


def test_custom_embedding_shape_validation():
    with pytest.raises(Exception):
        custom_embedding([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: orthogonal_embedding([1.0, 2.0, 3.0]).vector(4),
         IndexOutOfRangeError, "index 4 outside 1..3"),
        (lambda: orthogonal_embedding([1.0]), TooSmallError,
         "need at least 2 coefficients"),
        (lambda: orthogonal_embedding([1.0, np.inf]), NonFiniteEntryError,
         "coefficient 2 is not finite"),
        (lambda: planar_embedding([1.0]), TooSmallError,
         "need at least 2 scores"),
        (lambda: planar_embedding([1.0, np.nan]), NonFiniteEntryError,
         "score 2 is not finite"),
        (lambda: custom_embedding([[1.0]]), TooSmallError,
         "embedding needs at least 2 alternatives"),
        (lambda: custom_embedding([[1.0, np.nan], [0.0, 1.0]]),
         NonFiniteEntryError, "entry (1,2) is not finite"),
    ],
    ids=["vector-out-of-range", "orthogonal-too-few", "orthogonal-non-finite",
         "planar-too-few", "planar-non-finite", "custom-too-few",
         "custom-non-finite"],
)
def test_refusals_name_the_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_scores_to_coefficients_positive_monotone():
    b = scores_to_coefficients([-3.0, 0.0, 2.0])
    assert np.all(b > 0)
    assert np.all(np.diff(b) > 0)


@pytest.mark.parametrize(
    "scores, message",
    [
        ([2000.0, 0.0], "score 1 is not a positive finite float: s = 2000.0 is too large"),
        ([0.0, 1.0, -2000.0], "score 3 is not a positive finite float: s = -2000.0 is too small"),
    ],
)
def test_scores_to_coefficients_refuses_exp_past_the_float_range(scores, message):
    # exp(s/2) overflows to inf or underflows to 0; either is refused by
    # name, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=message):
            scores_to_coefficients(scores)


def test_scores_to_coefficients_keeps_the_extreme_finite_coefficients():
    # exp(709.5) is finite and exp(-745) the least subnormal, both positive.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = scores_to_coefficients([1419.0, -1490.0])
    assert b[0] == np.exp(709.5) and b[1] == np.nextafter(0.0, 1.0)


# --------------------------------------------------------------- pair subspace


def test_pair_subspace_orthogonal_example():
    e = orthogonal_embedding([1.0, 2.0, 3.0])
    w = pair_subspace(e, 1, 2)
    assert w.coord(1, 2) == 2.0
    assert w.norm_squared() == 4.0


def test_pair_subspace_unit_coefficients():
    e = orthogonal_embedding([1.0, 1.0, 1.0])
    w = pair_subspace(e, 2, 3)
    assert w.coord(2, 3) == 1.0
    assert w.coord(1, 2) == 0.0


def test_pair_subspace_degenerate_pair_warns():
    e = planar_embedding([1.0, 0.0, 1.0])
    with pytest.warns(DegeneratePairWarning):
        w = pair_subspace(e, 1, 3)
    assert w.is_zero()


def test_pair_subspace_planar_reproduces_score_difference():
    e = planar_embedding([1.0, 0.0, 1.0])
    w = pair_subspace(e, 1, 2)
    assert w.coord(1, 2) == 1.0
    assert np.count_nonzero(w.coords) == 1

    e2 = planar_embedding([2.0, 5.0])
    assert pair_subspace(e2, 1, 2).coord(1, 2) == -3.0


def test_pair_subspace_index_validation():
    e = orthogonal_embedding([1.0, 2.0, 3.0])
    with pytest.raises(IndexOutOfRangeError):
        pair_subspace(e, 1, 4)
    with pytest.raises(IndexOutOfRangeError):
        pair_subspace(e, 2, 2)


def test_orthogonal_pair_subspace_single_coordinate():
    rng = np.random.default_rng(21)
    b = rng.uniform(0.5, 3.0, size=5)
    e = orthogonal_embedding(b)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            w = pair_subspace(e, i, j)
            assert np.count_nonzero(w.coords) == 1
            assert w.coord(i, j) == pytest.approx(b[i - 1] * b[j - 1])


# ------------------------------------------------------------------ deviations


def test_geometric_deviation_orthogonal_anticyclic_example():
    e = orthogonal_embedding([1.0, 2.0, 3.0])
    d = geometric_deviation(e, 1, 2, 3, "anticyclic")
    assert d.coord(1, 2) == 2.0
    assert d.coord(2, 3) == 6.0
    assert d.coord(1, 3) == 3.0
    assert d.norm_squared() == 49.0


def test_geometric_deviation_planar_cyclic_vanishes():
    e = planar_embedding([1.0, 0.0, 1.0])
    d = geometric_deviation(e, 1, 2, 3, "cyclic")
    assert d.is_zero()


def test_geometric_deviation_equal_vectors_zero():
    e = custom_embedding(np.ones((3, 3)))
    for convention in ("cyclic", "anticyclic"):
        assert geometric_deviation(e, 1, 2, 3, convention).is_zero()


def test_convention_relation():
    """anticyclic minus cyclic equals -2 * wedge(v_k, v_i)."""
    rng = np.random.default_rng(17)
    e = custom_embedding(rng.uniform(-3, 3, size=(5, 5)))
    for (i, j, k) in [(1, 2, 3), (1, 3, 5), (2, 4, 5)]:
        anti = geometric_deviation(e, i, j, k, "anticyclic")
        cyc = geometric_deviation(e, i, j, k, "cyclic")
        w_ki = wedge(e.vector(k), e.vector(i))
        np.testing.assert_allclose(
            (anti - cyc).coords, (-2.0 * w_ki).coords, rtol=0, atol=1e-13
        )


def test_geometric_deviation_validates_triad():
    e = orthogonal_embedding([1.0, 2.0, 3.0])
    with pytest.raises(IndexOutOfRangeError):
        geometric_deviation(e, 2, 1, 3)
    with pytest.raises(ValueError):
        geometric_deviation(e, 1, 2, 3, "sideways")


# --------------------------------------------------------------------- indices


def test_geometric_inconsistency_matches_per_triad_sum():
    rng = np.random.default_rng(23)
    e = custom_embedding(rng.uniform(-2, 2, size=(5, 5)))
    for convention in ("cyclic", "anticyclic"):
        total = sum(
            geometric_deviation(e, i, j, k, convention).norm_squared()
            for i in range(1, 6)
            for j in range(i + 1, 6)
            for k in range(j + 1, 6)
        )
        assert geometric_inconsistency(e, convention) == pytest.approx(
            total, rel=1e-12
        )


def test_geometric_inconsistency_examples():
    assert geometric_inconsistency(
        planar_embedding([1.0, 0.0, 1.0]), "cyclic"
    ) == 0.0
    assert geometric_inconsistency(
        orthogonal_embedding([1.0, 2.0, 3.0]), "anticyclic"
    ) == 49.0
    assert geometric_inconsistency(orthogonal_embedding([1.0, 2.0])) == 0.0


def test_three_alternative_anticyclic_index_keeps_its_digits():
    """At n = 3 the anticyclic index is the one triad's deviation, taken as
    a wedge of two vectors. For v_3 = v_1 + delta z the deviation is
    delta times smaller than the pair wedges, which (n - 4)|W|^2 + |B W|^2
    would subtract (relative error up to 4e-4 at delta = 1e-5)."""
    rng = np.random.default_rng(3)
    for delta in (1e-3, 1e-4, 1e-5):
        for _ in range(20):
            x, y, z = rng.normal(size=(3, 3))
            v = np.array([x, y, x + delta * z])
            (a, b, c), (d, e, f), (g, h, k) = (
                [Fraction(float(t)) for t in row] for row in v
            )
            # w_12 + w_23 + w_13, exactly, from the minors of each pair.
            dev = [
                (a * e - b * d) + (d * h - e * g) + (a * h - b * g),
                (a * f - c * d) + (d * k - f * g) + (a * k - c * g),
                (b * f - c * e) + (e * k - f * h) + (b * k - c * h),
            ]
            want = float(sum(t * t for t in dev))
            got = geometric_inconsistency(custom_embedding(v), "anticyclic")
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def test_planar_cyclic_vanishes_for_any_scores():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        s = rng.uniform(-5, 5, size=n)
        assert geometric_inconsistency(planar_embedding(s), "cyclic") <= 1e-12


def test_planar_deviation_lives_on_leading_coordinate():
    """The deviation of planar vectors equals the matching combination of
    matrix entries on coordinate (1,2) and is exactly zero elsewhere."""
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        s = rng.uniform(-5, 5, size=n)
        a = from_scores(s)
        e = planar_embedding(s)
        i, j, k = sorted(rng.choice(np.arange(1, n + 1), 3, replace=False))
        for convention, closing_sign in (("cyclic", 1), ("anticyclic", -1)):
            dev = geometric_deviation(e, int(i), int(j), int(k), convention)
            expected = (
                a.entry(i, j) + a.entry(j, k) + closing_sign * a.entry(k, i)
            )
            assert dev.coord(1, 2) == pytest.approx(expected, abs=1e-12)
            rest = dev.coords[1:]
            assert np.all(rest == 0.0)


def test_orthogonal_relabeling_invariance():
    rng = np.random.default_rng(31)
    b = rng.uniform(0.5, 2.0, size=6)
    perm = rng.permutation(6)
    for convention in ("cyclic", "anticyclic"):
        i1 = geometric_inconsistency(orthogonal_embedding(b), convention)
        i2 = geometric_inconsistency(orthogonal_embedding(b[perm]), convention)
        assert i1 == pytest.approx(i2, rel=1e-12)


# ----------------------------------------------------- pairwise planar family


def test_planar_pair_wedges_carry_entries():
    a = new_additive(INCONSISTENT_3)
    rows = planar_pair_wedges(a)
    leads = [new_two_vector(a.n, row).coord(1, 2) for row in rows]
    assert leads == [1.0, 3.0, 1.0]
    for row in rows:
        assert np.count_nonzero(row) <= 1


def test_planar_matrix_inconsistency_cyclic_equals_i_alg():
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        raw = np.triu(rng.uniform(-4, 4, size=(n, n)), k=1)
        a = new_additive(raw - raw.T)
        assert planar_matrix_inconsistency(a, "cyclic") == pytest.approx(
            algebraic_inconsistency(a), rel=1e-12, abs=1e-15
        )


def test_planar_matrix_inconsistency_matches_explicit_wedges():
    """Scalar fast path agrees with summing the literal pair 2-vectors."""
    a = new_additive(INCONSISTENT_3)
    w12, w13, w23 = (new_two_vector(a.n, row) for row in planar_pair_wedges(a))
    for convention, sign in (("cyclic", -1.0), ("anticyclic", 1.0)):
        dev = w12 + w23 + sign * w13
        assert planar_matrix_inconsistency(a, convention) == pytest.approx(
            dev.norm_squared(), rel=1e-12
        )


def test_three_alternative_planar_anticyclic_index_is_not_clamped():
    """At n = 3 the planar anticyclic index is (a_12 + a_23 + a_13)^2.
    (n - 4)|u|^2 + |X 1|^2 subtracts, and its clamp at zero returned 0.0
    for a deviation of 1e-8."""
    rng = np.random.default_rng(31)
    cases = [(1.0, 1.0, -2.0 + 1e-8)]
    for delta in (1e-4, 1e-8, 1e-12):
        a12, a13 = rng.uniform(-2, 2, size=2)
        cases.append((a12, a13, -a12 - a13 + delta))
    for a12, a13, a23 in cases:
        a = new_additive([[0, a12, a13], [-a12, 0, a23], [-a13, -a23, 0]])
        want = float(sum(Fraction(float(t)) for t in a.upper) ** 2)
        assert want > 0.0
        got = planar_matrix_inconsistency(a, "anticyclic")
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_consistent_matrix_has_zero_planar_index():
    s = np.array([0.5, -1.0, 2.0, 0.0])
    a = from_scores(s)
    assert planar_matrix_inconsistency(a, "cyclic") <= 1e-12
    e = planar_embedding(recover_scores(a)[0])
    assert geometric_inconsistency(e, "cyclic") <= 1e-12


def test_inconsistent_matrix_has_positive_planar_index():
    a = new_additive(INCONSISTENT_3)
    assert max_abs_triad_deviation(a) > 1e-6
    assert planar_matrix_inconsistency(a, "cyclic") > 0.0
