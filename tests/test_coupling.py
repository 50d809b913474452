from itertools import combinations
from math import comb

import numpy as np
import pytest

from pcgeom import (
    DimensionMismatchError,
    NonPositiveLambdaError,
    TooSmallError,
    all_triad_deviations,
    algebraic_inconsistency,
    closed_form_diagnosis,
    coupling_coefficients,
    gram_rows,
    new_additive,
    reduce_iterative,
)
from pcgeom.coupling import MAX_GRID_NUMBERS
from pcgeom.indexing import pair_index

from oracles import dense_M, dense_spectral_report, incidence_oracle


def triads(n):
    return combinations(range(n), 3)


def incidence(cmap):
    """The dense pair-by-triad matrix of a coupling map's positions."""
    c = np.zeros((cmap.pair_count, cmap.triad_count))
    cols = np.arange(cmap.triad_count)
    c[cmap.ij_pos, cols] += 1.0
    c[cmap.jk_pos, cols] += 1.0
    c[cmap.ik_pos, cols] -= 1.0
    return c


def gram(n, lam=0.0):
    """All rows of M + lam I from gram_rows, in one block."""
    return gram_rows(n, lam)(slice(None))


def random_additive(rng, n, scale=4.0):
    raw = np.triu(rng.uniform(-scale, scale, size=(n, n)), k=1)
    return new_additive(raw - raw.T)


# ------------------------------------------------------------------- incidence


def test_single_triad_column_for_n3():
    # Rows are the pairs (1,2), (1,3), (2,3); the column is the triad (1,2,3).
    assert incidence(coupling_coefficients(3)).tolist() == [[1.0], [-1.0], [1.0]]


def test_n4_has_three_nonzeros_per_triad():
    c = incidence(coupling_coefficients(4))
    assert np.count_nonzero(c) == 12
    assert np.count_nonzero(c, axis=0).tolist() == [3, 3, 3, 3]


def test_entry_value_example():
    c = incidence(coupling_coefficients(3))
    assert c[pair_index(3, 0, 1), 0] == 1.0


def test_coupling_rejects_small_n():
    with pytest.raises(TooSmallError):
        coupling_coefficients(2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dense_incidence_matches_oracle(n):
    np.testing.assert_array_equal(
        incidence(coupling_coefficients(n)), incidence_oracle(n)
    )


def test_apply_and_transpose_match_dense():
    rng = np.random.default_rng(41)
    for n in (3, 4, 6):
        cmap = coupling_coefficients(n)
        c = incidence_oracle(n)
        d = rng.normal(size=comb(n, 3))
        np.testing.assert_allclose(cmap.apply(d), c @ d, atol=1e-12)
        a = rng.normal(size=comb(n, 2))
        np.testing.assert_allclose(cmap.apply_transpose(a), c.T @ a, atol=1e-12)


# ----------------------------------------------------------------- Gram matrix


def test_build_M_n3_is_scalar_three():
    m = gram(3)
    assert m.shape == (1, 1)
    assert m[0, 0] == 3.0


def test_build_M_n4_shared_pair_signs():
    m = gram(4)
    t = {triad: i for i, triad in enumerate(triads(4))}
    assert m[t[(0, 1, 2)], t[(0, 1, 3)]] == 1.0  # share (1,2), signs +,+
    assert m[t[(0, 1, 2)], t[(0, 2, 3)]] == -1.0  # share (1,3), signs -,+


@pytest.mark.parametrize("n", range(3, 13))
def test_build_M_is_gram_of_incidence(n):
    want = dense_M(n)
    np.testing.assert_array_equal(gram(n), want)
    # Any run of rows, as the writer asks for them, is the same rows.
    rows = gram_rows(n)
    t = comb(n, 3)
    for s in (slice(0, 1), slice(t - 1, t), slice(1, t, 3), slice(t // 2, t)):
        np.testing.assert_array_equal(rows(s), want[s])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_build_M_symmetric_psd_diag3(n):
    m = gram(n)
    assert np.array_equal(m, m.T)
    assert np.all(np.diagonal(m) == 3.0)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() >= -1e-10 * eigs.max()


def test_build_M_respects_cap():
    # The rule is decided on T^2 before any table is built or row written:
    # n = 44 is admitted, n = 45 refused.
    assert comb(44, 3) ** 2 == 175403536 <= MAX_GRID_NUMBERS
    assert comb(45, 3) ** 2 == 201356100 > MAX_GRID_NUMBERS
    assert callable(gram_rows(44))
    with pytest.raises(ValueError, match=r"n=45 has C\(45,3\)\^2 = 201356100"):
        gram_rows(45, 1.0)
    with pytest.raises(TooSmallError):
        gram_rows(2)


# -------------------------------------------------------------- quadratic form
# The form d^T M d is plain numpy on M; these tests pin it to |C d|^2.


def quadratic_form(m, d):
    d = np.asarray(d, dtype=float)
    return float(d @ m @ d)


def test_quadratic_inconsistency_n3_example():
    assert quadratic_form(gram(3), [-1.0]) == 3.0


def test_quadratic_inconsistency_zero():
    assert quadratic_form(gram(5), np.zeros(10)) == 0.0


def test_quadratic_inconsistency_two_paths_n4():
    cmap = coupling_coefficients(4)
    d = np.ones(4)
    direct = quadratic_form(gram(4), d)
    image = cmap.apply(d)
    assert direct == pytest.approx(np.dot(image, image), rel=1e-12)


def test_quadratic_inconsistency_dimension_check():
    # The incidence refuses a vector of the wrong length; M itself cannot
    # be multiplied by one.
    with pytest.raises(DimensionMismatchError):
        coupling_coefficients(4).apply(np.ones(3))
    with pytest.raises(ValueError):
        quadratic_form(gram(4), np.ones(3))


@pytest.mark.parametrize(
    "method, size, message",
    [
        ("apply", 3, "expected 4 deviations for n=4, got 3"),
        ("apply_transpose", 5, "expected 6 pair values, got 5"),
    ],
    ids=["apply", "apply-transpose"],
)
def test_incidence_refuses_a_vector_of_the_wrong_size(method, size, message):
    with pytest.raises(DimensionMismatchError) as exc:
        getattr(coupling_coefficients(4), method)(np.ones(size))
    assert type(exc.value) is DimensionMismatchError
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_gram_identity_random(n):
    rng = np.random.default_rng(50 + n)
    m = gram(n)
    cmap = coupling_coefficients(n)
    for _ in range(100):
        d = rng.normal(size=comb(n, 3))
        image = cmap.apply(d)
        expected = float(np.dot(image, image))
        got = quadratic_form(m, d)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------------- diagnosis


def kernel_basis(m, rank_tol=1e-9):
    """Orthonormal rows spanning the eigenvectors of m whose eigenvalues
    are at most rank_tol times the largest."""
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    return eigenvectors[:, eigenvalues <= rank_tol * eigenvalues.max()].T


@pytest.mark.parametrize(
    "n,expected_rank", [(3, 1), (4, 3), (5, 6), (6, 10), (7, 15), (8, 21)]
)
def test_rank_law(n, expected_rank):
    assert expected_rank == (n - 1) * (n - 2) // 2
    for result in (closed_form_diagnosis(n), dense_spectral_report(n)):
        assert result["rank"] == expected_rank
        assert result["degenerate"] == (n >= 4)
        assert result["kernel_dim"] == comb(n, 3) - expected_rank
    assert np.linalg.matrix_rank(dense_M(n)) == expected_rank
    assert kernel_basis(dense_M(n)).shape[0] == comb(n, 3) - expected_rank


def test_diagnose_n3_not_degenerate():
    result = closed_form_diagnosis(3)
    assert result["rank"] == 1
    assert not result["degenerate"]
    assert result["kernel_dim"] == 0


def test_diagnose_eigenvalues_descending_and_kernel_orthonormal():
    for result in (closed_form_diagnosis(5), dense_spectral_report(5)):
        assert np.all(np.diff(result["eigenvalues"]) <= 1e-12)
    k = kernel_basis(dense_M(5))
    np.testing.assert_allclose(k @ k.T, np.eye(k.shape[0]), atol=1e-9)


def test_eigendecomposition_residual_accuracy():
    m = dense_M(6)
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    lam_max = eigenvalues.max()
    residual = m @ eigenvectors - eigenvectors * eigenvalues
    assert np.max(np.abs(residual)) <= 1e-8 * lam_max


def test_realizable_deviations_avoid_kernel():
    """Deviation vectors of real matrices are orthogonal to ker(M), and on
    them the quadratic form is exactly n times the algebraic index."""
    rng = np.random.default_rng(61)
    for n in (4, 5, 6):
        m = dense_M(n)
        kernel = kernel_basis(m)
        assert kernel.shape[0] == closed_form_diagnosis(n)["kernel_dim"]
        for _ in range(20):
            a = random_additive(rng, n)
            d = all_triad_deviations(a)
            overlap = np.max(np.abs(kernel @ d))
            assert overlap <= 1e-9 * max(1.0, float(np.linalg.norm(d)))
            assert quadratic_form(m, d) == pytest.approx(
                n * algebraic_inconsistency(a), rel=1e-9, abs=1e-12
            )


def test_form_zero_iff_deviations_zero_on_realizable():
    rng = np.random.default_rng(67)
    m = dense_M(5)
    consistent = new_additive(np.zeros((5, 5)))
    assert quadratic_form(m, all_triad_deviations(consistent)) == 0.0
    noisy = random_additive(rng, 5)
    assert quadratic_form(m, all_triad_deviations(noisy)) > 0.0


# -------------------------------------------------------------- regularization


def test_regularize_shifts_spectrum():
    base = np.linalg.eigvalsh(dense_M(4))
    shifted = gram(4, 0.01)
    np.testing.assert_array_equal(shifted, dense_M(4) + 0.01 * np.eye(4))
    moved = np.linalg.eigvalsh(shifted)
    np.testing.assert_allclose(moved, base + 0.01, atol=1e-9)
    assert moved.min() >= 0.01 - 1e-10


def test_regularize_n3_example():
    assert gram(3, 1.0)[0, 0] == 4.0
    assert gram(3, 0.0)[0, 0] == 3.0


def test_regularize_rejects_non_positive():
    # lam = 0 is the unshifted matrix; a negative, NaN or infinite weight is
    # refused alike by every function that takes one.
    a = new_additive([[0, 1, 3], [-1, 0, 1], [-3, -1, 0]])
    for lam in (-0.5, -1e-300, float("nan"), float("inf"), -float("inf")):
        for call in (
            lambda: gram_rows(3, lam),
            lambda: closed_form_diagnosis(3, lam),
            lambda: reduce_iterative(a, lam=lam),
        ):
            with pytest.raises(NonPositiveLambdaError, match="must be nonnegative"):
                call()
