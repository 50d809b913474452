from itertools import combinations

import numpy as np
import pytest

from pcgeom import (
    DimensionMismatchError,
    NonPositiveLambdaError,
    TooSmallError,
    all_triad_deviations,
    algebraic_inconsistency,
    build_M,
    coupling_coefficients,
    diagnose,
    new_additive,
    quadratic_inconsistency,
    regularize,
)
from pcgeom.indexing import pair_count, triad_count


def pairs(n):
    return combinations(range(n), 2)


def triads(n):
    return combinations(range(n), 3)


def incidence_oracle(n):
    """Dense signed incidence built straight from the triad definition."""
    pair_idx = {p: i for i, p in enumerate(pairs(n))}
    c = np.zeros((pair_count(n), triad_count(n)))
    for t, (i, j, k) in enumerate(triads(n)):
        c[pair_idx[(i, j)], t] = 1.0
        c[pair_idx[(j, k)], t] = 1.0
        c[pair_idx[(i, k)], t] = -1.0
    return c


def random_additive(rng, n, scale=4.0):
    raw = np.triu(rng.uniform(-scale, scale, size=(n, n)), k=1)
    return new_additive(raw - raw.T)


# ------------------------------------------------------------------- incidence


def test_single_triad_column_for_n3():
    cmap = coupling_coefficients(3)
    entries = cmap.entries()
    assert entries == {
        ((1, 2), (1, 2, 3)): 1.0,
        ((2, 3), (1, 2, 3)): 1.0,
        ((1, 3), (1, 2, 3)): -1.0,
    }


def test_n4_has_three_nonzeros_per_triad():
    entries = coupling_coefficients(4).entries()
    assert len(entries) == 12
    per_triad = {}
    for (_, triad), _sign in entries.items():
        per_triad[triad] = per_triad.get(triad, 0) + 1
    assert set(per_triad.values()) == {3}


def test_entry_value_example():
    entries = coupling_coefficients(3).entries()
    assert entries[((1, 2), (1, 2, 3))] == 1.0


def test_coupling_rejects_small_n():
    with pytest.raises(TooSmallError):
        coupling_coefficients(2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dense_incidence_matches_oracle(n):
    np.testing.assert_array_equal(
        coupling_coefficients(n).to_dense(), incidence_oracle(n)
    )


def test_apply_and_transpose_match_dense():
    rng = np.random.default_rng(41)
    for n in (3, 4, 6):
        cmap = coupling_coefficients(n)
        c = incidence_oracle(n)
        d = rng.normal(size=triad_count(n))
        np.testing.assert_allclose(cmap.apply(d), c @ d, atol=1e-12)
        a = rng.normal(size=pair_count(n))
        np.testing.assert_allclose(cmap.apply_transpose(a), c.T @ a, atol=1e-12)


# ----------------------------------------------------------------- Gram matrix


def test_build_M_n3_is_scalar_three():
    m = build_M(3)
    assert m.values.shape == (1, 1)
    assert m.values[0, 0] == 3.0


def test_build_M_n4_shared_pair_signs():
    m = build_M(4)
    t = {triad: i for i, triad in enumerate(triads(4))}
    assert m.values[t[(0, 1, 2)], t[(0, 1, 3)]] == 1.0  # share (1,2), signs +,+
    assert m.values[t[(0, 1, 2)], t[(0, 2, 3)]] == -1.0  # share (1,3), signs -,+


@pytest.mark.parametrize("n", range(3, 13))
def test_build_M_is_gram_of_incidence(n):
    c = incidence_oracle(n)
    m = build_M(n).values
    np.testing.assert_array_equal(m, c.T @ c)
    assert not m.flags.writeable


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_build_M_symmetric_psd_diag3(n):
    m = build_M(n).values
    assert np.array_equal(m, m.T)
    assert np.all(np.diagonal(m) == 3.0)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() >= -1e-10 * eigs.max()


def test_build_M_respects_cap():
    with pytest.raises(ValueError, match="capped"):
        build_M(65)
    with pytest.raises(TooSmallError):
        build_M(2)


# -------------------------------------------------------------- quadratic form


def test_quadratic_inconsistency_n3_example():
    m = build_M(3)
    assert quadratic_inconsistency(m, [-1.0]) == 3.0


def test_quadratic_inconsistency_zero():
    m = build_M(5)
    assert quadratic_inconsistency(m, np.zeros(10)) == 0.0


def test_quadratic_inconsistency_two_paths_n4():
    m = build_M(4)
    cmap = coupling_coefficients(4)
    d = np.ones(4)
    direct = quadratic_inconsistency(m, d)
    image = cmap.apply(d)
    assert direct == pytest.approx(np.dot(image, image), rel=1e-12)


def test_quadratic_inconsistency_dimension_check():
    with pytest.raises(DimensionMismatchError):
        quadratic_inconsistency(build_M(4), np.ones(3))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_gram_identity_random(n):
    rng = np.random.default_rng(50 + n)
    m = build_M(n)
    cmap = coupling_coefficients(n)
    for _ in range(100):
        d = rng.normal(size=triad_count(n))
        image = cmap.apply(d)
        expected = float(np.dot(image, image))
        got = quadratic_inconsistency(m, d)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------------- diagnosis


@pytest.mark.parametrize(
    "n,expected_rank", [(3, 1), (4, 3), (5, 6), (6, 10), (7, 15), (8, 21)]
)
def test_rank_law(n, expected_rank):
    assert expected_rank == (n - 1) * (n - 2) // 2
    result = diagnose(build_M(n))
    assert result.rank == expected_rank
    assert result.degenerate == (n >= 4)
    assert result.kernel_dim == triad_count(n) - expected_rank


def test_diagnose_n3_not_degenerate():
    result = diagnose(build_M(3))
    assert result.rank == 1
    assert not result.degenerate
    assert result.kernel_dim == 0


def test_diagnose_eigenvalues_descending_and_kernel_orthonormal():
    result = diagnose(build_M(5))
    assert np.all(np.diff(result.eigenvalues) <= 1e-12)
    k = result.kernel_basis
    np.testing.assert_allclose(k @ k.T, np.eye(k.shape[0]), atol=1e-9)


def test_eigendecomposition_residual_accuracy():
    m = build_M(6)
    eigenvalues, eigenvectors = np.linalg.eigh(m.values)
    lam_max = eigenvalues.max()
    residual = m.values @ eigenvectors - eigenvectors * eigenvalues
    assert np.max(np.abs(residual)) <= 1e-8 * lam_max


def test_realizable_deviations_avoid_kernel():
    """Deviation vectors of real matrices are orthogonal to ker(M), and on
    them the quadratic form is exactly n times the algebraic index."""
    rng = np.random.default_rng(61)
    for n in (4, 5, 6):
        m = build_M(n)
        result = diagnose(m)
        for _ in range(20):
            a = random_additive(rng, n)
            d = all_triad_deviations(a)
            if result.kernel_dim:
                overlap = np.max(np.abs(result.kernel_basis @ d.values))
                assert overlap <= 1e-9 * max(1.0, float(np.linalg.norm(d.values)))
            assert quadratic_inconsistency(m, d) == pytest.approx(
                n * algebraic_inconsistency(a), rel=1e-9, abs=1e-12
            )


def test_form_zero_iff_deviations_zero_on_realizable():
    rng = np.random.default_rng(67)
    m = build_M(5)
    consistent = new_additive(np.zeros((5, 5)))
    assert quadratic_inconsistency(m, all_triad_deviations(consistent)) == 0.0
    noisy = random_additive(rng, 5)
    assert quadratic_inconsistency(m, all_triad_deviations(noisy)) > 0.0


# -------------------------------------------------------------- regularization


def test_regularize_shifts_spectrum():
    m = build_M(4)
    shifted = regularize(m, 0.01)
    base = np.linalg.eigvalsh(m.values)
    moved = np.linalg.eigvalsh(shifted.values)
    np.testing.assert_allclose(moved, base + 0.01, atol=1e-9)
    assert moved.min() >= 0.01 - 1e-10


def test_regularize_n3_example():
    shifted = regularize(build_M(3), 1.0)
    assert shifted.values[0, 0] == 4.0


def test_regularize_rejects_non_positive():
    with pytest.raises(NonPositiveLambdaError):
        regularize(build_M(3), 0.0)
    with pytest.raises(NonPositiveLambdaError):
        regularize(build_M(3), -0.5)
