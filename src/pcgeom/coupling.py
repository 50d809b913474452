"""Triad-to-pair coupling, its Gram matrix, and degeneracy diagnostics.

Each triad i < j < k touches exactly three pairs, with signs read off its
deviation a_ij + a_jk - a_ik: +1 on (i, j) and (j, k), -1 on (i, k). That
signed incidence is the linear map from triad deviations to pair-space
geometric deviations; its Gram matrix M turns the squared pair-space norm
into the quadratic form d^T M d on deviation vectors.

M is positive semidefinite with every diagonal entry 3, and its rank is
(n-1)(n-2)/2: strictly less than the number of triads for n >= 4, so the
form has a structural kernel. Deviation vectors that actually come from a
matrix are orthogonal to that kernel, which is why minimizing the form
still drives real deviations to zero. The kernel directions can be
inspected via :func:`diagnose` or shifted away via :func:`regularize`.
"""

from __future__ import annotations

import numpy as np

from . import indexing
from .errors import (
    DimensionMismatchError,
    NonPositiveLambdaError,
    ReadOnly,
    TooSmallError,
)
from .pc_core import DeviationVector

#: Largest n for which a dense T-by-T Gram matrix is built (T = C(n,3)),
#: or a spectral report listing all T eigenvalues is written.
MAX_DENSE_N = 64


class CouplingMap(ReadOnly):
    """Signed triad-to-pair incidence, stored as three position arrays."""

    __slots__ = ("n", "ij_pos", "jk_pos", "ik_pos")

    def __init__(
        self, n: int, ij_pos: np.ndarray, jk_pos: np.ndarray, ik_pos: np.ndarray
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ij_pos", ij_pos)
        object.__setattr__(self, "jk_pos", jk_pos)
        object.__setattr__(self, "ik_pos", ik_pos)

    @property
    def pair_count(self) -> int:
        return indexing.pair_count(self.n)

    @property
    def triad_count(self) -> int:
        return indexing.triad_count(self.n)

    def apply(self, d) -> np.ndarray:
        """Pair-space image of a deviation vector (the map C applied to d)."""
        values = _as_deviation_array(d, self.n)
        p = self.pair_count
        return (
            np.bincount(self.ij_pos, weights=values, minlength=p)
            + np.bincount(self.jk_pos, weights=values, minlength=p)
            - np.bincount(self.ik_pos, weights=values, minlength=p)
        )

    def apply_transpose(self, pair_values) -> np.ndarray:
        """Triad deviations induced by a pair-space vector (C^T applied)."""
        a = np.asarray(pair_values, dtype=float).ravel()
        if a.size != self.pair_count:
            raise DimensionMismatchError(
                f"expected {self.pair_count} pair values, got {a.size}"
            )
        return a[self.ij_pos] + a[self.jk_pos] - a[self.ik_pos]

    def to_dense(self) -> np.ndarray:
        """Dense pair-by-triad incidence matrix."""
        c = np.zeros((self.pair_count, self.triad_count))
        cols = np.arange(self.triad_count)
        c[self.ij_pos, cols] += 1.0
        c[self.jk_pos, cols] += 1.0
        c[self.ik_pos, cols] -= 1.0
        return c


class CouplingMatrix(ReadOnly):
    """Gram matrix of the coupling map columns; symmetric PSD, diagonal 3."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: np.ndarray) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.shape[0]


class SpectralDiagnosis(ReadOnly):
    """Numerical rank, spectrum, and kernel of a coupling matrix."""

    __slots__ = ("rank", "eigenvalues", "kernel_basis", "degenerate")

    def __init__(
        self,
        rank: int,
        eigenvalues: np.ndarray,
        kernel_basis: np.ndarray,
        degenerate: bool,
    ) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "kernel_basis", kernel_basis)
        object.__setattr__(self, "degenerate", degenerate)

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[0]

    def to_dict(self) -> dict:
        return _spectral_report(self.rank, self.eigenvalues)


def _as_deviation_array(d, n: int) -> np.ndarray:
    if isinstance(d, DeviationVector):
        if d.n != n:
            raise DimensionMismatchError(
                f"deviation vector is for n={d.n}, expected n={n}"
            )
        return d.values
    values = np.asarray(d, dtype=float).ravel()
    if values.size != indexing.triad_count(n):
        raise DimensionMismatchError(
            f"expected {indexing.triad_count(n)} deviations for n={n}, "
            f"got {values.size}"
        )
    return values


def coupling_coefficients(n: int) -> CouplingMap:
    """Signed incidence between triads and the pairs they touch."""
    if n < 3:
        raise TooSmallError(f"need at least 3 alternatives, got {n}")
    ij, jk, ik = indexing.triad_pair_positions(n)
    return CouplingMap(n=n, ij_pos=ij, jk_pos=jk, ik_pos=ik)


def build_M(n: int) -> CouplingMatrix:
    """Dense Gram matrix of the coupling map, scattered from its incidences.

    The 3·C(n,3) incidences (pair, triad, sign) are grouped by pair with
    one stable sort; every pair lies in exactly n - 2 triads, so the
    groups form a (C(n,2), n - 2) table. Each pair contributes the outer
    product of its triads' signs, and two distinct triads share at most
    one pair, so a single scatter of those blocks writes every
    off-diagonal entry (-1, 0 or +1) exactly once; the diagonal is 3.
    """
    if n > MAX_DENSE_N:
        raise ValueError(
            f"dense Gram matrix capped at n={MAX_DENSE_N} "
            f"(C({n},3) triads would be too large)"
        )
    cmap = coupling_coefficients(n)
    t_count = cmap.triad_count
    pairs = np.concatenate((cmap.ij_pos, cmap.jk_pos, cmap.ik_pos))
    order = np.argsort(pairs, kind="stable")
    triads = np.tile(np.arange(t_count), 3)[order].reshape(cmap.pair_count, n - 2)
    signs = np.repeat([1.0, 1.0, -1.0], t_count)[order].reshape(triads.shape)
    m = np.zeros((t_count, t_count))
    m[triads[:, :, None], triads[:, None, :]] = signs[:, :, None] * signs[:, None, :]
    np.fill_diagonal(m, 3.0)
    m.setflags(write=False)
    return CouplingMatrix(n=n, values=m)


def quadratic_inconsistency(m: CouplingMatrix, d) -> float:
    """Quadratic form d^T M d; the geometric inconsistency of d."""
    values = _as_deviation_array(d, m.n)
    return float(values @ m.values @ values)


def _rank(eigenvalues: np.ndarray, rank_tol: float) -> int:
    """Count of the (descending) eigenvalues above rank_tol times the largest."""
    if not rank_tol > 0:
        raise ValueError("rank tolerance must be positive")
    threshold = rank_tol * max(float(eigenvalues[0]), 0.0)
    return int(np.count_nonzero(eigenvalues > threshold))


def _spectral_report(rank: int, eigenvalues: np.ndarray) -> dict:
    t_count, rank = int(eigenvalues.size), int(rank)
    return {
        "rank": rank,
        "T": t_count,
        "degenerate": rank < t_count,
        "eigenvalues": eigenvalues.tolist(),
        "kernel_dim": t_count - rank,
    }


def diagnose(m: CouplingMatrix, rank_tol: float = 1e-9) -> SpectralDiagnosis:
    """Eigendecomposition-based rank and kernel report.

    Eigenvalues at most rank_tol times the largest count as zero; the
    kernel basis rows are the corresponding (orthonormal) eigenvectors.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(m.values)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    rank = _rank(eigenvalues, rank_tol)
    kernel = eigenvectors[:, order[rank:]].T.copy()
    eigenvalues.setflags(write=False)
    kernel.setflags(write=False)
    return SpectralDiagnosis(rank, eigenvalues, kernel, degenerate=rank < m.size)


def closed_form_diagnosis(
    n: int, lam: float = 0.0, rank_tol: float = 1e-9
) -> dict:
    """The report ``diagnose(M).to_dict()`` of M = build_M(n), shifted by
    ``regularize(M, lam)`` when lam > 0, without building M.

    M = C^T C for the pair-by-triad incidence C, and C C^T = n (I - P) on
    the complete comparison structure, with P the projection onto
    consistent matrices of rank n - 1. So M has eigenvalue n with
    multiplicity (n-1)(n-2)/2 and 0 on the rest of its T = C(n,3)
    entries; the shift adds lam to both. Rank follows the rule of
    :func:`diagnose`.
    """
    if n < 3:
        raise TooSmallError(f"need at least 3 alternatives, got {n}")
    if n > MAX_DENSE_N:
        raise ValueError(
            f"spectral report capped at n={MAX_DENSE_N} "
            f"(it would list C({n},3) = {indexing.triad_count(n)} eigenvalues)"
        )
    if lam < 0:
        raise NonPositiveLambdaError(
            f"regularization weight must be nonnegative, got {lam!r}"
        )
    t_count = indexing.triad_count(n)
    image = (n - 1) * (n - 2) // 2
    eigenvalues = np.repeat(
        np.array([n + lam, lam], dtype=float), [image, t_count - image]
    )
    return _spectral_report(_rank(eigenvalues, rank_tol), eigenvalues)


def regularize(m: CouplingMatrix, lam: float) -> CouplingMatrix:
    """Shifted form M + lam*I; strictly positive definite for lam > 0."""
    if not lam > 0:
        raise NonPositiveLambdaError(
            f"regularization weight must be positive, got {lam!r}"
        )
    shifted = m.values.copy()
    shifted[np.diag_indices(m.size)] += lam
    shifted.setflags(write=False)
    return CouplingMatrix(n=m.n, values=shifted)
