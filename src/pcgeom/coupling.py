"""Triad-to-pair coupling and the spectrum of its Gram matrix.

Each triad i < j < k touches exactly three pairs, with signs read off its
deviation a_ij + a_jk - a_ik: +1 on (i, j) and (j, k), -1 on (i, k). That
signed incidence C (:func:`coupling_coefficients`) is the linear map from
triad deviations to pair-space geometric deviations; its Gram matrix
M = C^T C turns the squared pair-space norm into the quadratic form
d^T M d = |C d|^2 on deviation vectors.

On the complete comparison structure C C^T = n (I - P), with P the
projection onto consistent matrices. So M is positive semidefinite with
every diagonal entry 3, eigenvalue n on an image of dimension
(n-1)(n-2)/2 and 0 on the rest: for n >= 4 the form has a structural
kernel. Deviation vectors that actually come from a matrix lie in the
image, which is why minimizing the form still drives real deviations to
zero. :func:`closed_form_diagnosis` reads the spectrum of M + lam I off
that identity; :func:`build_M` builds the dense M + lam I, which only
``diagnose --format csv`` writes out.
"""

from __future__ import annotations

import math

import numpy as np

from . import indexing
from .errors import (
    DimensionMismatchError,
    NonPositiveLambdaError,
    ReadOnly,
    TooSmallError,
)

#: Largest n for which a dense T-by-T Gram matrix is built (T = C(n,3)),
#: or a spectral report listing all T eigenvalues is written.
MAX_DENSE_N = 64


class CouplingMap(ReadOnly):
    """Signed triad-to-pair incidence, stored as three position arrays."""

    __slots__ = ("n", "ij_pos", "jk_pos", "ik_pos")

    @property
    def pair_count(self) -> int:
        return indexing.pair_count(self.n)

    @property
    def triad_count(self) -> int:
        return indexing.triad_count(self.n)

    def apply(self, d) -> np.ndarray:
        """Pair-space image of a deviation vector (the map C applied to d)."""
        values = np.asarray(d, dtype=float).ravel()
        if values.size != self.triad_count:
            raise DimensionMismatchError(
                f"expected {self.triad_count} deviations for n={self.n}, "
                f"got {values.size}"
            )
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


def coupling_coefficients(n: int) -> CouplingMap:
    """Signed incidence between triads and the pairs they touch."""
    if n < 3:
        raise TooSmallError(f"need at least 3 alternatives, got {n}")
    ij, jk, ik = indexing.triad_pair_positions(n)
    return CouplingMap(n=n, ij_pos=ij, jk_pos=jk, ik_pos=ik)


def _check_lambda(lam: float) -> None:
    """Refuse a negative, NaN or infinite regularization weight."""
    if not 0 <= lam < math.inf:
        raise NonPositiveLambdaError(
            f"regularization weight must be nonnegative and finite, got {lam!r}"
        )


def build_M(n: int, lam: float = 0.0) -> np.ndarray:
    """Dense Gram matrix M of the coupling map shifted by lam on the
    diagonal (M + lam I), scattered from its incidences; read-only.

    The 3·C(n,3) incidences (pair, triad, sign) are grouped by pair with
    one stable sort; every pair lies in exactly n - 2 triads, so the
    groups form a (C(n,2), n - 2) table. Each pair contributes the outer
    product of its triads' signs, and two distinct triads share at most
    one pair, so a single scatter of those blocks writes every
    off-diagonal entry (-1, 0 or +1) exactly once; the diagonal is 3 + lam.
    """
    if n > MAX_DENSE_N:
        raise ValueError(
            f"dense Gram matrix capped at n={MAX_DENSE_N} "
            f"(C({n},3) triads would be too large)"
        )
    _check_lambda(lam)
    cmap = coupling_coefficients(n)
    t_count = cmap.triad_count
    pairs = np.concatenate((cmap.ij_pos, cmap.jk_pos, cmap.ik_pos))
    order = np.argsort(pairs, kind="stable")
    triads = np.tile(np.arange(t_count), 3)[order].reshape(cmap.pair_count, n - 2)
    signs = np.repeat([1.0, 1.0, -1.0], t_count)[order].reshape(triads.shape)
    m = np.zeros((t_count, t_count))
    m[triads[:, :, None], triads[:, None, :]] = signs[:, :, None] * signs[:, None, :]
    np.fill_diagonal(m, 3.0 + lam)
    m.setflags(write=False)
    return m


def closed_form_diagnosis(n: int, lam: float = 0.0) -> dict:
    """Spectral report of M + lam I for M = build_M(n), without building M:
    its rank, size T, whether it is degenerate, its eigenvalues in
    descending order and its kernel dimension.

    M = C^T C for the pair-by-triad incidence C, and C C^T = n (I - P) on
    the complete comparison structure, with P the projection onto
    consistent matrices of rank n - 1. So M has eigenvalue n with
    multiplicity (n-1)(n-2)/2 and 0 on the rest of its T = C(n,3)
    entries; the shift adds lam to both. These eigenvalues are exact, so
    the rank is exact too: T when lam > 0, else (n-1)(n-2)/2.
    """
    if n < 3:
        raise TooSmallError(f"need at least 3 alternatives, got {n}")
    if n > MAX_DENSE_N:
        raise ValueError(
            f"spectral report capped at n={MAX_DENSE_N} "
            f"(it would list C({n},3) = {indexing.triad_count(n)} eigenvalues)"
        )
    _check_lambda(lam)
    t_count = indexing.triad_count(n)
    image = (n - 1) * (n - 2) // 2
    eigenvalues = np.repeat(
        np.array([n + lam, lam], dtype=float), [image, t_count - image]
    )
    rank = t_count if lam > 0 else image
    return {
        "rank": rank,
        "T": t_count,
        "degenerate": rank < t_count,
        "eigenvalues": eigenvalues.tolist(),
        "kernel_dim": t_count - rank,
    }
