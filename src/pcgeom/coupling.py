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
that identity. :func:`gram_rows` computes rows of M + lam I from C, a
block at a time, for ``diagnose --format csv`` to write; no T-by-T array
is ever held.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from . import indexing
from .errors import DimensionMismatchError, ReadOnly, TooSmallError
from .pc_core import _check_lambda

#: Largest n for which a spectral report listing all T = C(n,3)
#: eigenvalues is written.
MAX_DENSE_N = 64
#: Most entries of M + lam I that :func:`gram_rows` serves: T^2 is
#: 1.75e8 at n = 44 and 2.01e8 at n = 45.
MAX_GRID_NUMBERS = 2 * 10**8


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


def coupling_coefficients(n: int) -> CouplingMap:
    """Signed incidence between triads and the pairs they touch: the pair
    positions (i,j), (j,k), (i,k) of every triad, as read-only index
    arrays, so that triad t's deviation reads
    entry[ij] + entry[jk] - entry[ik]."""
    if n < 3:
        raise TooSmallError(f"need at least 3 alternatives, got {n}")
    positions = indexing.triad_pairs(n)
    positions.setflags(write=False)
    return CouplingMap(n, *positions)


def gram_rows(n: int, lam: float = 0.0) -> Callable[[slice], np.ndarray]:
    """Rows of M + lam I: the function returned maps a slice of triads
    to their rows, a new array of T = C(n,3) columns.

    The 3·C(n,3) incidences are grouped by pair with one stable sort;
    every pair lies in exactly n - 2 triads, so the groups form a
    (C(n,2), n - 2) table. Row t holds, at the triads through each of its
    pairs, its sign there times theirs (two triads share at most one
    pair, so no entry is written twice), and 3 + lam on the diagonal.
    A matrix of more than MAX_GRID_NUMBERS entries is refused first.
    """
    t_count = indexing.triad_count(n)
    if t_count**2 > MAX_GRID_NUMBERS:
        raise ValueError(
            f"M + lambda I for n={n} has C({n},3)^2 = {t_count**2} entries, "
            f"over the limit of {MAX_GRID_NUMBERS}"
        )
    _check_lambda(lam)
    cmap = coupling_coefficients(n)
    positions = (cmap.ij_pos, cmap.jk_pos, cmap.ik_pos)
    order = np.argsort(np.concatenate(positions), kind="stable")
    triads = np.tile(np.arange(t_count), 3)[order].reshape(cmap.pair_count, n - 2)
    signs = np.repeat([1.0, 1.0, -1.0], t_count)[order].reshape(triads.shape)
    diagonal = 3.0 + lam

    def rows(s: slice) -> np.ndarray:
        t = np.arange(*s.indices(t_count))
        block = np.zeros((t.size, t_count))
        at = np.arange(t.size)[:, None]
        for pos, sign in zip(positions, (1.0, 1.0, -1.0)):
            pairs = pos[t]
            block[at, triads[pairs]] = sign * signs[pairs]
        block[at[:, 0], t] = diagonal
        return block

    return rows


def closed_form_diagnosis(n: int, lam: float = 0.0) -> dict:
    """Spectral report of M + lam I, without building M: its rank, size
    T, whether it is degenerate, its eigenvalues in descending order and
    its kernel dimension.

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
