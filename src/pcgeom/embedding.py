"""Vector embeddings of alternatives and geometric triad deviations.

Each alternative i gets a vector v_i in R^n; each pair spans the 2-vector
w_ij = v_i ^ v_j. For a triad i < j < k the geometric deviation combines
the three pair 2-vectors under one of two conventions:

    cyclic      w_ij + w_jk + w_ki   (closes the loop i -> j -> k -> i)
    anticyclic  w_ij + w_jk - w_ki   (closing edge taken with opposite sign)

Two embedding families are built in. The planar family v_i = (s_i, 1, 0,
..., 0) reproduces score differences as the leading wedge coordinate, so
its cyclic deviation vanishes exactly on consistent data. The orthogonal
family v_i = b_i e_i puts every pair wedge on its own coordinate axis;
its deviations can never cancel and are reported as a structural
diagnostic rather than a consistency test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePairWarning,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteEntryError,
    ZeroCoefficientError,
)
from .exterior import TwoVector, new_two_vector, wedge, wedge_rows
from .pc_core import AdditiveMatrix, _as_score_array, algebraic_inconsistency

ORTHOGONAL = "orthogonal"
PLANAR = "planar"
CUSTOM = "custom"

CONVENTIONS = ("cyclic", "anticyclic")


@dataclass(frozen=True)
class Embedding:
    """One vector per alternative, all of dimension n."""

    n: int
    vectors: np.ndarray
    kind: str

    def vector(self, i: int) -> np.ndarray:
        """Vector of alternative i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRangeError(f"index {i} outside 1..{self.n}")
        return self.vectors[i - 1]


@dataclass(frozen=True)
class GeometricDeviation:
    """Triad (1-based) together with its deviation 2-vector."""

    triad: tuple[int, int, int]
    value: TwoVector

    def norm_squared(self) -> float:
        return self.value.norm_squared()


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(
            f"unknown convention {convention!r}; expected one of {CONVENTIONS}"
        )


def _embedding(n: int, rows: np.ndarray, kind: str) -> Embedding:
    arr = np.array(rows, dtype=float)
    arr.setflags(write=False)
    return Embedding(n=n, vectors=arr, kind=kind)


def orthogonal_embedding(b) -> Embedding:
    """Embedding v_i = b_i e_i along the coordinate axes.

    Every coefficient must be nonzero, otherwise an alternative would
    collapse to the zero vector and span nothing.
    """
    coeffs = np.asarray(b, dtype=float).ravel()
    if coeffs.size < 2:
        raise DimensionMismatchError("need at least 2 coefficients")
    if not np.all(np.isfinite(coeffs)):
        raise NonFiniteEntryError("coefficients must be finite")
    if np.any(coeffs == 0.0):
        i = int(np.flatnonzero(coeffs == 0.0)[0])
        raise ZeroCoefficientError(f"coefficient {i + 1} is zero")
    return _embedding(coeffs.size, np.diag(coeffs), ORTHOGONAL)


def planar_embedding(s) -> Embedding:
    """Embedding v_i = (s_i, 1, 0, ..., 0), zero-padded to length n.

    The wedge of two such vectors has s_i - s_j as its leading coordinate
    and zeros elsewhere, so score differences survive as wedge data.
    """
    values = _as_score_array(s)
    n = values.size
    if n < 2:
        raise DimensionMismatchError("need at least 2 scores")
    rows = np.zeros((n, n))
    rows[:, 0] = values
    rows[:, 1] = 1.0
    return _embedding(n, rows, PLANAR)


def custom_embedding(vectors) -> Embedding:
    """Embedding from an explicit n-by-n array of row vectors."""
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"need one length-n vector per alternative, got shape {arr.shape}"
        )
    if arr.shape[0] < 2:
        raise DimensionMismatchError("need at least 2 vectors")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError("vectors must be finite")
    return _embedding(arr.shape[0], arr, CUSTOM)


def scores_to_coefficients(s) -> np.ndarray:
    """Map scores to orthogonal coefficients b_i = exp(s_i / 2).

    Strictly positive and monotone in the score, so the nonzero
    requirement of the orthogonal family holds automatically.
    """
    return np.exp(_as_score_array(s) / 2.0)


def pair_subspace(e: Embedding, i: int, j: int) -> TwoVector:
    """Wedge v_i ^ v_j for 1-based i != j.

    Emits DegeneratePairWarning (and still returns the zero 2-vector)
    when the two vectors are parallel; downstream sums stay well defined.
    """
    for idx in (i, j):
        if not 1 <= idx <= e.n:
            raise IndexOutOfRangeError(f"index {idx} outside 1..{e.n}")
    if i == j:
        raise IndexOutOfRangeError(f"pair indices must differ, got ({i},{j})")
    w = wedge(e.vectors[i - 1], e.vectors[j - 1])
    if w.is_zero():
        warnings.warn(
            f"pair ({i},{j}) spans no plane (parallel vectors)",
            DegeneratePairWarning,
            stacklevel=2,
        )
    return w


def pair_wedges(vectors) -> np.ndarray:
    """Matrix of all pair wedges: row p holds v_i ^ v_j for the p-th pair
    i < j, bit-identical to ``wedge(v_i, v_j).coords``."""
    v = np.asarray(vectors, dtype=float)
    i, j = np.triu_indices(v.shape[0], k=1)
    return wedge_rows(v[i], v[j])


def geometric_deviation(
    e: Embedding, i: int, j: int, k: int, convention: str = "cyclic"
) -> GeometricDeviation:
    """Deviation 2-vector of the 1-based triad i < j < k."""
    _check_convention(convention)
    if not i < j < k:
        raise IndexOutOfRangeError(
            f"triad ({i},{j},{k}) must satisfy i < j < k"
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePairWarning)
        w_ij = pair_subspace(e, i, j)
        w_jk = pair_subspace(e, j, k)
        w_ki = pair_subspace(e, k, i)
    if convention == "cyclic":
        value = w_ij + w_jk + w_ki
    else:
        value = w_ij + w_jk - w_ki
    return GeometricDeviation(triad=(i, j, k), value=value)


def geometric_inconsistency(e: Embedding, convention: str = "cyclic") -> float:
    """Sum of squared deviation norms over lexicographic triads.

    Computed without enumerating triads. Each coordinate column of the
    pair-wedge matrix W is pair data, so C C^T = n (I - P) applies to it
    column by column (see :func:`~pcgeom.pc_core.algebraic_inconsistency`).
    Read as a skew matrix, a column has row means v_i ^ m for the mean
    vector m, hence the residual (I - P) W is exactly the pair-wedge
    matrix of the centred vectors v_i - m, and the cyclic sum is
    n |W(v - m)|^2. The anticyclic sum of |w_ij + w_jk + w_ik|^2 counts
    every pair in n - 2 triads and every two pairs sharing an alternative
    in exactly one, which gives (n - 4) |W|^2 + |B W|^2 for the unsigned
    alternative-by-pair incidence B; row i of B W is
    v_i ^ (sum_{j>i} v_j - sum_{j<i} v_j).
    """
    _check_convention(convention)
    if e.n < 3:
        return 0.0
    v = e.vectors
    if convention == "cyclic":
        r = pair_wedges(v - v.mean(axis=0))
        return e.n * float(np.vdot(r, r))
    w = pair_wedges(v)
    sums = np.cumsum(v, axis=0)
    bw = wedge_rows(v, (sums[-1] - sums) - (sums - v))
    value = (e.n - 4) * float(np.vdot(w, w)) + float(np.vdot(bw, bw))
    # At n = 3 the first term is negative; rounding must not push the
    # single squared deviation below zero.
    return max(value, 0.0)


def planar_pair_wedges(a: AdditiveMatrix) -> np.ndarray:
    """Coordinates of every pairwise planar 2-vector, one row per pair;
    see :func:`planar_pair_subspaces`."""
    base = np.zeros(a.n)
    base[1] = 1.0
    u = np.zeros((a.upper.size, a.n))
    u[:, 0] = a.upper
    u[:, 1] = 1.0
    return wedge_rows(u, base)


def planar_pair_subspaces(a: AdditiveMatrix) -> list[TwoVector]:
    """Per-pair planar 2-vectors carrying the matrix entries.

    Pair (i, j) gets the wedge of the local vectors (a_ij, 1, 0, ...) and
    (0, 1, 0, ...), whose only nonzero coordinate is a_ij at position
    (1, 2). Unlike a single global embedding, this pairwise family
    represents an inconsistent matrix faithfully.
    """
    return [new_two_vector(a.n, row) for row in planar_pair_wedges(a)]


def planar_matrix_inconsistency(
    a: AdditiveMatrix, convention: str = "cyclic"
) -> float:
    """Geometric inconsistency of the pairwise planar family of a matrix.

    All coordinates of the per-pair wedges other than the leading one
    vanish identically, so the triad sums reduce to scalar combinations of
    the entries u = a.upper, and both conventions have O(n^2) closed
    forms. The cyclic sum of (u_ij + u_jk - u_ik)^2 is the sum of squared
    triad deviations, i.e. the algebraic inconsistency. The anticyclic sum
    of (u_ij + u_jk + u_ik)^2 counts every pair in n - 2 triads and every
    two pairs sharing an alternative in exactly one, which gives
    (n - 4) |u|^2 + |X 1|^2 for the symmetric matrix X with X_ij = X_ji =
    u_ij and zero diagonal.
    """
    _check_convention(convention)
    if a.n < 3:
        return 0.0
    if convention == "cyclic":
        return algebraic_inconsistency(a)
    u = a.upper
    rows, cols = np.triu_indices(a.n, k=1)
    row_sums = np.bincount(rows, weights=u, minlength=a.n) + np.bincount(
        cols, weights=u, minlength=a.n
    )
    u_sq = float(np.dot(u, u))
    value = (a.n - 4) * u_sq + float(np.dot(row_sums, row_sums))
    # At n = 3 the first term is negative; rounding must not push the
    # single squared lead below zero.
    return max(value, 0.0)
