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

import numpy as np

from .errors import IndexOutOfRangeError, ReadOnly, ZeroCoefficientError
from .pc_core import AdditiveMatrix, _input_array, _readonly, algebraic_inconsistency

ORTHOGONAL = "orthogonal"
PLANAR = "planar"
CUSTOM = "custom"

CONVENTIONS = ("cyclic", "anticyclic")


class Embedding(ReadOnly):
    """One vector per alternative, all of dimension n."""

    __slots__ = ("n", "vectors", "kind")

    def vector(self, i: int) -> np.ndarray:
        """Vector of alternative i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRangeError(f"index {i} outside 1..{self.n}")
        return self.vectors[i - 1]


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(
            f"unknown convention {convention!r}; expected one of {CONVENTIONS}"
        )


def _embedding(n: int, rows: np.ndarray, kind: str) -> Embedding:
    return Embedding(n=n, vectors=_readonly(rows), kind=kind)


def orthogonal_embedding(b) -> Embedding:
    """Embedding v_i = b_i e_i along the coordinate axes.

    Every coefficient must be nonzero, otherwise an alternative would
    collapse to the zero vector and span nothing.
    """
    coeffs = _input_array(b, "coefficients", "coefficient")
    if np.any(coeffs == 0.0):
        i = int(np.flatnonzero(coeffs == 0.0)[0])
        raise ZeroCoefficientError(f"coefficient {i + 1} is zero")
    return _embedding(coeffs.size, np.diag(coeffs), ORTHOGONAL)


def planar_embedding(s) -> Embedding:
    """Embedding v_i = (s_i, 1, 0, ..., 0), zero-padded to length n.

    The wedge of two such vectors has s_i - s_j as its leading coordinate
    and zeros elsewhere, so score differences survive as wedge data.
    """
    values = _input_array(s, "scores", "score")
    n = values.size
    rows = np.zeros((n, n))
    rows[:, 0] = values
    rows[:, 1] = 1.0
    return _embedding(n, rows, PLANAR)


def custom_embedding(vectors) -> Embedding:
    """Embedding from an explicit n-by-n array of row vectors; a
    non-square array is NonSquareError."""
    arr = _input_array(vectors, "embedding")
    return _embedding(arr.shape[0], arr, CUSTOM)


def scores_to_coefficients(s) -> np.ndarray:
    """Map scores to orthogonal coefficients b_i = exp(s_i / 2).

    Strictly positive and monotone in the score, so the nonzero
    requirement of the orthogonal family holds automatically.

    Raises:
        OverflowError: naming the first score whose exp(s_i / 2) is not a
            positive finite float (it overflows or underflows to zero).
    """
    values = _input_array(s, "scores", "score")
    with np.errstate(over="ignore", under="ignore"):
        b = np.exp(values / 2.0)
    out = (b == 0.0) | (b == np.inf)
    if np.any(out):
        i = int(np.flatnonzero(out)[0])
        raise OverflowError(
            f"exp(s/2) of score {i + 1} is not a positive finite float: "
            f"s = {float(values[i])!r} is too {'large' if values[i] > 0 else 'small'}"
        )
    return b


def pair_wedges(vectors) -> np.ndarray:
    """Matrix of all pair wedges: row p holds v_i ^ v_j for the p-th pair
    i < j, bit-identical to ``wedge(v_i, v_j).coords``."""
    from .exterior import wedge_rows

    v = np.asarray(vectors, dtype=float)
    i, j = np.triu_indices(v.shape[0], k=1)
    return wedge_rows(v[i], v[j])


def _e2_squared_singular_values(x: np.ndarray) -> float:
    """Second elementary symmetric function of the squared singular values
    of the matrix x.

    By Cauchy-Binet this is the sum of its squared 2x2 minors, i.e.
    sum_{i<j} |x_i ^ x_j|^2 over its rows. The singular values come from
    x itself, never from x^T x, and each sigma_k^2 (ascending) multiplies
    the sum of the smaller ones, so no term cancels.
    """
    s2 = np.sort(np.linalg.svd(x, compute_uv=False) ** 2)
    return float(np.dot(s2[1:], np.cumsum(s2[:-1])))


def geometric_inconsistency(e: Embedding, convention: str = "cyclic") -> float:
    """Sum of squared deviation norms over lexicographic triads.

    Computed from singular values in O(n^2) memory, without enumerating
    triads or building pair wedges. Write e2(X) for the second elementary
    symmetric function of the squared singular values of X; by
    Cauchy-Binet it equals sum_{i<j} |x_i ^ x_j|^2 over the rows of X.

    The pair wedges are pair data, so C C^T = n (I - P) applies to them
    coordinate by coordinate (see
    :func:`~pcgeom.pc_core.algebraic_inconsistency`); their residual is
    the wedges of the vectors centred on their mean m, and the cyclic
    sum is n e2(V - 1 m^T). The anticyclic sum of |w_ij + w_jk + w_ik|^2
    counts every pair in n - 2 triads and every two pairs sharing an
    alternative in exactly one, which gives
    (n - 4) e2(V) + sum_i |v_i ^ c_i|^2 with
    c_i = sum_{j>i} v_j - sum_{j<i} v_j; each |v_i ^ c_i|^2 is taken from
    the two vectors in O(n). At n = 3 the first term would be negative, so
    the one triad's deviation is computed directly.
    """
    _check_convention(convention)
    if e.n < 3:
        return 0.0
    v = e.vectors
    if convention == "cyclic":
        return e.n * _e2_squared_singular_values(v - v.mean(axis=0))
    if e.n == 3:
        # One triad, whose deviation w_12 + w_23 + w_13 is the single wedge
        # (v_1 + v_2) ^ (v_2 + v_3) in R^3; the sum below would subtract.
        d = np.cross(v[0] + v[1], v[1] + v[2])
        return float(np.dot(d, d))
    sums = np.cumsum(v, axis=0)
    c = (sums[-1] - sums) - (sums - v)
    # |v_i ^ c_i|^2 = |v_i|^2 |c_i - t_i v_i|^2 with t_i = v_i.c_i / |v_i|^2:
    # the part of c_i orthogonal to v_i, so no two large products cancel.
    vv = np.einsum("ij,ij->i", v, v)
    t = np.divide(
        np.einsum("ij,ij->i", v, c), vv, out=np.zeros_like(vv), where=vv > 0
    )
    perp = c - t[:, None] * v
    leads = float(np.dot(vv, np.einsum("ij,ij->i", perp, perp)))
    return (e.n - 4) * _e2_squared_singular_values(v) + leads


def planar_pair_wedges(a: AdditiveMatrix) -> np.ndarray:
    """Per-pair planar 2-vectors carrying the matrix entries, one row of
    coordinates per pair in lexicographic order.

    Pair (i, j) gets the wedge of the local vectors (a_ij, 1, 0, ...) and
    (0, 1, 0, ...), whose only nonzero coordinate is a_ij at position
    (1, 2). Unlike a single global embedding, this pairwise family
    represents an inconsistent matrix faithfully.
    """
    from .exterior import wedge_rows

    base = np.zeros(a.n)
    base[1] = 1.0
    u = np.zeros((a.upper.size, a.n))
    u[:, 0] = a.upper
    u[:, 1] = 1.0
    return wedge_rows(u, base)


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
    u_ij and zero diagonal. At n = 3 the first term would be negative, so
    the one triad's deviation is computed directly.
    """
    _check_convention(convention)
    if a.n < 3:
        return 0.0
    if convention == "cyclic":
        return algebraic_inconsistency(a)
    u = a.upper
    if a.n == 3:
        # One triad, whose deviation is u_12 + u_13 + u_23; the sum below
        # would subtract.
        return float(np.sum(u)) ** 2
    rows, cols = np.triu_indices(a.n, k=1)
    row_sums = np.bincount(rows, weights=u, minlength=a.n) + np.bincount(
        cols, weights=u, minlength=a.n
    )
    return (a.n - 4) * float(np.dot(u, u)) + float(np.dot(row_sums, row_sums))
