"""Wedge products of vectors in R^n and their quadratic coordinate relations.

A 2-vector is stored as its coordinate list over the basis e_k ^ e_l with
k < l in lexicographic order; the coordinate of a wedge u ^ v at (k, l) is
the 2-by-2 minor u_k v_l - u_l v_k. A 2-vector that equals some single
wedge is called decomposable; those are exactly the coordinate vectors
satisfying every quadratic relation

    p_kl p_mo - p_km p_lo + p_ko p_lm = 0

over the 4-sets {k < l < m < o}, and the nonzero ones are in bijection
with 2-dimensional subspaces of R^n.
"""

from __future__ import annotations

from math import comb
from numbers import Real

import numpy as np

from . import indexing
from .errors import (
    DimensionMismatchError,
    NonFiniteEntryError,
    ReadOnly,
    ZeroTwoVectorError,
)


class TwoVector(ReadOnly):
    """Coordinates of a 2-vector over the lexicographic pair basis.

    Adds and subtracts with another TwoVector and scales by a real
    number; any other operand raises TypeError.
    """

    __slots__ = ("n", "coords")

    # numpy defers to the operators below, so an array operand on either
    # side raises TypeError instead of building an object array.
    __array_ufunc__ = None

    def coord(self, k: int, l: int) -> float:
        """Coordinate p_kl for 1-based k < l."""
        if not (1 <= k < l <= self.n):
            raise DimensionMismatchError(
                f"pair ({k},{l}) invalid for dimension {self.n}"
            )
        return float(self.coords[indexing.pair_index(self.n, k - 1, l - 1)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def norm_squared(self) -> float:
        return float(np.dot(self.coords, self.coords))

    def is_zero(self) -> bool:
        return bool(np.all(self.coords == 0.0))

    def _same_space(self, other: "TwoVector") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"2-vectors live in different dimensions "
                f"({self.n} vs {other.n})"
            )

    def __add__(self, other: "TwoVector") -> "TwoVector":
        if not isinstance(other, TwoVector):
            return NotImplemented
        self._same_space(other)
        return _new(self.n, self.coords + other.coords)

    def __sub__(self, other: "TwoVector") -> "TwoVector":
        if not isinstance(other, TwoVector):
            return NotImplemented
        self._same_space(other)
        return _new(self.n, self.coords - other.coords)

    def __neg__(self) -> "TwoVector":
        return _new(self.n, -self.coords)

    def __mul__(self, scalar: float) -> "TwoVector":
        if not isinstance(scalar, Real):
            return NotImplemented
        return _new(self.n, self.coords * float(scalar))

    __rmul__ = __mul__


def _new(n: int, coords: np.ndarray) -> TwoVector:
    arr = np.array(coords, dtype=float)
    arr.setflags(write=False)
    return TwoVector(n=n, coords=arr)


def new_two_vector(n: int, coords) -> TwoVector:
    """Build a TwoVector from raw coordinates, validating the length."""
    arr = _flat(coords, "coords")
    if n < 2:
        raise DimensionMismatchError("dimension must be at least 2")
    if arr.size != indexing.pair_count(n):
        raise DimensionMismatchError(
            f"expected {indexing.pair_count(n)} coordinates for n={n}, "
            f"got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError("2-vector coordinates must be finite")
    return _new(n, arr)


def _flat(values, name: str) -> np.ndarray:
    """values as a 1-D float array; a nested array is refused, not flattened."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise DimensionMismatchError(
            f"{name} must be a flat vector, got shape {arr.shape}"
        )
    return arr.ravel()


def _as_vector(u, name: str) -> np.ndarray:
    arr = _flat(u, name)
    if arr.size < 2:
        raise DimensionMismatchError(f"{name} needs at least 2 components")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError(f"{name} has a non-finite component")
    return arr


def wedge(u, v) -> TwoVector:
    """Wedge product u ^ v; coordinate (k, l) is the minor u_k v_l - u_l v_k."""
    uu = _as_vector(u, "u")
    vv = _as_vector(v, "v")
    if uu.size != vv.size:
        raise DimensionMismatchError(
            f"vectors have different dimensions ({uu.size} vs {vv.size})"
        )
    return _new(uu.size, wedge_rows(uu, vv))


def wedge_rows(x, y) -> np.ndarray:
    """Wedge products row by row: row p holds the coordinates of x[p] ^ y[p].

    This is the kernel behind :func:`wedge`, so row p is bit-identical to
    ``wedge(x[p], y[p]).coords``. Leading axes broadcast, so a single row
    is paired with every row of the other argument.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rows, cols = np.triu_indices(x.shape[-1], k=1)
    return x[..., rows] * y[..., cols] - x[..., cols] * y[..., rows]


def _residuals_by_lead(p: TwoVector):
    """Yield the residuals of the quads led by k = 0, 1, ..., n-4.

    The quads led by k are k followed by the tail of the lexicographic
    triad list from ``lead_starts(n, 4)[k]``, so one block is one slice
    of the triad columns (l, m, o) and of their pair positions. Only
    O(n^3) memory is live at a time.
    """
    n, q, pos = p.n, p.coords, indexing.pair_index
    l, m, o = indexing.members(n, 3, np.arange(indexing.triad_count(n)))
    lm, lo, mo = pos(n, l, m), pos(n, l, o), pos(n, m, o)
    for k, start in zip(range(n - 3), indexing.lead_starts(n, 4)):
        base = pos(n, k, 0)
        yield (q[base + l[start:]] * q[mo[start:]]
               - q[base + m[start:]] * q[lo[start:]]
               + q[base + o[start:]] * q[lm[start:]])


def quad_residual_values(p: TwoVector) -> np.ndarray:
    """The residuals of :func:`quad_residuals`, without their quads."""
    return indexing.collect(_residuals_by_lead(p), comb(p.n, 4))


#: Rows of the quad table unranked at a time.
_QUAD_BLOCK = 1 << 16


def quad_residuals(p: TwoVector) -> tuple[np.ndarray, np.ndarray]:
    """Every 4-subset and its quadratic-relation residual.

    Returns the 1-based quads k < l < m < o as the rows of a (Q, 4)
    array and the aligned residuals p_kl p_mo - p_km p_lo + p_ko p_lm;
    both are empty for n < 4, where the relations are vacuous.
    """
    count, unrank = comb(p.n, 4), indexing.unranker(p.n, 4)
    quads = np.empty((count, 4), dtype=np.intp)
    # Filled a block of rows at a time: four whole C(n,4) member columns
    # would be held next to the table they fill.
    for start in range(0, count, _QUAD_BLOCK):
        block = quads[start:start + _QUAD_BLOCK]
        members = unrank(np.arange(start, start + len(block)))
        for column, values in zip(block.T, members):
            np.add(values, 1, out=column)
    return quads, quad_residual_values(p)


def residuals_decomposable(
    p: TwoVector, values: np.ndarray, tol: float = 1e-9
) -> bool:
    """Scale-aware verdict on residuals already computed by
    :func:`quad_residuals`, or on any values with the same largest
    magnitude; see :func:`is_decomposable`."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if values.size == 0:
        return True
    bound = tol * max(1.0, p.norm_squared())
    return bool(np.max(np.abs(values)) <= bound)


def is_decomposable(p: TwoVector, tol: float = 1e-9) -> bool:
    """Whether p equals a single wedge, up to a scale-aware tolerance.

    Residuals are quadratic in p, so they are compared against
    tol * max(1, |p|^2); a raw absolute threshold would make the verdict
    depend on an arbitrary overall scale. The quads are walked one lead
    at a time and only each lead's largest residual is kept, so the
    cost is O(n^4) time in O(n^3) memory.
    """
    lead_max = [np.max(np.abs(block)) for block in _residuals_by_lead(p)]
    return residuals_decomposable(p, np.array(lead_max), tol)


def normalize_grassmann(p: TwoVector) -> TwoVector:
    """Canonical projective representative: unit norm, first nonzero
    coordinate positive.

    A vector already within a few ulp of unit norm is not rescaled, which
    makes the operation idempotent. Raises ZeroTwoVectorError on the zero
    2-vector, which names no subspace.
    """
    nrm = float(np.linalg.norm(p.coords))
    if nrm == 0.0:
        raise ZeroTwoVectorError("cannot normalize the zero 2-vector")
    if abs(nrm - 1.0) <= 4 * np.finfo(float).eps:
        coords = p.coords
    else:
        coords = p.coords / nrm
    nonzero = np.nonzero(coords)[0]
    if nonzero.size and coords[nonzero[0]] < 0:
        coords = -coords + 0.0  # + 0.0 turns -0.0 into +0.0
    return _new(p.n, coords)


def chordal_distance(p: TwoVector, q: TwoVector) -> float:
    """Distance between the sign-fixed unit representatives of p and q.

    Zero exactly when p and q name the same projective point; symmetric.
    """
    p._same_space(q)
    a = normalize_grassmann(p)
    b = normalize_grassmann(q)
    return float(np.linalg.norm(a.coords - b.coords))
