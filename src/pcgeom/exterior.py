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

import math
from math import comb
from numbers import Real

import numpy as np

from . import indexing
from .errors import DimensionMismatchError, ReadOnly, ZeroTwoVectorError
from .pc_core import (
    DEFAULT_TOLERANCE,
    AdditiveMatrix,
    _check_tolerance,
    _input_array,
    _input_n,
    _integral,
    _readonly,
    _scaled,
    _scaled_square_sum,
    _unscaled,
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
        """Coordinate p_kl for 1-based k < l, integers by ``_integral``'s rule."""
        k0, l0 = _integral(k), _integral(l)
        if None in (k0, l0) or not 1 <= k0 < l0 <= self.n:
            raise DimensionMismatchError(
                f"pair ({k!r},{l!r}) invalid for dimension {self.n}")
        return float(self.coords[indexing.pair_index(self.n, k0 - 1, l0 - 1)])

    def norm(self) -> float:
        """Euclidean norm, nonzero for every nonzero 2-vector; raises
        OverflowError naming |p| when it exceeds the float range."""
        unit, (e,) = _scaled(self.coords)
        return _unscaled(float(np.linalg.norm(unit)), int(e), "|p| of the 2-vector")

    def norm_squared(self) -> float:
        """Squared Euclidean norm; raises OverflowError naming |p|^2 when it
        exceeds the float range."""
        return _scaled_square_sum(self.coords, 1, "|p|^2 of the 2-vector")

    @property
    def matrix_view(self) -> np.ndarray:
        """The 2-form's skew n-by-n matrix P, with P_kl = p_kl for k < l."""
        return AdditiveMatrix(self.n, self.coords).to_array()

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
    return TwoVector(n=n, coords=_readonly(coords))


def new_two_vector(n: int, coords) -> TwoVector:
    """Build a TwoVector of dimension n >= 2 from its C(n, 2) raw
    coordinates, a flat finite vector. Their count is checked against n,
    not as alternatives: n = 2 has one coordinate. n is an integer or an
    integral float, never a bool, and is stored as an int."""
    arr = _input_array(coords, "coords", "coordinate", least=0)
    n = _input_n(n, 2, DimensionMismatchError)
    if arr.size != comb(n, 2):
        raise DimensionMismatchError(
            f"expected {comb(n, 2)} coordinates for n={n}, "
            f"got {arr.size}"
        )
    return _new(n, arr)


def wedge(u, v) -> TwoVector:
    """Wedge product u ^ v; coordinate (k, l) is the minor u_k v_l - u_l v_k."""
    uu = _input_array(u, "u", "u component")
    vv = _input_array(v, "v", "v component")
    return _new(uu.size, wedge_rows(uu, vv))


def wedge_rows(x, y) -> np.ndarray:
    """Wedge products row by row: row p holds the coordinates of x[p] ^ y[p].

    This is the kernel behind :func:`wedge`, so row p is bit-identical to
    ``wedge(x[p], y[p]).coords``. Leading axes broadcast, so a single row
    is paired with every row of the other argument. Rows of different
    widths, and an argument that is not a vector or rows of numbers
    (integers or floats, not text or booleans), are DimensionMismatchError.
    """
    arrays = []
    for name, raw in (("x", x), ("y", y)):
        try:
            arr = np.asarray(raw)
            got = f"{arr.dtype} of shape {arr.shape}"
        except ValueError:  # rows of different lengths
            arr, got = None, "ragged rows"
        if arr is None or arr.ndim == 0 or arr.dtype.kind not in "iuf":
            raise DimensionMismatchError(
                f"{name} must be a vector or rows of numbers, got {got}")
        arrays.append(arr.astype(float, copy=False))
    x, y = arrays
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatchError(
            f"vectors have different dimensions ({x.shape[-1]} vs {y.shape[-1]})"
        )
    rows, cols = np.triu_indices(x.shape[-1], k=1)
    return x[..., rows] * y[..., cols] - x[..., cols] * y[..., rows]


def _residuals_by_lead(p: TwoVector):
    """Yield the residuals of the quads led by k = 0, 1, ..., n-4: k and a
    slice of the triad list (:func:`~pcgeom.indexing.by_lead`), so one block
    is one slice of the triad columns (l, m, o) and of their pair positions,
    and only O(n^3) memory is live at a time."""
    q = p.coords
    rows, cols = np.triu_indices(p.n, k=1)
    lm, mo, lo = indexing.triad_pairs(p.n)
    l, m, o = rows[lm], rows[mo], cols[mo]
    for _, base, lmo in indexing.by_lead(p.n, 4)():
        yield (q[base + l[lmo]] * q[mo[lmo]]
               - q[base + m[lmo]] * q[lo[lmo]]
               + q[base + o[lmo]] * q[lm[lmo]])


def quad_residual_values(p: TwoVector) -> np.ndarray:
    """The residuals of :func:`quad_residuals`, without their quads."""
    return indexing.collect(_residuals_by_lead(p), comb(p.n, 4))


def quad_residuals(p: TwoVector) -> tuple[np.ndarray, np.ndarray]:
    """Every 4-subset and its quadratic-relation residual.

    Returns the 1-based quads k < l < m < o as the rows of a (Q, 4)
    array and the aligned residuals p_kl p_mo - p_km p_lo + p_ko p_lm;
    both are empty for n < 4, where the relations are vacuous.
    """
    values = quad_residual_values(p)
    rows, cols = np.triu_indices(p.n, k=1)
    lm, mo, _ = indexing.triad_pairs(p.n)
    triads = np.column_stack([rows[lm], rows[mo], cols[mo]]) + 1
    quads, end = np.empty((comb(p.n, 4), 4), dtype=np.intp), 0
    # Filled one lead at a time, after the residuals: the walk's triad
    # columns are freed before the table is written.
    for k, _, lmo in indexing.by_lead(p.n, 4)():
        block = quads[end:(end := end + len(triads[lmo]))]
        block[:, 0] = k + 1
        block[:, 1:] = triads[lmo]
    return quads, values


def _within_plucker_bound(p: TwoVector, largest: float, e: int, tol: float) -> bool:
    """The Plücker rule: whether ``largest``, the largest |residual| of
    p / 2**e, is within tol * max(1, |p|^2).

    Residuals are quadratic in p, so they scale by 4**-e. The comparison
    is made on p / 2**f, with 2**f the power of two just above max|p_kl|:
    largest <= tol * max(4**-f, |p / 2**f|^2), as two comparisons that
    stay in the float range (f > 0 means |p| >= 1).
    """
    unit, (f,) = _scaled(p.coords)
    largest = math.ldexp(largest, 2 * (e - int(f)))
    return bool(largest <= tol * float(np.dot(unit, unit)) or (
        f <= 0 and math.ldexp(largest, 2 * int(f)) <= tol
    ))


def is_decomposable(p: TwoVector, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether p equals a single wedge, up to a scale-aware tolerance.

    Residuals are quadratic in p, so they are compared against
    tol * max(1, |p|^2); a raw absolute threshold would make the verdict
    depend on an arbitrary overall scale. The quads are walked one lead
    at a time and only each lead's largest residual is kept, so the
    cost is O(n^4) time in O(n^3) memory.
    """
    _check_tolerance(tol)
    unit, (e,) = _scaled(p.coords)
    blocks = _residuals_by_lead(_new(p.n, unit))
    largest = float(max((np.max(np.abs(block)) for block in blocks), default=0.0))
    return _within_plucker_bound(p, largest, int(e), tol)


def normalize_grassmann(p: TwoVector) -> TwoVector:
    """Canonical projective representative: unit norm, first nonzero
    coordinate positive.

    A vector already within a few ulp of unit norm is not rescaled, which
    makes the operation idempotent. The norm is taken on the coordinates
    scaled by the power of two just above max|p_kl|, so a 2-vector whose
    squared norm leaves the float range still normalizes. Raises ZeroTwoVectorError on the zero
    2-vector, which names no subspace.
    """
    unit, (e,) = _scaled(p.coords)
    nrm = float(np.linalg.norm(unit))
    if nrm == 0.0:
        raise ZeroTwoVectorError("cannot normalize the zero 2-vector")
    # A unit vector's largest coordinate is at most 1, so e <= 1.
    if e <= 1 and abs(math.ldexp(nrm, int(e)) - 1.0) <= 4 * np.finfo(float).eps:
        coords = p.coords
    else:
        coords = unit / nrm
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
