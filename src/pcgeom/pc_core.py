"""Additive and multiplicative pairwise-comparison matrices.

An additive matrix stores preference differences and is skew-symmetric;
its multiplicative twin stores preference ratios and is reciprocal. The
two are linked entrywise by exp/log. Consistency of an additive matrix
means every triad satisfies a_ij + a_jk = a_ik, i.e. the entries are
differences of a single score vector.

Alternative indices in the public API are 1-based, matching the usual
notation for comparison matrices; array layouts are plain 0-based numpy.

Every array a constructor takes from outside (a matrix, scores, the
vectors of a wedge, a 2-vector's coordinates, an embedding, here and in
``exterior`` and ``embedding``) passes one gate, ``_input_array``, which
states the rules of shape, size and finiteness once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import indexing
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteEntryError,
    NonIncreasingTriadError,
    NonPositiveEntryError,
    NonPositiveLambdaError,
    NonSquareError,
    NotReciprocalError,
    NotSkewSymmetricError,
    ReadOnly,
    TooSmallError,
)

#: Default absolute tolerance for validating input matrices. Large enough
#: to absorb formatting round-off in text files, small enough not to mask
#: genuine asymmetry.
DEFAULT_TOLERANCE = 1e-9


class AdditiveMatrix(ReadOnly):
    """Skew-symmetric matrix of pairwise preference differences.

    Only the strict upper triangle is stored (flat, lexicographic pair
    order); the lower triangle is recovered by negation. Skew-symmetry is
    therefore structural, not a runtime check.
    """

    __slots__ = ("n", "upper")

    def entry(self, i: int, j: int) -> float:
        """Entry a_ij for 1-based indices i, j."""
        _check_index(self.n, i)
        _check_index(self.n, j)
        if i == j:
            return 0.0
        lo, hi = sorted((i - 1, j - 1))
        value = float(self.upper[indexing.pair_index(self.n, lo, hi)])
        return value if i < j else -value

    def to_array(self) -> np.ndarray:
        """Full n-by-n skew-symmetric matrix."""
        full = np.zeros((self.n, self.n))
        rows, cols = np.triu_indices(self.n, k=1)
        full[rows, cols] = self.upper
        full[cols, rows] = -self.upper
        return full


class MultiplicativeMatrix(ReadOnly):
    """Positive reciprocal matrix of pairwise preference ratios."""

    __slots__ = ("n", "entries")

    def entry(self, i: int, j: int) -> float:
        _check_index(self.n, i)
        _check_index(self.n, j)
        return float(self.entries[i - 1, j - 1])


def _check_index(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise IndexOutOfRangeError(f"index {i} outside 1..{n}")


def _check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not positive (zero, negative or NaN)."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")


def _check_lambda(lam: float) -> None:
    """Refuse a negative, NaN or infinite regularization weight."""
    if not 0 <= lam < math.inf:
        raise NonPositiveLambdaError(
            f"regularization weight must be nonnegative and finite, got {lam!r}"
        )


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _scaled(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """values divided, along the last axis, by the power of two 2**e just
    above the largest magnitude there, and e (with that axis kept).

    The quotient is exact, its largest entry lies in [1/2, 1), and its
    squared norm neither underflows nor overflows; for values whose squares
    stay in range, a sum or norm of it times 2**e is theirs to the bit.
    """
    e = np.frexp(np.max(np.abs(values), axis=-1, keepdims=True, initial=0.0))[1]
    return np.ldexp(values, -e), e


def _from_upper(n: int, upper: np.ndarray) -> AdditiveMatrix:
    return AdditiveMatrix(n=n, upper=_readonly(upper))


def _input_array(raw, what: str, item: str | None = None, least: int = 2) -> np.ndarray:
    """raw as floats, the one gate of every array from outside.

    With ``item`` naming one entry, raw must be a flat vector, else
    DimensionMismatchError; without, a square matrix, else NonSquareError.
    Fewer than ``least`` alternatives is TooSmallError, and a NaN or
    infinite entry NonFiniteEntryError naming its 1-based place: ``score 2``
    of a vector, ``entry (1,2)`` of a matrix.
    """
    arr = np.asarray(raw, dtype=float)
    if item is None and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise NonSquareError(f"{what} must be square, got shape {arr.shape}")
    if item is not None and arr.ndim != 1:
        raise DimensionMismatchError(
            f"{what} must be a flat vector, got shape {arr.shape}"
        )
    if len(arr) < least:
        raise TooSmallError(
            f"need at least {least} {item}s" if item
            else f"{what} needs at least {least} alternatives"
        )
    if not np.all(np.isfinite(arr)):
        place = ",".join(str(k + 1) for k in np.argwhere(~np.isfinite(arr))[0])
        entry = f"{item} {place}" if item else f"entry ({place})"
        raise NonFiniteEntryError(f"{entry} is not finite")
    return arr


def new_additive(raw, tol: float = DEFAULT_TOLERANCE) -> AdditiveMatrix:
    """Validate a raw square matrix as additive and build it.

    The upper triangle of ``raw`` is kept verbatim; the lower triangle is
    replaced by its exact negation after checking that the input was
    skew-symmetric within ``tol``.

    Raises:
        NonSquareError, TooSmallError, NonFiniteEntryError,
        NotSkewSymmetricError.
    """
    _check_tolerance(tol)
    arr = _input_array(raw, "additive matrix")
    n = arr.shape[0]
    diag = np.abs(np.diagonal(arr))
    if np.any(diag > tol):
        i = int(np.argmax(diag > tol))
        raise NotSkewSymmetricError(
            f"diagonal entry ({i + 1},{i + 1}) = {float(arr[i, i])!r} exceeds "
            f"tolerance {tol:g}"
        )
    with np.errstate(over="ignore"):  # an inf sum exceeds tol
        asym = arr + arr.T
    if np.any(np.abs(asym) > tol):
        i, j = np.argwhere(np.abs(asym) > tol)[0]
        raise NotSkewSymmetricError(
            f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}): "
            f"a[{i + 1},{j + 1}] + a[{j + 1},{i + 1}] = {float(asym[i, j])!r} "
            f"exceeds tolerance {tol:g}"
        )
    rows, cols = np.triu_indices(n, k=1)
    return _from_upper(n, arr[rows, cols])


def from_scores(s) -> AdditiveMatrix:
    """Additive matrix a_ij = s_i - s_j; consistent by construction.

    Raises:
        DimensionMismatchError, TooSmallError, NonFiniteEntryError: for
            scores that are nested, fewer than 2 or not finite.
        OverflowError: if any difference s_i - s_j is beyond the float range.
    """
    values = _input_array(s, "scores", "score")
    n = values.size
    rows, cols = np.triu_indices(n, k=1)
    with np.errstate(over="ignore"):
        upper = values[rows] - values[cols]
    if not np.all(np.isfinite(upper)):
        k = int(np.flatnonzero(~np.isfinite(upper))[0])
        i, j = rows[k], cols[k]
        raise OverflowError(
            f"difference of scores {i + 1} and {j + 1} overflows: "
            f"{float(values[i])!r} - {float(values[j])!r} is too large"
        )
    return _from_upper(n, upper)


def to_multiplicative(a: AdditiveMatrix) -> MultiplicativeMatrix:
    """Elementwise exponential, m_ij = exp(a_ij).

    Raises:
        OverflowError: if any entry exponentiates to infinity.
    """
    full = a.to_array()
    with np.errstate(over="ignore"):
        entries = np.exp(full)
    if not np.all(np.isfinite(entries)):
        i, j = np.argwhere(~np.isfinite(entries))[0]
        raise OverflowError(
            f"exp overflow at entry ({i + 1},{j + 1}); additive value "
            f"{float(full[i, j])!r} is too large"
        )
    return MultiplicativeMatrix(n=a.n, entries=_readonly(entries))


def new_multiplicative(
    raw, tol: float = DEFAULT_TOLERANCE
) -> MultiplicativeMatrix:
    """Validate a raw square matrix as multiplicative and build it.

    Raises:
        NonSquareError, TooSmallError, NonFiniteEntryError,
        NonPositiveEntryError, NotReciprocalError.
    """
    _check_tolerance(tol)
    arr = _input_array(raw, "multiplicative matrix")
    if np.any(arr <= 0):
        i, j = np.argwhere(arr <= 0)[0]
        raise NonPositiveEntryError(
            f"entry ({i + 1},{j + 1}) = {float(arr[i, j])!r} must be positive"
        )
    diag_err = np.abs(np.diagonal(arr) - 1.0)
    if np.any(diag_err > tol):
        i = int(np.argmax(diag_err > tol))
        raise NotReciprocalError(
            f"diagonal entry ({i + 1},{i + 1}) = {float(arr[i, i])!r} differs "
            f"from 1 beyond tolerance {tol:g}"
        )
    with np.errstate(over="ignore"):  # an inf product exceeds tol
        product = arr * arr.T
    recip = np.abs(product - 1.0)
    if np.any(recip > tol):
        i, j = np.argwhere(recip > tol)[0]
        raise NotReciprocalError(
            f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}): "
            f"m[{i + 1},{j + 1}] * m[{j + 1},{i + 1}] = "
            f"{float(product[i, j])!r} "
            f"differs from 1 beyond tolerance {tol:g}"
        )
    return MultiplicativeMatrix(n=arr.shape[0], entries=_readonly(arr))


def to_additive(m: MultiplicativeMatrix) -> AdditiveMatrix:
    """Elementwise logarithm, a_ij = ln(m_ij).

    Only the upper triangle of the logarithm is kept, so the result is
    exactly skew-symmetric even when the input is reciprocal only within
    tolerance.
    """
    if np.any(m.entries <= 0):
        i, j = np.argwhere(m.entries <= 0)[0]
        raise NonPositiveEntryError(
            f"entry ({i + 1},{j + 1}) = {float(m.entries[i, j])!r} must be positive"
        )
    rows, cols = np.triu_indices(m.n, k=1)
    return _from_upper(m.n, np.log(m.entries[rows, cols]))


def _check_triad(n: int, i: int, j: int, k: int) -> tuple[int, int, int]:
    for idx in (i, j, k):
        _check_index(n, idx)
    if not i < j < k:
        raise NonIncreasingTriadError(
            f"triad ({i},{j},{k}) must satisfy i < j < k"
        )
    return i - 1, j - 1, k - 1


def triad_deviation(a: AdditiveMatrix, i: int, j: int, k: int) -> float:
    """Deviation a_ij + a_jk - a_ik of the 1-based triad i < j < k."""
    i0, j0, k0 = _check_triad(a.n, i, j, k)
    u, pos = a.upper, indexing.pair_index
    return float(
        u[pos(a.n, i0, j0)] + u[pos(a.n, j0, k0)] - u[pos(a.n, i0, k0)]
    )


def _deviations_by_lead(a: AdditiveMatrix):
    """Yield the deviations of the triads led by i = 0, 1, ..., n-3.

    The triads led by i are i followed by a slice of the pair list
    (:func:`~pcgeom.indexing.by_lead`), with (i, j) and (i, k) found by
    shifting j and k by pos(i, 0). Concatenated, the blocks are
    ``all_triad_deviations`` in order, computed with the same sums; only
    O(n^2) memory is live at a time, and no sum is evaluated that belongs
    to no triad.
    """
    u = a.upper
    rows, cols = np.triu_indices(a.n, k=1)
    for _, base, jk in indexing.by_lead(a.n, 3)():
        yield u[base + rows[jk]] + u[jk] - u[base + cols[jk]]


def all_triad_deviations(a: AdditiveMatrix) -> np.ndarray:
    """Every triad deviation a_ij + a_jk - a_ik, lexicographic over
    i < j < k, as a read-only array."""
    values = indexing.collect(_deviations_by_lead(a), math.comb(a.n, 3))
    values.setflags(write=False)
    return values


def max_abs_triad_deviation(a: AdditiveMatrix) -> float:
    """Largest |a_ij + a_jk - a_ik| over all triads; 0.0 when n = 2.

    The largest magnitude in :func:`all_triad_deviations`, found in O(n^2)
    memory: the triads are scanned one lead at a time.
    """
    lead_max = [np.max(np.abs(block)) for block in _deviations_by_lead(a)]
    return float(np.max(lead_max, initial=0.0))


def algebraic_inconsistency(a: AdditiveMatrix) -> float:
    """Sum of squared triad deviations. Zero exactly when consistent.

    Computed in O(n^2) without enumerating triads. The deviations are
    d = C^T a for the signed triad-to-pair incidence C, and on the
    complete comparison structure C C^T = n (I - P), where P projects
    onto consistent matrices. Hence |d|^2 = n |r|^2 for the residual r
    of the row-mean scores (see :func:`recover_scores`).
    """
    _, r = recover_scores(a)
    return a.n * float(np.dot(r.upper, r.upper))


def is_consistent(a: AdditiveMatrix, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True when every triad deviation is within ``tol`` in magnitude."""
    _check_tolerance(tol)
    return max_abs_triad_deviation(a) <= tol


def recover_scores(a: AdditiveMatrix) -> tuple[np.ndarray, AdditiveMatrix]:
    """Row-mean scores and the remainder the scores cannot explain.

    Returns (s, r): the read-only array s with s_i the mean of row i, and
    r = a - (s_i - s_j).
    The residual r is skew-symmetric by construction; it vanishes exactly
    when the matrix is consistent, in which case ``from_scores(s)``
    rebuilds the input.

    Raises:
        OverflowError: if an entry of r is beyond the float range.
    """
    # Each row's mean is taken in units of its largest magnitude, so no
    # sum of finite entries overflows.
    unit, e = _scaled(a.to_array())
    s = np.ldexp(unit.mean(axis=1), e[:, 0])
    rows, cols = np.triu_indices(a.n, k=1)
    with np.errstate(over="ignore"):  # an inf is redone or refused below
        diff = s[rows] - s[cols]
        residual_upper, far = a.upper - diff, np.isinf(diff)
        # In quarters a_ij, s_i and s_j, and so a_ij - s_i + s_j, are in range.
        quarters = np.ldexp([a.upper[far], -s[rows[far]], s[cols[far]]], -2)
        residual_upper[far] = np.ldexp(quarters.sum(axis=0), 2)
    if not np.all(np.isfinite(residual_upper)):
        k = int(np.flatnonzero(~np.isfinite(residual_upper))[0])
        raise OverflowError(
            f"residual at entry ({rows[k] + 1},{cols[k] + 1}) overflows: "
            f"{float(a.upper[k])!r} - ({float(s[rows[k]])!r} - "
            f"{float(s[cols[k]])!r}) is too large"
        )
    return _readonly(s), _from_upper(a.n, residual_upper)


def permute(a: AdditiveMatrix, order: Sequence[int]) -> AdditiveMatrix:
    """Relabel alternatives: entry (i, j) of the result is a[order_i, order_j].

    ``order`` is a 1-based permutation of 1..n, given as integers.
    """
    perm = np.asarray(order)
    labels = sorted(perm.tolist()) if perm.dtype.kind in "iu" else None
    if labels != list(range(1, a.n + 1)):
        raise ValueError(f"order must be a permutation of 1..{a.n}")
    full = a.to_array()[np.ix_(perm - 1, perm - 1)]
    rows, cols = np.triu_indices(a.n, k=1)
    return _from_upper(a.n, full[rows, cols])
