"""Constant-coefficient 2-forms attached to comparison matrices.

A 2-form here is its coefficient vector over dx_k ^ dx_l (k < l), a
:class:`~pcgeom.exterior.TwoVector`; evaluating it on a pair of vectors
contracts those coefficients against the wedge of the pair, which equals
u^T P v for the skew matrix P = ``TwoVector.matrix_view``.

A matrix with entries a_ij = s_i - s_j is reproduced by the fixed form
dx_1 ^ dx_2 evaluated on the planar vectors (s_i, 1, 0, ...). Closedness
of the form is read combinatorially: the entries are a 1-cochain on the
complete graph, and the form is closed exactly when the cochain's triad
coboundary (the deviations) vanishes, i.e. when the matrix is consistent,
so discrete closedness is :func:`~pcgeom.pc_core.is_consistent`. A
constant-coefficient form is trivially closed in the smooth sense, so the
combinatorial reading is the one with content.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError
from .pc_core import AdditiveMatrix, _input_n, _rescued, from_scores, recover_scores

if TYPE_CHECKING:
    from .embedding import Embedding
    from .exterior import TwoVector


def standard_area_form(n: int) -> TwoVector:
    """The coefficients of the form dx_1 ^ dx_2 in dimension n."""
    from .exterior import new_two_vector

    n = _input_n(n, 2, DimensionMismatchError)
    coords = np.zeros(n * (n - 1) // 2)
    coords[0] = 1.0
    return new_two_vector(n, coords)


def evaluate(p: TwoVector, u, v) -> float:
    """Evaluate the form p on (u, v): sum of p_kl (u_k v_l - u_l v_k).

    Bilinear and antisymmetric; equals u^T P v for P = ``p.matrix_view``.
    The sum is taken by ``pc_core._rescued``, so a value in the float
    range is finite.

    Raises:
        OverflowError: if a coordinate of u ^ v, or the value, is beyond
            the float range.
    """
    from .exterior import wedge

    w = wedge(u, v)
    if w.n != p.n:
        raise DimensionMismatchError(
            f"form lives in dimension {p.n}, vectors in {w.n}"
        )
    value = _rescued(lambda x, y: np.atleast_1d(np.dot(x, y)), "the form's value",
                     p.coords, w.coords)
    return float(value[0])


def matrix_form(a: AdditiveMatrix) -> tuple[TwoVector, Embedding]:
    """Standard evaluation pair for a matrix.

    Returns the coefficients of dx_1 ^ dx_2 together with the planar
    embedding of the row-mean scores; evaluating the form on vector pairs
    reproduces the entries exactly when the matrix is consistent.
    """
    from .embedding import planar_embedding

    scores, _ = recover_scores(a)
    return standard_area_form(a.n), planar_embedding(scores)


def evaluation_columns(
    a: AdditiveMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The form's value omega, the stored entry and their distance, per
    lexicographic pair.

    Evaluating dx_1 ^ dx_2 on the planar vectors of pair (i, j) gives
    s_i - s_j (see :func:`matrix_form`), and its distance from the entry
    is the residual |r_ij| of the row-mean scores, so the columns come
    from :func:`recover_scores` alone. omega is ``from_scores(s)``, which
    raises OverflowError naming two scores whose difference overflows.
    """
    scores, residual = recover_scores(a)
    return from_scores(scores).upper, a.upper, np.abs(residual.upper)
