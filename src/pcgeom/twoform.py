"""Constant-coefficient 2-forms attached to comparison matrices.

A 2-form here is a coordinate vector over dx_k ^ dx_l (k < l); evaluating
it on a pair of vectors contracts those coordinates against the wedge of
the pair, which equals u^T P v for the skew matrix view P of the
coefficients.

A matrix with entries a_ij = s_i - s_j is reproduced by the fixed form
dx_1 ^ dx_2 evaluated on the planar vectors (s_i, 1, 0, ...). Closedness
of the form is read combinatorially: the entries are a 1-cochain on the
complete graph, and the form is closed exactly when the cochain's triad
coboundary (the deviations) vanishes, i.e. when the matrix is consistent.
A constant-coefficient form is trivially closed in the smooth sense, so
the combinatorial reading is the one with content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import indexing
from .embedding import Embedding, planar_embedding
from .errors import DimensionMismatchError
from .exterior import TwoVector, new_two_vector, wedge
from .pc_core import (
    AdditiveMatrix,
    is_consistent,
    recover_scores,
    DEFAULT_TOLERANCE,
)


@dataclass(frozen=True)
class TwoForm:
    """2-form with constant coefficients, one per lexicographic pair."""

    coefficients: TwoVector

    @property
    def n(self) -> int:
        return self.coefficients.n

    @property
    def matrix_view(self) -> np.ndarray:
        """Skew-symmetric n-by-n matrix P with P_kl = p_kl for k < l."""
        return AdditiveMatrix(self.n, self.coefficients.coords).to_array()


def form_from_plucker(p: TwoVector) -> TwoForm:
    """Wrap a 2-vector's coordinates as a differential 2-form."""
    return TwoForm(coefficients=p)


def standard_area_form(n: int) -> TwoForm:
    """The form dx_1 ^ dx_2 in dimension n."""
    coords = np.zeros(n * (n - 1) // 2)
    coords[0] = 1.0
    return TwoForm(coefficients=new_two_vector(n, coords))


def evaluate(form: TwoForm, u, v) -> float:
    """Evaluate the form on (u, v): sum of p_kl (u_k v_l - u_l v_k).

    Bilinear and antisymmetric; equals u^T P v for the matrix view P.
    """
    w = wedge(u, v)
    if w.n != form.n:
        raise DimensionMismatchError(
            f"form lives in dimension {form.n}, vectors in {w.n}"
        )
    return float(np.dot(form.coefficients.coords, w.coords))


def is_closed_discrete(
    a: AdditiveMatrix, tol: float = DEFAULT_TOLERANCE
) -> bool:
    """Discrete closedness: the triad coboundary of the entries vanishes.

    By construction this coincides with the consistency predicate.
    """
    return is_consistent(a, tol)


def matrix_form(a: AdditiveMatrix) -> tuple[TwoForm, Embedding]:
    """Standard evaluation pair for a matrix.

    Returns dx_1 ^ dx_2 together with the planar embedding of the
    row-mean scores; evaluating the form on vector pairs reproduces the
    entries exactly when the matrix is consistent.
    """
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
    from :func:`recover_scores` alone.
    """
    scores, residual = recover_scores(a)
    rows, cols = np.triu_indices(a.n, k=1)
    omega = scores.values[rows] - scores.values[cols]
    return omega, a.upper, np.abs(residual.upper)


def evaluation_table(a: AdditiveMatrix) -> list[dict]:
    """Per-pair comparison of form evaluation against the stored entry:
    the rows of :func:`evaluation_columns`, one dict per pair."""
    return [
        {"i": i, "j": j, "omega": o, "entry": e, "abs_error": err}
        for (i, j), o, e, err in zip(
            indexing.labels(a.n, 2).tolist(),
            *(column.tolist() for column in evaluation_columns(a)),
        )
    ]
