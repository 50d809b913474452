"""Inconsistency reduction: projection and closed-form descent.

The consistent matrices form the linear subspace of score differences;
the Frobenius-nearest consistent matrix is obtained by differencing the
row-mean scores, and what is left over is the residual r = a - (s_i -
s_j). Descent on the entries never leaves the line through a along r: on
the complete comparison structure the signed triad-to-pair incidence C
satisfies C C^T = n (I - P), P the projection onto consistent matrices,
so a step moves a by a multiple of r and scales the residual by
q = 1 - eta*(n + lam). After k steps the residual is q^k r, so the whole
trajectory follows from one split of the input: i_alg_k = n q^2k |r|^2,
i_geom_k = n i_alg_k, and the matrix is a - (1 - q^k) r. eta = 1/n lands
exactly on the projection in a single step and any 0 < eta < 2/(n + lam)
descends monotonically.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DivergentStepError, ReadOnly
from .pc_core import (
    AdditiveMatrix,
    _check_descent,
    _check_lambda,
    _check_tolerance,
    _from_upper,
    algebraic_inconsistency,
    from_scores,
    recover_scores,
)


class ReductionStep(ReadOnly):
    """Record after ``index`` descent steps (step 0 is the input)."""

    __slots__ = ("index", "i_alg", "i_geom", "trajectory")

    def __repr__(self) -> str:
        # The trajectory is left out: its matrices would repeat in every step.
        return (
            f"ReductionStep(index={self.index!r}, i_alg={self.i_alg!r}, "
            f"i_geom={self.i_geom!r})"
        )

    @property
    def matrix(self) -> AdditiveMatrix:
        """a - (1 - q^index) r, built when read."""
        t = self.trajectory
        if self.index == 0:
            return t.start
        shrink = 1.0 - t.q ** self.index
        return _from_upper(t.start.n, t.start.upper - shrink * t.residual.upper)


class ReductionTrajectory(ReadOnly):
    """Descent from one split of ``start``: each step scales ``residual``
    by ``q``. One i_alg and i_geom record per step, non-increasing when
    |q| < 1."""

    # __dict__ holds the cached steps.
    __slots__ = ("start", "residual", "q", "i_alg", "i_geom", "converged", "__dict__")

    @cached_property
    def steps(self) -> tuple[ReductionStep, ...]:
        return tuple(
            ReductionStep(k, i_alg, i_geom, self)
            for k, (i_alg, i_geom) in enumerate(zip(self.i_alg, self.i_geom))
        )

    @property
    def final(self) -> AdditiveMatrix:
        return self.steps[-1].matrix


def project_consistent(
    a: AdditiveMatrix,
) -> tuple[AdditiveMatrix, np.ndarray]:
    """Frobenius-nearest consistent matrix and its generating scores, the
    read-only array of :func:`~pcgeom.pc_core.recover_scores`.

    Row-mean scores minimize the squared entry distance over all score
    vectors, so the returned matrix is the orthogonal projection of the
    input onto the consistent subspace; the operation is idempotent and
    the residual has zero row sums.
    """
    scores, _ = recover_scores(a)
    return from_scores(scores), scores


def reduce_iterative(
    a: AdditiveMatrix,
    lam: float = 0.0,
    eta: float | None = None,
    max_steps: int = 1000,
    tol: float = 1e-12,
) -> ReductionTrajectory:
    """Gradient descent on the entries until i_alg falls below tol.

    Each entry a_ij moves against eta times the signed sum of the
    deviations of the triads through (i, j). With lam > 0 the descent
    direction instead comes from the regularized deviation-space form
    (quadratic form plus lam times the identity), rescaled by 1/n so that
    lam = 0 reproduces the plain update; the minimizers coincide either
    way, only the contraction factor changes from 1 - eta*n to
    1 - eta*(n + lam).

    Both updates move a by eta (n + lam) r, so the trajectory is read off
    one split of a (see the module docstring) in O(n^2 + steps).

    eta defaults to 1/n, which reaches the exact projection in one step.
    A step that cannot contract (|q| >= 1), whose records would grow into
    overflow, or one so small that q rounds to 1 and no step moves the
    matrix, raises DivergentStepError; an input whose I_alg or I_geom is
    beyond the float range raises OverflowError naming it. Failure to
    converge within max_steps is reported through the ``converged`` flag,
    not as an error.
    """
    _check_descent(eta, max_steps)
    _check_lambda(lam)
    _check_tolerance(tol)
    n = a.n
    if eta is None:
        eta = 1.0 / n
    q = 1.0 - eta * (n + lam)
    if q == 1.0:
        raise DivergentStepError(
            f"eta={eta:g} is too small for n={n}, lambda={lam:g}: "
            "1 - eta*(n+lambda) rounds to 1, so no step moves the matrix"
        )
    if abs(q) >= 1.0:
        raise DivergentStepError(
            f"eta={eta:g} does not contract for n={n}, lambda={lam:g}: "
            f"need 0 < eta < 2/(n+lambda) = {2.0 / (n + lam):g}"
        )

    _, residual = recover_scores(a)
    i_alg = [algebraic_inconsistency(a)]
    while i_alg[-1] > tol and len(i_alg) <= max_steps:
        i_alg.append(i_alg[-1] * (q * q))
    i_geom = tuple(n * v for v in i_alg)
    if math.isinf(i_geom[0]):
        raise OverflowError("I_geom = n I_alg is beyond the float range")
    return ReductionTrajectory(
        a, residual, q, tuple(i_alg), i_geom, converged=i_alg[-1] <= tol
    )
