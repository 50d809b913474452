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

A brute-force grid search over score vectors is included as an
independent optimality check for small n; it is meant for tests, not for
production use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonPositiveLambdaError, NonPositiveStepError, UnsupportedSizeError
from .pc_core import (
    AdditiveMatrix,
    ScoreVector,
    _from_upper,
    from_scores,
    recover_scores,
)


@dataclass(frozen=True)
class ReductionStep:
    """Record after ``index`` descent steps (step 0 is the input)."""

    index: int
    i_alg: float
    i_geom: float
    trajectory: ReductionTrajectory = field(repr=False, compare=False)

    @property
    def matrix(self) -> AdditiveMatrix:
        """a - (1 - q^index) r, built when read."""
        t = self.trajectory
        if self.index == 0:
            return t.start
        # A numpy power overflows to inf, where float ** int would raise.
        shrink = 1.0 - np.float64(t.q) ** self.index
        return _from_upper(t.start.n, t.start.upper - shrink * t.residual.upper)


@dataclass(frozen=True)
class ReductionTrajectory:
    """Descent from one split of ``start``: each step scales ``residual``
    by ``q``. One i_alg and i_geom record per step, non-increasing when
    |q| < 1."""

    start: AdditiveMatrix
    residual: AdditiveMatrix
    q: float
    i_alg: tuple[float, ...]
    i_geom: tuple[float, ...]
    converged: bool

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
) -> tuple[AdditiveMatrix, ScoreVector]:
    """Frobenius-nearest consistent matrix and its generating scores.

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
    Failure to converge within max_steps is reported through the
    ``converged`` flag, not as an error.
    """
    n = a.n
    if eta is None:
        eta = 1.0 / n
    if not eta > 0:
        raise NonPositiveStepError(f"step size must be positive, got {eta!r}")
    if lam < 0:
        raise NonPositiveLambdaError(
            f"regularization weight must be nonnegative, got {lam!r}"
        )
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if not tol > 0:
        raise ValueError("tolerance must be positive")

    _, residual = recover_scores(a)
    r_sq = float(np.dot(residual.upper, residual.upper))
    q = 1.0 - eta * (n + lam)
    # A divergent run overflows to inf: float products do not raise.
    i_alg = [n * r_sq]
    while i_alg[-1] > tol and len(i_alg) <= max_steps:
        i_alg.append(i_alg[-1] * (q * q))
    i_geom = (n * n * r_sq, *(n * v for v in i_alg[1:]))
    return ReductionTrajectory(
        a, residual, q, tuple(i_alg), i_geom, converged=i_alg[-1] <= tol
    )


def nearest_consistent_oracle(
    a: AdditiveMatrix, grid_radius: float, grid_steps: int
) -> AdditiveMatrix:
    """Brute-force nearest consistent matrix over a score grid.

    Exhaustively evaluates every score vector on a uniform grid of
    half-width grid_radius per axis centred at the row-mean scores and
    returns the score-difference matrix closest in Frobenius norm. Only
    n = 3 and n = 4 are supported; cost grows as grid_steps**n.
    """
    if a.n not in (3, 4):
        raise UnsupportedSizeError(
            f"grid oracle supports n = 3 or 4, got n = {a.n}"
        )
    if grid_steps < 11:
        raise ValueError("grid_steps must be at least 11")
    if not grid_radius > 0:
        raise ValueError("grid_radius must be positive")
    center, _ = recover_scores(a)
    axes = [
        np.linspace(c - grid_radius, c + grid_radius, grid_steps)
        for c in center.values
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    dist_sq = np.zeros(grids[0].shape)
    rows, cols = np.triu_indices(a.n, k=1)
    for value, i, j in zip(a.upper, rows, cols):
        dist_sq += (value - (grids[i] - grids[j])) ** 2
    best = np.unravel_index(np.argmin(dist_sq), dist_sq.shape)
    scores = np.array([axis[idx] for axis, idx in zip(axes, best)])
    return from_scores(scores)
