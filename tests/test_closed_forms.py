"""Differential tests: each closed-form or arithmetic kernel against the
enumerative path it replaced, written out here as the oracle."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcgeom import (
    algebraic_inconsistency,
    all_triad_deviations,
    coupling_coefficients,
    new_additive,
    planar_matrix_inconsistency,
    reduce_iterative,
)
from pcgeom import indexing


@st.composite
def additive_matrices(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    upper = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    raw = np.zeros((n, n))
    raw[np.triu_indices(n, k=1)] = upper
    return new_additive(raw - raw.T)


def close(got, want, scale):
    return abs(got - want) <= 1e-9 * max(1.0, scale)


# --------------------------------------------------------------- inconsistency


@settings(max_examples=200, deadline=None)
@given(additive_matrices())
def test_closed_form_i_alg_matches_enumerated_deviations(a):
    d = all_triad_deviations(a).values
    want = float(np.sum(d * d))
    assert close(algebraic_inconsistency(a), want, float(np.dot(a.upper, a.upper)))


def explicit_planar_sum(a, convention):
    full = a.to_array()
    total = 0.0
    for i, j, k in combinations(range(a.n), 3):
        if convention == "cyclic":
            lead = full[i, j] + full[j, k] - full[i, k]
        else:
            lead = full[i, j] + full[j, k] + full[i, k]
        total += lead * lead
    return total


@settings(max_examples=200, deadline=None)
@given(additive_matrices(), st.sampled_from(["cyclic", "anticyclic"]))
def test_planar_closed_forms_match_per_triad_lead_sums(a, convention):
    want = explicit_planar_sum(a, convention)
    got = planar_matrix_inconsistency(a, convention)
    assert got >= 0.0
    assert close(got, want, a.n * float(np.dot(a.upper, a.upper)))


# -------------------------------------------------------------------- descent


def sparse_descent(a, lam, eta, max_steps, tol):
    """The enumerative update: deviations through the sparse incidence."""
    n = a.n
    cmap = coupling_coefficients(n)
    upper = a.upper.copy()

    def state(upper):
        d = cmap.apply_transpose(upper)
        image = cmap.apply(d)
        return d, float(np.dot(d, d)), float(np.dot(image, image))

    d, i_alg, i_geom = state(upper)
    records = [(i_alg, i_geom)]
    uppers = [upper]
    while i_alg > tol and len(records) <= max_steps:
        if lam == 0.0:
            upper = upper - eta * cmap.apply(d)
        else:
            md = cmap.apply_transpose(cmap.apply(d)) + lam * d
            upper = upper - (eta / n) * cmap.apply(md)
        d, i_alg, i_geom = state(upper)
        records.append((i_alg, i_geom))
        uppers.append(upper)
    return records, uppers, i_alg <= tol


@settings(max_examples=150, deadline=None)
@given(
    additive_matrices(min_n=3),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.1, 0.5, 1.0, 1.5, 1.9]),
)
def test_descent_matches_sparse_incidence_update(a, lam, eta_scale):
    eta = eta_scale / (a.n + lam)  # 0 < eta < 2 / (n + lam)
    tol = 1e-12
    want, uppers, converged = sparse_descent(a, lam, eta, max_steps=40, tol=tol)
    # A record within rounding of the tolerance could stop either run.
    assume(all(abs(i_alg - tol) > 1e-6 * tol for i_alg, _ in want))
    trajectory = reduce_iterative(a, lam=lam, eta=eta, max_steps=40, tol=tol)
    assert trajectory.converged == converged
    assert len(trajectory.steps) == len(want)
    scale = want[0][0]
    for step, (i_alg, i_geom), upper in zip(trajectory.steps, want, uppers):
        assert close(step.i_alg, i_alg, scale)
        assert close(step.i_geom, i_geom, a.n * a.n * scale)
        np.testing.assert_allclose(
            step.matrix.upper, upper, rtol=0, atol=1e-9 * max(1.0, scale)
        )


# --------------------------------------------------------------------- tables


@pytest.mark.parametrize("n", range(2, 13))
def test_arithmetic_pair_index_matches_dict(n):
    pos = {pair: idx for idx, pair in enumerate(combinations(range(n), 2))}
    for (i, j), idx in pos.items():
        assert indexing.pair_index(n, i, j) == idx


@pytest.mark.parametrize("n", range(2, 13))
def test_arithmetic_triad_table_matches_combinations(n):
    pos = {pair: idx for idx, pair in enumerate(combinations(range(n), 2))}
    triads = list(combinations(range(n), 3))
    ij, jk, ik = indexing.triad_pair_positions(n)
    assert ij.tolist() == [pos[(i, j)] for i, j, _ in triads]
    assert jk.tolist() == [pos[(j, k)] for _, j, k in triads]
    assert ik.tolist() == [pos[(i, k)] for i, _, k in triads]


@pytest.mark.parametrize("n", range(2, 13))
def test_arithmetic_quad_table_matches_combinations(n):
    pos = {pair: idx for idx, pair in enumerate(combinations(range(n), 2))}
    quads = list(combinations(range(n), 4))
    got_quads, cols = indexing.quad_pair_positions(n)
    assert got_quads.shape == (len(quads), 4)
    assert [tuple(q) for q in got_quads.tolist()] == quads
    slots = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    for col, (x, y) in zip(cols, slots):
        assert col.tolist() == [pos[(q[x], q[y])] for q in quads]


def test_tables_are_read_only():
    for arr in indexing.triad_pair_positions(6):
        assert not arr.flags.writeable
    quads, cols = indexing.quad_pair_positions(6)
    assert not quads.flags.writeable
    assert all(not c.flags.writeable for c in cols)
