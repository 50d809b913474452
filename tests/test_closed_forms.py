"""Differential tests: each closed-form or arithmetic kernel against the
enumerative path it replaced, written out here as the oracle."""

import csv
import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcgeom import (
    TooSmallError,
    algebraic_inconsistency,
    all_triad_deviations,
    closed_form_diagnosis,
    coupling_coefficients,
    custom_embedding,
    evaluate,
    evaluation_columns,
    geometric_inconsistency,
    is_consistent,
    is_decomposable,
    matrix_form,
    max_abs_triad_deviation,
    new_additive,
    new_two_vector,
    orthogonal_embedding,
    pair_wedges,
    planar_embedding,
    planar_matrix_inconsistency,
    planar_pair_wedges,
    quad_residuals,
    recover_scores,
    reduce_iterative,
    residuals_decomposable,
    wedge,
)
from pcgeom import coupling, indexing
from pcgeom import io as pio
from pcgeom.cli import main

import oracles
from oracles import plain, records


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
    d = all_triad_deviations(a)
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


def test_descent_splits_the_input_once(monkeypatch):
    from pcgeom import reduction

    calls = []

    def counted(a):
        calls.append(a.n)
        return recover_scores(a)

    monkeypatch.setattr(reduction, "recover_scores", counted)
    rng = np.random.default_rng(11)
    raw = np.triu(rng.normal(size=(20, 20)), 1)
    trajectory = reduce_iterative(
        new_additive(raw - raw.T), eta=1e-3, max_steps=500
    )
    assert len(records(trajectory)) == len(trajectory.steps) == 501
    assert trajectory.final.n == trajectory.steps[250].matrix.n == 20
    assert calls == [20]


def test_descent_memory_is_order_pairs_not_steps():
    n = 400
    rng = np.random.default_rng(4)
    raw = np.triu(rng.normal(size=(n, n)), 1)
    a = new_additive(raw - raw.T)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        trajectory = reduce_iterative(a, eta=1e-5, max_steps=1000)
        assert len(records(trajectory)) == len(trajectory.steps) == 1001
        assert trajectory.final.n == n
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Keeping every step's matrix held 1001 times 8 C(n,2) bytes; the
    # bound allows ten.
    assert peak < 10 * 8 * math.comb(n, 2)


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
    if n < 3:
        with pytest.raises(TooSmallError):
            coupling_coefficients(n)
        return
    cmap = coupling_coefficients(n)
    ij, jk, ik = cmap.ij_pos, cmap.jk_pos, cmap.ik_pos
    assert ij.tolist() == [pos[(i, j)] for i, j, _ in triads]
    assert jk.tolist() == [pos[(j, k)] for _, j, k in triads]
    assert ik.tolist() == [pos[(i, k)] for i, _, k in triads]


@pytest.mark.parametrize("n", range(2, 13))
def test_arithmetic_quad_table_matches_combinations(n):
    # The quad walk finds the six pair positions of each quad by arithmetic
    # on the triad columns; the oracle looks them up by combinations.
    rng = np.random.default_rng(n)
    p = new_two_vector(n, rng.normal(size=math.comb(n, 2)))
    quads, values = quad_residuals(p)
    want_quads, want_values = oracle_quad_residuals(p)
    assert quads.tolist() == want_quads
    assert bits(values) == bits(want_values)


def test_quad_table_blocks_join_at_every_row():
    # The table is filled one lead at a time; at n = 12 nine lead runs join.
    p = new_two_vector(12, np.random.default_rng(12).normal(size=66))
    quads, values = quad_residuals(p)
    want_quads, want_values = oracle_quad_residuals(p)
    assert quads.dtype == np.intp
    assert quads.tolist() == want_quads
    assert bits(values) == bits(want_values)


def labels(n, r):
    """The 1-based r-subsets of 1..n, one row each, from the positions."""
    return np.column_stack(indexing.unranker(n, r)(np.arange(math.comb(n, r)))) + 1


@pytest.mark.parametrize("n", range(2, 13))
def test_labels_match_combinations(n):
    pairs = [(i + 1, j + 1) for i, j in combinations(range(n), 2)]
    triads = [(i + 1, j + 1, k + 1) for i, j, k in combinations(range(n), 3)]
    quads = [[x + 1 for x in q] for q in combinations(range(n), 4)]
    assert labels(n, 2).tolist() == [list(p) for p in pairs]
    assert labels(n, 3).tolist() == [list(t) for t in triads]
    assert labels(n, 4).tolist() == quads


@pytest.mark.parametrize("r", range(1, 5))
@pytest.mark.parametrize("n", range(0, 13))
def test_members_match_combinations_at_every_position(n, r):
    # n < r has no subset: every place is an empty array.
    want = list(combinations(range(n), r))
    got = indexing.unranker(n, r)(np.arange(len(want)))
    assert len(got) == r
    assert all(place.dtype == np.intp for place in got)
    assert list(zip(*(place.tolist() for place in got))) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(4, 24), st.data())
def test_members_of_a_run_of_positions_match_combinations(r, n, data):
    # Runs start anywhere and may cross many lead boundaries; the run is
    # given as a sorted array, and a shuffled copy unranks alike.
    want = list(combinations(range(n), r))
    start = data.draw(st.integers(0, len(want) - 1))
    stop = data.draw(st.integers(start, len(want)))
    positions = np.arange(start, stop)
    got = indexing.unranker(n, r)(positions)
    assert list(zip(*(place.tolist() for place in got))) == want[start:stop]
    shuffled = np.random.default_rng(stop).permutation(positions)
    got = indexing.unranker(n, r)(shuffled)
    assert list(zip(*(place.tolist() for place in got))) == [want[p] for p in shuffled]


def test_unranker_builds_its_tables_once(monkeypatch):
    # A stream of calls reuses the per-level tables of its first.
    built = []
    lead_starts = indexing.lead_starts
    monkeypatch.setattr(indexing, "lead_starts",
                        lambda n, r: built.append(r) or lead_starts(n, r))
    unrank = indexing.unranker(30, 4)
    assert built == [5, 4, 3]
    blocks = [unrank(np.arange(k, min(k + 1000, 27405))) for k in range(0, 27405, 1000)]
    assert built == [5, 4, 3]
    want = indexing.unranker(30, 4)(np.arange(27405))
    assert all(np.array_equal(np.concatenate(b), w) for b, w in zip(zip(*blocks), want))


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("n", range(0, 13))
def test_lead_blocks_laid_end_to_end_are_the_unranked_table(n, r):
    # Lead i's block is i followed by the (r-1)-sets of its slice, and the
    # pair (i, j) of each set's first member j sits at pos(i, 0) + j.
    pos = {pair: idx for idx, pair in enumerate(combinations(range(n), 2))}
    tails = np.column_stack(indexing.unranker(n, r - 1)(np.arange(math.comb(n, r - 1))))
    blocks = [np.empty((0, r), dtype=np.intp)]
    for i, (base, tail) in enumerate(indexing.by_lead(n, r)):
        members = tails[tail]
        assert (base + members[:, 0]).tolist() == [pos[(i, j)] for j in members[:, 0]]
        blocks.append(np.column_stack([np.full(len(members), i), members]))
    assert len(blocks) == 1 + max(n - r + 1, 0)
    want = np.column_stack(indexing.unranker(n, r)(np.arange(math.comb(n, r))))
    assert np.concatenate(blocks).tolist() == want.tolist()


@pytest.mark.parametrize("n", range(0, 13))
def test_triad_pairs_are_the_pair_positions_of_the_unranked_triads(n):
    i, j, k = indexing.unranker(n, 3)(np.arange(math.comb(n, 3)))
    got = indexing.triad_pairs(n)
    assert got.shape == (3, math.comb(n, 3))
    assert got.dtype == np.intp
    assert got.tolist() == [
        indexing.pair_index(n, *pair).tolist() for pair in ((i, j), (j, k), (i, k))
    ]


def test_incidence_memory_is_its_table():
    # The table is filled one lead at a time; unranking every triad first
    # held 2.3 times the table.
    tracemalloc.start()
    try:
        cmap = coupling_coefficients(300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 3 * cmap.ij_pos.nbytes


@pytest.mark.parametrize("n", range(0, 13))
def test_triad_lead_starts_are_pair_positions(n):
    # The triads led by i start with the pair (i+1, i+2).
    starts = indexing.lead_starts(n, 3)
    assert starts.tolist() == [indexing.pair_index(n, i + 1, i + 2)
                               for i in range(n)]


def test_tables_are_read_only():
    cmap = coupling_coefficients(6)
    for arr in (cmap.ij_pos, cmap.jk_pos, cmap.ik_pos):
        assert not arr.flags.writeable


# ----------------------------------------------------------------- triad scan


def gathered_deviations(a):
    """The scan ``check`` and ``all_triad_deviations`` made before the
    per-lead kernel: one gather through the three C(n,3) index tables."""
    i, j, k = np.array(list(combinations(range(a.n), 3)), dtype=np.intp).reshape(-1, 3).T
    ij, jk, ik = (indexing.pair_index(a.n, *p) for p in ((i, j), (j, k), (i, k)))
    return a.upper[ij] + a.upper[jk] - a.upper[ik]


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(additive_matrices(max_n=12), st.sampled_from([1.0, 1e154, 1e307]))
def test_per_lead_scan_is_bit_identical_to_table_gather(a, scale):
    # At the largest scales some sums overflow to inf or nan; both scans
    # must still agree bit for bit.
    a = new_additive(a.to_array() * scale)
    with np.errstate(over="ignore", invalid="ignore"):
        want = gathered_deviations(a)
        got = all_triad_deviations(a)
        got_max = max_abs_triad_deviation(a)
        want_max = float(np.max(np.abs(want))) if want.size else 0.0
    assert bits(got) == bits(want)
    assert bits(got_max) == bits(want_max)


def test_triad_scan_of_two_alternatives_is_empty():
    a = new_additive([[0.0, 4.0], [-4.0, 0.0]])
    assert max_abs_triad_deviation(a) == 0.0
    values = all_triad_deviations(a)
    assert values.shape == (0,)
    assert not values.flags.writeable


def test_verdicts_build_no_triad_tables(monkeypatch, capsys, cli_inputs):
    def refuse(n):
        raise AssertionError("triad index tables built")

    monkeypatch.setattr(coupling, "coupling_coefficients", refuse)
    monkeypatch.setattr(indexing, "triad_pairs", refuse)
    matrix = str(cli_inputs / "a.csv")
    for argv in (["check", matrix], ["twoform", matrix]):
        report = json.loads(run_cli(capsys, argv))
        assert report["consistent"] is False
    a = pio.read_matrix(matrix)
    assert not is_consistent(a)
    assert max_abs_triad_deviation(a) > 0.0


def test_max_abs_scan_memory_is_order_pairs_not_triads():
    n = 300
    rng = np.random.default_rng(3)
    raw = np.triu(rng.normal(size=(n, n)), 1)
    a = new_additive(raw - raw.T)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        max_abs_triad_deviation(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The table gather held 8 C(n,3) bytes of deviations alone, (n-2)/3 = 99
    # times 8 C(n,2); the bound allows ten.
    assert peak < 10 * 8 * math.comb(n, 2)


# ------------------------------------------------------------------ quad walk


def oracle_quad_residuals(p):
    """The quads and residuals the deleted C(n,4) quad table gave: each
    pair position looked up in a dict over the lexicographic pairs."""
    pos = {pair: idx for idx, pair in enumerate(combinations(range(p.n), 2))}
    quads = list(combinations(range(p.n), 4))
    q = p.coords
    a, b, c, d, e, f = (
        np.array([pos[(quad[x], quad[y])] for quad in quads], dtype=np.intp)
        for x, y in [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    )
    values = q[a] * q[b] - q[c] * q[d] + q[e] * q[f]
    return [[x + 1 for x in quad] for quad in quads], values


@st.composite
def two_vectors(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        # A wedge, so that some inputs are decomposable; its minors stay
        # within 10 like the raw coordinates.
        floats = st.floats(-2, 2, allow_nan=False)
        u, v = (draw(st.lists(floats, min_size=n, max_size=n)) for _ in "uv")
        return wedge(u, v)
    floats = st.floats(-10, 10, allow_nan=False)
    size = math.comb(n, 2)
    return new_two_vector(n, draw(st.lists(floats, min_size=size, max_size=size)))


@settings(max_examples=200, deadline=None)
@given(two_vectors(), st.sampled_from([1.0, 1e154, 1e307]))
def test_quad_walk_is_bit_identical_to_quad_table(p, scale):
    # At the largest scales some products overflow to inf and some
    # residuals to nan; the walk must still agree bit for bit.
    p = new_two_vector(p.n, p.coords * scale)
    with np.errstate(over="ignore", invalid="ignore"):
        quads, values = quad_residuals(p)
        want_quads, want_values = oracle_quad_residuals(p)
        verdicts = [
            (is_decomposable(p, tol), residuals_decomposable(p, want_values, tol))
            for tol in (1e-15, 1e-9, 1e-3, 10.0)
        ]
    assert quads.tolist() == want_quads
    assert bits(values) == bits(want_values)
    for got, want in verdicts:
        assert got == want


def test_decomposable_verdict_memory_is_order_triads_not_quads():
    n = 60
    rng = np.random.default_rng(6)
    p = wedge(rng.normal(size=n), rng.normal(size=n))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert is_decomposable(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The quad table held ten C(n,4)-long index arrays, 80 C(n,4) bytes or
    # (n-3)/4 * 10 = 142 times 8 C(n,3); the bound allows sixteen.
    assert peak < 16 * 8 * math.comb(n, 3)


def test_quad_table_memory_is_about_its_result():
    # The table is filled one lead at a time; stacking four whole C(n,4)
    # member columns held them next to the table they filled.
    n = 60
    p = new_two_vector(n, np.random.default_rng(6).normal(size=math.comb(n, 2)))
    tracemalloc.start()
    try:
        quads, values = quad_residuals(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < quads.nbytes + values.nbytes + 2 * 8 * math.comb(n, 4)


@pytest.mark.parametrize("n", range(4, 13))
def test_squared_quad_residuals_sum_to_e2_of_squared_youla_values(n):
    # Ishikawa and Wakayama (1995): the squared Pfaffians of the 4 x 4
    # principal minors of a skew matrix P sum to e2 of its squared Youla
    # values, the singular values of P taken once from each equal pair.
    rng = np.random.default_rng(n)
    rows, cols = np.triu_indices(n, 1)
    for _ in range(18):
        p = new_two_vector(n, rng.normal(size=math.comb(n, 2)))
        skew = np.zeros((n, n))
        skew[rows, cols] = p.coords
        skew[cols, rows] = -p.coords
        squares = np.linalg.svd(skew, compute_uv=False)[::2] ** 2
        e2 = np.sum(np.triu(np.outer(squares, squares), 1))
        _, values = quad_residuals(p)
        assert np.sum(values**2) == pytest.approx(e2, rel=1e-12, abs=0)


def test_repeated_quad_walks_retain_no_memory():
    rng = np.random.default_rng(7)

    def walk_all(dims):
        for n in dims:
            p = new_two_vector(n, rng.normal(size=math.comb(n, 2)))
            is_decomposable(p)
            quad_residuals(p)

    tracemalloc.start()
    try:
        # A first pass fills numpy's bounded pools of small blocks; its
        # dimensions differ from the measured pass, so no table built for
        # one could serve the other.
        walk_all(range(6, 43, 4))
        baseline, _ = tracemalloc.get_traced_memory()
        walk_all(range(8, 41, 4))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Cached quad tables for n = 8..40 kept 80 sum C(n,4) bytes, 18 MB.
    assert retained - baseline < 16 * 1024


# ------------------------------------------------------------------ diagnose


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("lam", [0.0, 1e-12, 0.5])
def test_closed_form_spectrum_matches_dense_eigh(n, lam):
    # eigh rounds the zero eigenvalues to within 5e-15 at n <= 8; a relative
    # tolerance of 1e-14 sits above that and below lam = 1e-12, which the
    # exact rank counts.
    want = oracles.dense_spectral_report(n, lam, rank_tol=1e-14)
    got = closed_form_diagnosis(n, lam)
    assert list(got) == list(want)
    np.testing.assert_allclose(
        got.pop("eigenvalues"), want.pop("eigenvalues"), rtol=0, atol=1e-9 * n
    )
    assert got == want


def pinned_report(n, lam):
    # The eigenvalues are exact, so any lambda > 0 fills the rank, however
    # small; lambda = 0 leaves the image dimension (n-1)(n-2)/2.
    t_count, image = math.comb(n, 3), (n - 1) * (n - 2) // 2
    rank = t_count if lam > 0 else image
    return {
        "rank": rank,
        "T": t_count,
        "degenerate": rank < t_count,
        "eigenvalues": [n + lam] * image + [lam] * (t_count - image),
        "kernel_dim": t_count - rank,
    }


@pytest.mark.parametrize("lam", [0.0, 1e-300, 1e-12, 0.5])
@pytest.mark.parametrize("rank_tol", [1e-9, 0.5])
def test_closed_form_report_is_pinned(capsys, tmp_path, lam, rank_tol):
    for n in range(3, 65):
        got = closed_form_diagnosis(n, lam)
        assert got == pinned_report(n, lam)
        assert all(type(v) is float for v in got["eigenvalues"])
        assert type(got["rank"]) is int and type(got["kernel_dim"]) is int
    # diagnose --tol once set a relative rank threshold on the eigenvalues;
    # it now only checks the input, so no tolerance moves the report.
    for n in (3, 4, 9):
        path = tmp_path / f"m{n}.csv"
        path.write_text(
            "\n".join(",".join(str(j - i) for j in range(n)) for i in range(n))
        )
        argv = ["diagnose", str(path), "--tol", str(rank_tol), "--lambda", str(lam)]
        report = json.loads(run_cli(capsys, argv))
        assert {k: report[k] for k in pinned_report(n, lam)} == pinned_report(n, lam)


def test_closed_form_spectrum_keeps_dense_limits():
    with pytest.raises(ValueError, match="capped"):
        closed_form_diagnosis(65)
    with pytest.raises(TooSmallError):
        closed_form_diagnosis(2)


# ------------------------------------------------------------- embeddings


def enumerated_geometric_index(vectors, convention):
    """Sum over triads of |w_ij + w_jk -+ w_ik|^2 from explicit wedges."""
    n = len(vectors)
    w = {
        (i, j): wedge(vectors[i], vectors[j]).coords
        for i, j in combinations(range(n), 2)
    }
    sign = -1.0 if convention == "cyclic" else 1.0
    total = 0.0
    for i, j, k in combinations(range(n), 3):
        dev = w[(i, j)] + w[(j, k)] + sign * w[(i, k)]
        total += float(np.dot(dev, dev))
    return total


@st.composite
def embeddings(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    if draw(st.booleans()):
        b = draw(
            st.lists(
                st.floats(0.1, 10) | st.floats(-10, -0.1),
                min_size=n,
                max_size=n,
            )
        )
        return orthogonal_embedding(b)
    values = draw(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=n * n, max_size=n * n)
    )
    return custom_embedding(np.reshape(values, (n, n)))


@settings(max_examples=200, deadline=None)
@given(embeddings(), st.sampled_from(["cyclic", "anticyclic"]))
def test_hodge_geometric_index_matches_enumerated_triads(e, convention):
    want = enumerated_geometric_index(e.vectors, convention)
    got = geometric_inconsistency(e, convention)
    w = pair_wedges(e.vectors)
    assert got >= 0.0
    assert close(got, want, e.n * float(np.sum(w * w)))


@st.composite
def wide_embeddings(draw):
    """Custom, orthogonal and planar embeddings with n from 3 to 40 at
    scales 1e-3, 1 and 1e3, and custom ones whose vectors are all nearly
    parallel: multiples of one direction plus a perturbation 1e-2 or 1e-3
    times smaller. Closer to parallel, the oracle's own anticyclic form
    loses digits at n = 3 (see test_embedding)."""
    n = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(["custom", "orthogonal", "planar", "parallel"]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "orthogonal":
        signs = rng.choice([-1.0, 1.0], size=n)
        return orthogonal_embedding(signs * rng.uniform(0.1, 10, size=n) * scale)
    if kind == "planar":
        return planar_embedding(rng.normal(size=n) * scale)
    vectors = rng.normal(size=(n, n))
    if kind == "parallel":
        eps = draw(st.sampled_from([1e-2, 1e-3]))
        vectors = np.outer(rng.normal(size=n), rng.normal(size=n)) + eps * vectors
    return custom_embedding(vectors * scale)


@settings(max_examples=200, deadline=None)
@given(wide_embeddings(), st.sampled_from(["cyclic", "anticyclic"]))
def test_geometric_index_matches_pair_wedge_matrix(e, convention):
    """The singular-value kernel against the C(n,2) x C(n,2) pair-wedge
    form it replaced, to a relative 1e-9 (both give exactly 0.0 for the
    planar cyclic index)."""
    want = oracles.geometric_index_w(e.vectors, convention)
    got = geometric_inconsistency(e, convention)
    assert abs(got - want) <= 1e-9 * want


@settings(max_examples=100, deadline=None)
@given(embeddings())
def test_batched_pair_wedges_are_bit_identical_to_wedge(e):
    got = pair_wedges(e.vectors)
    for p, (i, j) in enumerate(combinations(range(e.n), 2)):
        assert got[p].tobytes() == wedge(e.vectors[i], e.vectors[j]).coords.tobytes()


@settings(max_examples=100, deadline=None)
@given(additive_matrices())
def test_batched_planar_wedges_are_bit_identical_to_wedge(a):
    base = np.zeros(a.n)
    base[1] = 1.0
    got = planar_pair_wedges(a)
    assert got.shape == (a.upper.size, a.upper.size)
    for row, value in zip(got, a.upper):
        u = base.copy()
        u[0] = value
        assert row.tobytes() == wedge(u, base).coords.tobytes()


@settings(max_examples=100, deadline=None)
@given(additive_matrices())
def test_evaluation_table_matches_per_pair_evaluate(a):
    form, emb = matrix_form(a)
    omega, entry, abs_error = evaluation_columns(a)
    assert omega.shape == entry.shape == abs_error.shape == (a.upper.size,)
    pairs = labels(a.n, 2).tolist()
    for (i, j), o, e, err, stored in zip(pairs, omega, entry, abs_error, a.upper):
        want = evaluate(form, emb.vector(i), emb.vector(j))
        assert close(o, want, abs(want))
        assert e == stored
        assert err == abs(o - e)


def product_evaluation(a):
    """omega as the 2-form rows computed it before they read the Hodge
    split: the upper triangle of one V P V^T product."""
    form, emb = matrix_form(a)
    v = emb.vectors
    rows, cols = np.triu_indices(a.n, k=1)
    return (v @ form.matrix_view @ v.T)[rows, cols]


@settings(max_examples=200, deadline=None)
@given(additive_matrices(max_n=12), st.sampled_from([1e-3, 1.0, 1e7]))
def test_evaluation_table_matches_form_product(a, scale):
    a = new_additive(a.to_array() * scale)
    omega = product_evaluation(a)
    got, _, abs_error = evaluation_columns(a)
    np.testing.assert_array_equal(got, omega)
    np.testing.assert_array_equal(abs_error, np.abs(omega - a.upper))


def test_csv_parse_memory_is_order_of_the_grid(tmp_path):
    n = 300
    rng = np.random.default_rng(4)
    raw = np.triu(rng.normal(size=(n, n)), 1)
    path = tmp_path / "a.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows((raw - raw.T).tolist())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        a = pio.read_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.n == n
    # Holding every cell as a string until the end took 14.6 times the
    # 8 n^2 bytes of the grid; row-by-row parsing and validation take 4.
    assert peak < 6 * 8 * n * n


# ------------------------------------------------------------------ reports


def old_dump_json(doc, dest):
    """The writer reports had before they went compact: the stdlib's
    pure-Python encoder, indented."""
    json.dump(doc, dest, allow_nan=False, indent=2)
    dest.write("\n")


@pytest.fixture
def cli_inputs(tmp_path):
    rng = np.random.default_rng(17)
    n = 6
    raw = np.triu(rng.normal(size=(n, n)), 1)
    matrix = tmp_path / "a.csv"
    with open(matrix, "w", newline="") as fh:
        csv.writer(fh).writerows((raw - raw.T).tolist())
    files = {
        "a.csv": matrix,
        "uv.json": {"u": rng.normal(size=n).tolist(), "v": rng.normal(size=n).tolist()},
        "p.json": {"n": n, "coords": rng.normal(size=n * (n - 1) // 2).tolist()},
        "e.json": {"n": n, "vectors": rng.normal(size=(n, n)).tolist()},
    }
    for name, doc in files.items():
        if isinstance(doc, dict):
            (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


SUBCOMMANDS = [
    ["check", "a.csv"],
    ["convert", "a.csv"],
    ["indices", "a.csv"],
    ["indices", "a.csv", "--embedding", "orthogonal", "--convention", "anticyclic"],
    ["indices", "a.csv", "--embedding", "custom", "--embedding-file", "e.json"],
    ["deviations", "a.csv"],
    ["embed", "a.csv"],
    ["embed", "a.csv", "--embedding", "orthogonal"],
    ["embed", "a.csv", "--embedding", "custom", "--embedding-file", "e.json"],
    ["wedge", "uv.json"],
    ["plucker", "uv.json"],
    ["plucker", "p.json"],
    ["diagnose", "a.csv"],
    ["diagnose", "a.csv", "--lambda", "0.5"],
    ["reduce", "a.csv", "--eta", "0.05"],
    ["twoform", "a.csv"],
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code in (0, 1)
    return captured.out


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
def test_compact_report_parses_like_indented_one(
    capsys, monkeypatch, cli_inputs, argv
):
    monkeypatch.chdir(cli_inputs)
    compact = run_cli(capsys, argv)
    assert compact.endswith("\n") and compact.count("\n") == 1
    monkeypatch.setattr(
        pio, "_write_json", lambda doc, dest: old_dump_json(plain(doc), dest)
    )
    indented = run_cli(capsys, argv)
    assert indented.count("\n") > 1
    assert json.loads(compact) == json.loads(indented)
    # Re-encoding both parses compares every float bit for bit, -0.0 too.
    assert json.dumps(json.loads(compact)) == json.dumps(json.loads(indented))


@pytest.mark.parametrize(
    "argv",
    [[*argv, "--format", fmt] for argv in SUBCOMMANDS for fmt in ("json", "csv")]
    + [["reduce", "a.csv", "--eta", "0.05", "--format", "jsonl"]],
    ids=" ".join,
)
def test_output_bytes_match_plain_writers(capsys, monkeypatch, cli_inputs, argv):
    # The old writers, given the plain dicts and lists, wrote these bytes.
    monkeypatch.chdir(cli_inputs)
    streamed = run_cli(capsys, argv)
    for name, writer in oracles.WRITERS.items():
        monkeypatch.setattr(pio, name, writer)
    assert run_cli(capsys, argv) == streamed


@pytest.mark.parametrize(
    "argv", SUBCOMMANDS + [["reduce", "a.csv", "--format", "jsonl"]], ids=" ".join
)
def test_nan_in_any_report_exits_two_with_one_line(
    capsys, monkeypatch, cli_inputs, argv
):
    monkeypatch.chdir(cli_inputs)
    write = pio._write_json
    monkeypatch.setattr(
        pio, "_write_json", lambda doc, dest: write({**doc, "x": math.nan}, dest)
    )
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("pcgeom: error: ")
    assert captured.err.count("\n") == 1
    assert "not finite" in captured.err


@pytest.mark.parametrize(
    "fmt, reason",
    # The eigenvalue list is capped by n; the grid by its C(n,3)^2 entries.
    [("json", "capped at n=64"), ("csv", "C(65,3)^2 = 1907942400 entries")],
    ids=["json", "csv"],
)
def test_diagnose_above_dense_cap_exits_two(capsys, tmp_path, fmt, reason):
    path = tmp_path / "a65.csv"
    path.write_text("\n".join(",".join(["0"] * 65) for _ in range(65)) + "\n")
    assert main(["diagnose", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name", ["uv.json", "p.json"])
def test_plucker_report_matches_library_residuals(capsys, cli_inputs, name):
    doc = json.loads((cli_inputs / name).read_text())
    if "u" in doc:
        p = wedge(doc["u"], doc["v"])
    else:
        p = new_two_vector(doc["n"], doc["coords"])
    report = json.loads(run_cli(capsys, ["plucker", str(cli_inputs / name)]))
    quads, values = quad_residuals(p)
    assert [r["quad"] for r in report["residuals"]] == quads.tolist()
    assert [r["value"] for r in report["residuals"]] == values.tolist()
    assert report["max_abs_residual"] == np.max(np.abs(values), initial=0.0)
    assert report["decomposable"] == is_decomposable(p)
