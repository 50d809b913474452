"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line with its headline numbers
once its assertions hold (run with ``pytest -v -s`` to see them). Random
checks use fixed seeds so the suite is reproducible.
"""

import csv
import json
import math
import time

import numpy as np

from pcgeom import (
    algebraic_inconsistency,
    all_triad_deviations,
    closed_form_diagnosis,
    coupling_coefficients,
    evaluation_columns,
    from_scores,
    geometric_inconsistency,
    gram_rows,
    is_consistent,
    max_abs_triad_deviation,
    new_additive,
    new_two_vector,
    planar_embedding,
    planar_matrix_inconsistency,
    project_consistent,
    quad_residuals,
    reduce_iterative,
    to_additive,
    to_multiplicative,
    wedge,
)
from pcgeom.cli import main

from oracles import dense_M, dense_spectral_report, nearest_consistent_oracle

CONSISTENT_3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
INCONSISTENT_3 = [[0, 1, 3], [-1, 0, 1], [-3, -1, 0]]


def report(line):
    print(f"PASS {line}")


def random_additive(rng, n, scale=4.0):
    raw = np.triu(rng.uniform(-scale, scale, size=(n, n)), k=1)
    return new_additive(raw - raw.T)


def test_criterion_01_worked_example_regression():
    """Validation, consistency, exp/log conversion and round trip."""

    def exercise():
        a = new_additive(CONSISTENT_3, tol=1e-9)
        max_dev = max_abs_triad_deviation(a)
        m = to_multiplicative(a)
        back = to_additive(m)
        return a, max_dev, m, back

    exercise()  # warm caches so the timing reflects the operations
    start = time.perf_counter()
    a, max_dev, m, back = exercise()
    elapsed = time.perf_counter() - start

    assert max_dev == 0.0
    assert is_consistent(a, tol=1e-9)
    e = math.e
    expected = np.array([[1, e, 1], [1 / e, 1, 1 / e], [1, e, 1]])
    assert np.max(np.abs(m.entries - expected)) <= 1e-15
    assert np.max(np.abs(back.to_array() - a.to_array())) <= 1e-12
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    report(
        f"criterion 1: worked example validates, max|dev| = 0, conversion "
        f"within 1e-15, round trip ok ({elapsed * 1e6:.0f} us)"
    )


def test_criterion_02_basis_wedge_exact():
    w = wedge([1, 0, 0], [0, 1, 0])
    assert w.coords.tolist() == [1.0, 0.0, 0.0]
    report("criterion 2: wedge(e1, e2) = (1, 0, 0) exactly")


def test_criterion_03_plucker_relations_bulk():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    total = 0
    worst = 0.0
    for n in (4, 5, 6, 7, 8):
        for _ in range(2000):
            w = wedge(rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))
            rel = np.max(np.abs(quad_residuals(w)[1])) / max(1.0, w.norm_squared())
            worst = max(worst, rel)
            assert rel <= 1e-9
            total += 1
    elapsed = time.perf_counter() - start
    assert total == 10_000

    witness = new_two_vector(4, [1, 0, 0, 0, 0, 1])
    quads, values = quad_residuals(witness)
    assert values[quads.tolist().index([1, 2, 3, 4])] == 1.0
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    report(
        f"criterion 3: 10000 decomposables satisfy all relations "
        f"(worst rel residual {worst:.2e}), witness fails with residual 1 "
        f"({elapsed:.2f} s)"
    )


def test_criterion_04_score_matrices_and_perturbations():
    rng = np.random.default_rng(4096)
    start = time.perf_counter()
    sizes = [3, 4, 5, 6, 7, 8]
    for trial in range(1000):
        n = sizes[trial % len(sizes)]
        s = rng.uniform(-10, 10, size=n)
        a = from_scores(s)
        assert algebraic_inconsistency(a) <= 1e-12
        assert geometric_inconsistency(planar_embedding(s), "cyclic") <= 1e-12

    positives = 0
    for trial in range(1000):
        n = sizes[trial % len(sizes)]
        base = from_scores(rng.uniform(-5, 5, size=n)).to_array()
        noise = np.triu(rng.uniform(-1, 1, size=(n, n)), k=1)
        a = new_additive(base + noise - noise.T)
        if algebraic_inconsistency(a) <= 1e-6:
            continue  # perturbation too small to count, skip
        positives += 1
        assert planar_matrix_inconsistency(a, "cyclic") > 0.0
    elapsed = time.perf_counter() - start
    assert positives >= 990  # uniform noise essentially never cancels
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    report(
        f"criterion 4: 1000 score matrices have I_alg and planar cyclic "
        f"I_geom <= 1e-12; {positives} perturbed matrices all have "
        f"I_geom > 0 ({elapsed:.2f} s)"
    )


def test_criterion_05_coupling_structure():
    start = time.perf_counter()
    for n in range(3, 9):
        values = dense_M(n)
        assert np.array_equal(gram_rows(n)(slice(None)), values)
        assert np.array_equal(values, values.T)
        assert np.all(np.diagonal(values) == 3.0)
        eigs = np.linalg.eigvalsh(values)
        assert eigs.min() >= -1e-10 * eigs.max()
        for result in (dense_spectral_report(n), closed_form_diagnosis(n)):
            assert result["rank"] == (n - 1) * (n - 2) // 2
            assert result["degenerate"] == (n >= 4)
            if n == 4:
                assert (result["rank"], result["T"]) == (3, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    report(
        f"criterion 5: M symmetric/PSD/diag 3 with rank (n-1)(n-2)/2 for "
        f"n in 3..8, degenerate from n = 4 on ({elapsed:.2f} s)"
    )


def test_criterion_06_gram_identity():
    rng = np.random.default_rng(606)
    for n in range(3, 8):
        m = gram_rows(n)(slice(None))
        cmap = coupling_coefficients(n)
        for _ in range(1000):
            d = rng.normal(size=math.comb(n, 3))
            image = cmap.apply(d)
            expected = float(np.dot(image, image))
            got = float(d @ m @ d)
            assert abs(got - expected) <= 1e-9 * max(expected, 1e-30)
    report(
        "criterion 6: d'Md equals |Cd|^2 within 1e-9 relative on 1000 "
        "random d for each n in 3..7"
    )


def test_criterion_07_reduction_optimality():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    grid_radius, grid_steps = 2.0, 81
    resolution = 2 * grid_radius / (grid_steps - 1)
    for _ in range(100):
        a = random_additive(rng, 3, scale=1.5)
        projected, _ = project_consistent(a)
        best = nearest_consistent_oracle(a, grid_radius, grid_steps)
        d_proj = np.linalg.norm(a.to_array() - projected.to_array())
        d_grid = np.linalg.norm(a.to_array() - best.to_array())
        assert d_proj <= d_grid + 1e-12
        assert d_grid <= d_proj + resolution
        residual = a.to_array() - projected.to_array()
        assert np.max(np.abs(residual.sum(axis=1))) <= 1e-12

    for n in range(3, 9):
        a = random_additive(rng, n)
        trajectory = reduce_iterative(a, eta=1.0 / n)
        assert trajectory.steps[1].i_alg <= 1e-20
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    report(
        f"criterion 7: projection matches the 81-step grid oracle within "
        f"resolution {resolution:.3g} on 100 matrices, residual row sums "
        f"<= 1e-12, one eta = 1/n step reaches I_alg <= 1e-20 for n in "
        f"3..8 ({elapsed:.2f} s)"
    )


def test_criterion_08_monotone_descent():
    rng = np.random.default_rng(808)
    tol = 1e-10
    for _ in range(100):
        n = int(rng.integers(3, 9))
        a = random_additive(rng, n)
        eta = float(rng.uniform(0.05, 1.95)) / n
        trajectory = reduce_iterative(a, eta=eta, max_steps=60, tol=tol)
        values = [s.i_alg for s in trajectory.steps]
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev
            if prev > tol:
                assert nxt < prev
    report(
        "criterion 8: I_alg strictly decreases to tolerance for 100 random "
        "runs with 0 < eta < 2/n"
    )


def test_criterion_09_form_correspondence():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        n = int(rng.integers(3, 8))
        a = from_scores(rng.uniform(-5, 5, size=n))
        _, _, abs_error = evaluation_columns(a)
        assert np.max(abs_error) <= 1e-12

    disagreements = 0
    for _ in range(1000):
        n = int(rng.integers(3, 8))
        if rng.uniform() < 0.5:
            a = from_scores(rng.uniform(-5, 5, size=n))
        else:
            a = random_additive(rng, n)
        # Closed: the triad coboundary of the entries vanishes.
        closed = np.max(np.abs(all_triad_deviations(a))) <= 1e-9
        if closed != is_consistent(a, 1e-9):
            disagreements += 1
    assert disagreements == 0
    report(
        "criterion 9: form evaluations reproduce 1000 consistent matrices "
        "within 1e-12; closedness and consistency agree on 1000 mixed "
        "matrices with zero disagreements"
    )


def test_criterion_10_cli_contract(tmp_path, capsys):
    paths = {}
    for name, grid in (("good", CONSISTENT_3), ("bad", INCONSISTENT_3)):
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(grid)
        paths[name] = str(path)
    uv = tmp_path / "uv.json"
    with open(uv, "w") as fh:
        json.dump({"u": [1, 0, 0], "v": [0, 1, 0]}, fh)
    witness = tmp_path / "witness.json"
    with open(witness, "w") as fh:
        json.dump({"n": 4, "coords": [1, 0, 0, 0, 0, 1]}, fh)
    broken = tmp_path / "broken.csv"
    with open(broken, "w", newline="") as fh:
        csv.writer(fh).writerows([[0, 1], [1, 0]])

    def run(argv, expect):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == expect, f"{argv}: {captured.err}"
        return captured.out

    seen_codes = set()

    for matrix, check_code in ((paths["good"], 0), (paths["bad"], 1)):
        out = run(["check", matrix], check_code)
        json.loads(out)
        seen_codes.add(check_code)
        for argv in (
            ["convert", matrix],
            ["indices", matrix],
            ["deviations", matrix],
            ["embed", matrix],
            ["diagnose", matrix],
            ["reduce", matrix],
            ["twoform", matrix],
        ):
            json.loads(run(argv, 0))
    json.loads(run(["wedge", str(uv)], 0))
    json.loads(run(["plucker", str(uv)], 0))
    json.loads(run(["plucker", str(witness)], 0))

    assert main(["check", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "(1,2)" in err
    seen_codes.add(2)
    assert seen_codes == {0, 1, 2}

    # spot-check golden values
    out = run(["reduce", paths["bad"]], 0)
    reduced = json.loads(out)
    final = np.asarray(reduced["final"]["entries"])
    np.testing.assert_allclose(
        final[np.triu_indices(3, k=1)], [4 / 3, 8 / 3, 4 / 3], atol=1e-15
    )
    assert reduced["steps"][-1]["I_alg"] == 0.0
    indices = json.loads(run(["indices", paths["bad"]], 0))
    assert indices["I_alg"] == 1.0
    report(
        "criterion 10: every subcommand produces parseable JSON on both "
        "matrices; exit codes 0, 1 and 2 all observed"
    )
