import warnings

import numpy as np
import pytest

from pcgeom import (
    DivergentStepError,
    NonPositiveLambdaError,
    NonPositiveStepError,
    ReductionStep,
    ReductionTrajectory,
    all_triad_deviations,
    is_consistent,
    new_additive,
    project_consistent,
    recover_scores,
    reduce_iterative,
)
from pcgeom.io import write_trajectory_jsonl

from oracles import nearest_consistent_oracle

CONSISTENT_3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
INCONSISTENT_3 = [[0, 1, 3], [-1, 0, 1], [-3, -1, 0]]


def random_additive(rng, n, scale=4.0):
    raw = np.triu(rng.uniform(-scale, scale, size=(n, n)), k=1)
    return new_additive(raw - raw.T)


def frobenius_distance(a, b):
    return float(np.linalg.norm(a.to_array() - b.to_array()))


# ------------------------------------------------------------------ projection


def test_project_consistent_fixes_consistent_input():
    a = new_additive(CONSISTENT_3)
    projected, _ = project_consistent(a)
    np.testing.assert_allclose(projected.to_array(), a.to_array(), atol=1e-15)


def test_project_zero_matrix():
    a = new_additive(np.zeros((4, 4)))
    projected, scores = project_consistent(a)
    assert np.all(projected.upper == 0)
    assert np.all(scores == 0)


def test_project_hand_example():
    projected, scores = project_consistent(new_additive(INCONSISTENT_3))
    np.testing.assert_allclose(projected.upper, [4 / 3, 8 / 3, 4 / 3], atol=1e-15)
    np.testing.assert_allclose(scores, [4 / 3, 0, -4 / 3], atol=1e-15)
    assert is_consistent(projected)


def test_project_near_the_float_maximum():
    """Finite entries near the float maximum project with no overflow."""
    a = new_additive([[0, 1.7e308, 1.7e308], [-1.7e308, 0, 0], [-1.7e308, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        projected, scores = project_consistent(a)
    np.testing.assert_allclose(projected.upper, [1.7e308, 1.7e308, 0.0], rtol=1e-15)
    assert np.isfinite(scores).all()


def test_projection_idempotent():
    rng = np.random.default_rng(71)
    for n in (3, 5, 7):
        a = random_additive(rng, n)
        once, _ = project_consistent(a)
        twice, _ = project_consistent(once)
        np.testing.assert_allclose(twice.upper, once.upper, rtol=0, atol=1e-13)


def test_projection_residual_has_zero_row_sums():
    rng = np.random.default_rng(73)
    for n in (3, 4, 6, 8):
        a = random_additive(rng, n)
        projected, _ = project_consistent(a)
        residual = a.to_array() - projected.to_array()
        assert np.max(np.abs(residual.mean(axis=1))) <= 1e-12


def test_projection_output_revalidates():
    rng = np.random.default_rng(79)
    a = random_additive(rng, 5)
    projected, _ = project_consistent(a)
    new_additive(projected.to_array())  # no exception


# -------------------------------------------------------------------- iterative


def test_one_step_projection_on_hand_example():
    a = new_additive(INCONSISTENT_3)
    trajectory = reduce_iterative(a, eta=1 / 3)
    assert trajectory.converged
    assert len(trajectory.steps) == 2  # input snapshot + one step
    projected, _ = project_consistent(a)
    np.testing.assert_allclose(
        trajectory.final.upper, projected.upper, atol=1e-15
    )
    assert trajectory.steps[-1].i_alg == 0.0


def test_consistent_input_converges_without_stepping():
    a = new_additive(CONSISTENT_3)
    trajectory = reduce_iterative(a, eta=0.123)
    assert trajectory.converged
    assert len(trajectory.steps) == 1
    np.testing.assert_array_equal(trajectory.final.upper, a.upper)


def test_small_eta_converges_to_projection():
    # stopping tolerance on i_alg (a squared quantity) chosen so the
    # endpoint is within 1e-8 of the projection per entry
    a = new_additive(INCONSISTENT_3)
    trajectory = reduce_iterative(a, eta=0.1, max_steps=200, tol=1e-21)
    assert trajectory.converged
    projected, _ = project_consistent(a)
    np.testing.assert_allclose(
        trajectory.final.upper, projected.upper, atol=1e-8
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_one_step_exactness_random(n):
    rng = np.random.default_rng(80 + n)
    a = random_additive(rng, n)
    trajectory = reduce_iterative(a, eta=1.0 / n)
    assert trajectory.steps[1].i_alg <= 1e-20
    assert trajectory.converged


def test_monotone_descent_below_critical_step():
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        a = random_additive(rng, n)
        eta = rng.uniform(0.05, 1.95) / n
        trajectory = reduce_iterative(a, eta=eta, max_steps=40, tol=1e-10)
        values = [s.i_alg for s in trajectory.steps]
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev
            if prev > 1e-10:
                assert nxt < prev


@pytest.mark.parametrize(
    "eta, lam, message",
    [
        (1.0, 0.0, "eta=1 does not contract for n=3, lambda=0: "
         "need 0 < eta < 2/(n+lambda) = 0.666667"),
        (0.5, 1.0, "eta=0.5 does not contract for n=3, lambda=1: "
         "need 0 < eta < 2/(n+lambda) = 0.5"),
        (1e-300, 0.0, "eta=1e-300 is too small for n=3, lambda=0: "
         "1 - eta*(n+lambda) rounds to 1, so no step moves the matrix"),
    ],
    ids=["too-large", "at-bound-with-lambda", "too-small"],
)
def test_step_that_cannot_contract_is_refused(eta, lam, message):
    # Each step scales the residual by q = 1 - eta*(n + lam): |q| >= 1
    # would grow the records into overflow, and q == 1 moves nothing.
    a = new_additive(INCONSISTENT_3)
    with pytest.raises(DivergentStepError) as exc:
        reduce_iterative(a, lam=lam, eta=eta, max_steps=20)
    assert str(exc.value) == message


def test_regularized_descent_same_fixed_point():
    a = new_additive(INCONSISTENT_3)
    base = reduce_iterative(a, eta=0.1, max_steps=400, tol=1e-14)
    reg = reduce_iterative(a, lam=0.5, eta=0.1, max_steps=400, tol=1e-14)
    assert base.converged and reg.converged
    np.testing.assert_allclose(reg.final.upper, base.final.upper, atol=1e-6)
    # stronger contraction per step with lam > 0, so no more steps needed
    assert len(reg.steps) <= len(base.steps)


def test_trajectory_i_geom_tracks_quadratic_form():
    from pcgeom import gram_rows

    a = new_additive(INCONSISTENT_3)
    trajectory = reduce_iterative(a, eta=0.1, max_steps=5, tol=1e-16)
    m = gram_rows(3)(slice(None))
    for step in trajectory.steps:
        d = all_triad_deviations(step.matrix)
        expected = float(d @ m @ d)
        assert step.i_geom == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_i_geom_is_n_times_i_alg_at_every_step():
    # Step 0 as n * n * |r|^2 read 12.000000000000002 here, not n * I_alg = 12.
    trajectory = reduce_iterative(new_additive([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))
    assert (trajectory.i_alg[0], trajectory.i_geom[0]) == (4.0, 12.0)
    rng = np.random.default_rng(52)
    for _ in range(50):
        n = int(rng.integers(3, 160))
        trajectory = reduce_iterative(random_additive(rng, n), eta=0.5 / n, max_steps=5)
        assert trajectory.i_geom == tuple(n * v for v in trajectory.i_alg)


def test_reduce_validates_parameters():
    a = new_additive(INCONSISTENT_3)
    with pytest.raises(NonPositiveStepError):
        reduce_iterative(a, eta=0.0)
    with pytest.raises(NonPositiveLambdaError):
        reduce_iterative(a, lam=-1.0)
    with pytest.raises(ValueError):
        reduce_iterative(a, max_steps=0)
    with pytest.raises(ValueError):
        reduce_iterative(a, tol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "scale, name",
    [(2.0**900, "I_alg"), (1.7 * 2.0**511, "I_geom = n I_alg")],
    ids=["I_alg", "I_geom"],
)
def test_an_index_beyond_the_float_range_is_refused_by_name(scale, name):
    # At 1.7 * 2^511, I_alg = |a|^2 / 8 is in range and I_geom = 3 I_alg is not.
    a = new_additive(scale * np.array(INCONSISTENT_3, dtype=float))
    with pytest.raises(OverflowError) as exc:
        reduce_iterative(a)
    assert str(exc.value) == f"{name} is beyond the float range"


def test_step_matrix_of_an_overflowing_hand_built_trajectory_raises():
    # reduce_iterative refuses |q| >= 1; a trajectory built by hand with
    # q = 10 has a finite matrix at step 3 and a q^400 out of float range.
    a = new_additive(INCONSISTENT_3)
    _, residual = recover_scores(a)
    trajectory = ReductionTrajectory(a, residual, 10.0, (1.0,), (1.0,), converged=False)
    shrink = 1.0 - 10.0**3
    assert ReductionStep(3, 0.0, 0.0, trajectory).matrix.upper.tolist() == (
        a.upper - shrink * residual.upper
    ).tolist()
    with pytest.raises(OverflowError):
        ReductionStep(400, 0.0, 0.0, trajectory).matrix


def test_reduce_outputs_valid_skew_matrices():
    rng = np.random.default_rng(89)
    a = random_additive(rng, 5)
    trajectory = reduce_iterative(a, eta=0.2 / 5, max_steps=10, tol=1e-18)
    for step in trajectory.steps:
        new_additive(step.matrix.to_array())  # revalidates


def test_trajectory_jsonl_records(tmp_path):
    import json

    a = new_additive(INCONSISTENT_3)
    trajectory = reduce_iterative(a)
    path = tmp_path / "steps.jsonl"
    with open(path, "w") as fh:
        write_trajectory_jsonl(trajectory, fh)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(trajectory.steps)
    first = json.loads(lines[0])
    assert set(first) == {"step", "I_alg", "I_geom"}
    assert first["step"] == 0
    assert first["I_alg"] == 1.0
    assert first["I_geom"] == 3.0


# ---------------------------------------------------------------------- oracle


def test_oracle_matches_projection_on_hand_example():
    a = new_additive(INCONSISTENT_3)
    best = nearest_consistent_oracle(a, grid_radius=2.0, grid_steps=41)
    projected, _ = project_consistent(a)
    resolution = 2 * 2.0 / 40
    assert frobenius_distance(a, best) <= frobenius_distance(a, projected) + 1e-12
    scores_best, _ = recover_scores(best)
    scores_proj, _ = recover_scores(projected)
    centered_best = scores_best - scores_best.mean()
    centered_proj = scores_proj - scores_proj.mean()
    assert np.max(np.abs(centered_best - centered_proj)) <= resolution


def test_oracle_returns_consistent_input_unchanged():
    a = new_additive(CONSISTENT_3)
    best = nearest_consistent_oracle(a, grid_radius=1.0, grid_steps=21)
    np.testing.assert_allclose(best.to_array(), a.to_array(), atol=1e-12)


def test_oracle_zero_matrix():
    a = new_additive(np.zeros((3, 3)))
    best = nearest_consistent_oracle(a, grid_radius=1.0, grid_steps=11)
    assert np.all(best.upper == 0)


def test_oracle_supports_n4():
    rng = np.random.default_rng(97)
    a = random_additive(rng, 4, scale=1.0)
    best = nearest_consistent_oracle(a, grid_radius=1.5, grid_steps=13)
    projected, _ = project_consistent(a)
    resolution = 2 * 1.5 / 12
    gap = frobenius_distance(a, best) - frobenius_distance(a, projected)
    assert -1e-12 <= gap <= 2 * resolution


def test_oracle_rejects_unsupported_sizes():
    rng = np.random.default_rng(101)
    with pytest.raises(ValueError, match="n = 3 or 4"):
        nearest_consistent_oracle(random_additive(rng, 5), 1.0, 11)
    with pytest.raises(ValueError):
        nearest_consistent_oracle(random_additive(rng, 3), 1.0, 5)


def test_projection_beats_oracle_on_random_matrices():
    rng = np.random.default_rng(103)
    for _ in range(10):
        a = random_additive(rng, 3, scale=1.5)
        projected, _ = project_consistent(a)
        best = nearest_consistent_oracle(a, grid_radius=2.0, grid_steps=41)
        d_proj = frobenius_distance(a, projected)
        d_grid = frobenius_distance(a, best)
        assert d_proj <= d_grid + 1e-12
        assert d_grid <= d_proj + 2 * 2.0 / 40
