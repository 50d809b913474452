import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pcgeom import __version__, new_additive, to_multiplicative
from pcgeom import cli, usage
from pcgeom import io as pio
from pcgeom.cli import main

from oracles import matrix_to_dict, two_vector_to_dict

CONSISTENT_3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
INCONSISTENT_3 = [[0, 1, 3], [-1, 0, 1], [-3, -1, 0]]


@pytest.fixture
def consistent_csv(tmp_path):
    path = tmp_path / "consistent.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(CONSISTENT_3)
    return str(path)


@pytest.fixture
def inconsistent_csv(tmp_path):
    path = tmp_path / "inconsistent.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(INCONSISTENT_3)
    return str(path)


def run_json(capsys, argv, expect_code=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.err
    return json.loads(captured.out)


# ----------------------------------------------------------------------- check


def test_check_consistent_exits_zero(capsys, consistent_csv):
    report = run_json(capsys, ["check", consistent_csv])
    assert report["consistent"] is True
    assert report["max_abs_deviation"] == 0.0
    assert report["I_alg"] == 0.0
    assert report["version"] == __version__
    assert report["command"] == "check"


def test_check_inconsistent_exits_one(capsys, inconsistent_csv):
    report = run_json(capsys, ["check", inconsistent_csv], expect_code=1)
    assert report["consistent"] is False
    assert report["max_abs_deviation"] == 1.0
    assert report["I_alg"] == 1.0


def test_check_symmetric_matrix_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[0, 1], [1, 0]])
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "(1,2)" in captured.err
    assert captured.err.count("\n") == 1  # one-line diagnostic


def test_check_near_the_float_maximum_exits_zero(capsys, tmp_path):
    # The row means of these finite entries once overflowed (exit 2).
    path = tmp_path / "near-max.csv"
    path.write_text("0,1.7e308,1.7e308\n-1.7e308,0,0\n-1.7e308,0,0\n")
    assert main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is True and report["max_abs_deviation"] == 0.0


def test_twoform_past_the_float_range_is_one_exit_two_line(capsys, tmp_path):
    # omega_13 = s_1 - s_3 = 4M/3 overflows; the message names the scores.
    path, out = tmp_path / "far.csv", tmp_path / "far.json"
    path.write_text("0,1.7e308,1.7e308\n-1.7e308,0,1.7e308\n-1.7e308,-1.7e308,0\n")
    assert main(["twoform", str(path), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("pcgeom: error: difference of scores 1 and 3 overflows")
    assert not out.exists()


def test_check_missing_file_exits_two(capsys, tmp_path):
    code = main(["check", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_ragged_rows_exit_two(capsys, tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0,1\n-1,0,5\n")
    assert main(["check", str(path)]) == 2
    assert "differing lengths" in capsys.readouterr().err


def test_wedge_non_numeric_payload_exits_two(capsys, tmp_path):
    path = tmp_path / "uv.json"
    path.write_text('{"u": [1, "x", 0], "v": [0, 1, 0]}')
    assert main(["wedge", str(path)]) == 2
    assert capsys.readouterr().err == "pcgeom: error: u is not a flat vector of numbers\n"


def test_check_multiplicative_mode(capsys, tmp_path):
    m = to_multiplicative(new_additive(CONSISTENT_3))
    path = tmp_path / "mult.json"
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(m), fh)
    report = run_json(capsys, ["check", str(path), "--mode", "multiplicative"])
    assert report["consistent"] is True
    # the file's own mode declaration is honoured without the flag
    report = run_json(capsys, ["check", str(path)])
    assert report["consistent"] is True
    # but an explicitly conflicting flag is an error
    assert main(["check", str(path), "--mode", "additive"]) == 2
    assert "mode" in capsys.readouterr().err


# --------------------------------------------------------------------- convert


def test_convert_to_multiplicative_golden(capsys, consistent_csv):
    report = run_json(capsys, ["convert", consistent_csv])
    assert report["mode"] == "multiplicative"
    e = math.e
    expected = [[1, e, 1], [1 / e, 1, 1 / e], [1, e, 1]]
    np.testing.assert_allclose(report["entries"], expected, rtol=0, atol=1e-15)


def test_convert_back_recovers_additive(capsys, tmp_path, consistent_csv):
    mult_path = str(tmp_path / "mult.json")
    assert main(["convert", consistent_csv, "-o", mult_path]) == 0
    report = run_json(capsys, ["convert", mult_path, "--mode", "multiplicative"])
    assert report["mode"] == "additive"
    np.testing.assert_allclose(
        report["entries"], CONSISTENT_3, rtol=0, atol=1e-14
    )


def test_convert_csv_output(capsys, inconsistent_csv):
    code = main(["convert", inconsistent_csv, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    grid = [[float(x) for x in row] for row in csv.reader(out.strip().splitlines())]
    np.testing.assert_allclose(grid, np.exp(np.asarray(INCONSISTENT_3)), rtol=1e-15)


def test_writer_failure_leaves_no_output_file(monkeypatch, capsys, tmp_path):
    def write_then_fail(report, dest, fmt="json"):
        dest.write("{")
        raise OSError(28, "No space left on device")

    path = tmp_path / "a.csv"
    path.write_text("0,1\n-1,0\n")
    out = tmp_path / "report.json"
    monkeypatch.setattr(pio, "write_report", write_then_fail)
    assert main(["check", str(path), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pcgeom: error: [Errno 28] No space left on device\n"
    assert not out.exists()


def test_matrix_file_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    raw = np.triu(rng.uniform(-3, 3, size=(5, 5)), k=1)
    a = new_additive(raw - raw.T)
    for fmt in ("json", "csv"):
        path = tmp_path / f"m.{fmt}"
        with open(path, "w") as fh:
            pio.write_matrix(a, fh, fmt)
        back = pio.read_matrix(path)
        assert np.array_equal(back.upper, a.upper)  # bit-exact round trip


def test_two_vector_file_round_trip_is_exact(tmp_path):
    from pcgeom import wedge

    rng = np.random.default_rng(8)
    p = wedge(rng.normal(size=5), rng.normal(size=5))
    path = tmp_path / "p.json"
    with open(path, "w") as fh:
        json.dump(two_vector_to_dict(p), fh)
    back = pio.read_two_vector(path)
    assert back.n == p.n
    assert np.array_equal(back.coords, p.coords)


# --------------------------------------------------------------------- indices


def test_indices_planar_cyclic(capsys, inconsistent_csv):
    report = run_json(capsys, ["indices", inconsistent_csv])
    assert report["convention"] == "cyclic"
    assert report["embedding"] == "planar"
    assert report["I_alg"] == 1.0
    assert report["I_geom"] == 1.0


def test_indices_consistent_matrix(capsys, consistent_csv):
    report = run_json(capsys, ["indices", consistent_csv])
    assert report["I_alg"] == 0.0
    assert report["I_geom"] == 0.0


def test_indices_orthogonal_embedding_structural(capsys, consistent_csv):
    report = run_json(
        capsys, ["indices", consistent_csv, "--embedding", "orthogonal"]
    )
    # axis-aligned wedges occupy disjoint coordinates and cannot cancel
    assert report["I_geom"] > 0.0


def test_indices_custom_embedding(capsys, tmp_path, inconsistent_csv):
    emb_path = tmp_path / "emb.json"
    with open(emb_path, "w") as fh:
        json.dump({"n": 3, "vectors": np.eye(3).tolist()}, fh)
    report = run_json(
        capsys,
        [
            "indices",
            inconsistent_csv,
            "--embedding",
            "custom",
            "--embedding-file",
            str(emb_path),
        ],
    )
    assert report["I_geom"] == pytest.approx(3.0)  # unit wedges, one triad


def test_indices_custom_requires_file(capsys, inconsistent_csv):
    code = main(["indices", inconsistent_csv, "--embedding", "custom"])
    assert code == 2
    assert "embedding-file" in capsys.readouterr().err


# ------------------------------------------------------------------ deviations


def test_deviations_report(capsys, inconsistent_csv):
    report = run_json(capsys, ["deviations", inconsistent_csv])
    assert report["triads"] == [[1, 2, 3]]
    assert report["values"] == [-1.0]


# ----------------------------------------------------------------------- embed


def test_embed_planar_pairs_carry_entries(capsys, inconsistent_csv):
    report = run_json(capsys, ["embed", inconsistent_csv])
    coords = {tuple((p["i"], p["j"])): p["coords"] for p in report["pairs"]}
    assert coords[(1, 2)][0] == 1.0
    assert coords[(1, 3)][0] == 3.0
    assert coords[(2, 3)][0] == 1.0
    assert not any(p["degenerate"] for p in report["pairs"])


def test_embed_orthogonal(capsys, consistent_csv):
    report = run_json(
        capsys, ["embed", consistent_csv, "--embedding", "orthogonal"]
    )
    for pair in report["pairs"]:
        assert sum(1 for c in pair["coords"] if c != 0.0) == 1


def test_embed_custom_reports_degenerate_pairs(capsys, tmp_path, consistent_csv):
    emb_path = tmp_path / "emb.json"
    vectors = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    with open(emb_path, "w") as fh:
        json.dump({"n": 3, "vectors": vectors}, fh)
    report = run_json(
        capsys,
        [
            "embed",
            consistent_csv,
            "--embedding",
            "custom",
            "--embedding-file",
            str(emb_path),
        ],
    )
    degenerate = {(p["i"], p["j"]) for p in report["pairs"] if p["degenerate"]}
    assert degenerate == {(1, 3)}


# ----------------------------------------------------------------- wedge input


def test_wedge_command_basis_example(capsys, tmp_path):
    path = tmp_path / "uv.json"
    with open(path, "w") as fh:
        json.dump({"u": [1, 0, 0], "v": [0, 1, 0]}, fh)
    report = run_json(capsys, ["wedge", str(path)])
    assert report["coords"] == [1.0, 0.0, 0.0]
    assert report["pairs"] == [[1, 2], [1, 3], [2, 3]]


def test_wedge_dimension_mismatch_exits_two(capsys, tmp_path):
    path = tmp_path / "uv.json"
    with open(path, "w") as fh:
        json.dump({"u": [1, 0, 0], "v": [0, 1]}, fh)
    assert main(["wedge", str(path)]) == 2


def test_plucker_on_decomposable(capsys, tmp_path):
    path = tmp_path / "uv.json"
    with open(path, "w") as fh:
        json.dump({"u": [1, 2, 3, 4], "v": [5, 6, 7, 8]}, fh)
    report = run_json(capsys, ["plucker", str(path)])
    assert report["decomposable"] is True
    assert report["max_abs_residual"] == 0.0
    assert report["residuals"] == [{"quad": [1, 2, 3, 4], "value": 0.0}]


def test_plucker_on_witness(capsys, tmp_path):
    path = tmp_path / "p.json"
    with open(path, "w") as fh:
        json.dump({"n": 4, "coords": [1, 0, 0, 0, 0, 1]}, fh)
    report = run_json(capsys, ["plucker", str(path)])
    assert report["decomposable"] is False
    assert report["max_abs_residual"] == 1.0


# -------------------------------------------------------------------- diagnose


def test_diagnose_n4(capsys, tmp_path):
    path = tmp_path / "m4.csv"
    rng = np.random.default_rng(3)
    raw = np.triu(rng.uniform(-2, 2, size=(4, 4)), k=1)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows((raw - raw.T).tolist())
    report = run_json(capsys, ["diagnose", str(path)])
    assert report["T"] == 4
    assert report["rank"] == 3
    assert report["degenerate"] is True
    assert report["kernel_dim"] == 1
    assert len(report["eigenvalues"]) == 4


@pytest.mark.parametrize(
    "flags, rank",
    [
        (["--tol", "1"], 3),
        (["--tol", "0.3", "--lambda", "1"], 4),
        (["--lambda", "1e-12"], 4),
    ],
)
def test_diagnose_rank_is_exact_whatever_the_tolerance(capsys, tmp_path, flags, rank):
    # --tol validates the input only; the rank is T for lambda > 0, else
    # (n-1)(n-2)/2, with no threshold on the eigenvalues.
    path = tmp_path / "m4.csv"
    path.write_text("0,1,2,3\n-1,0,1,2\n-2,-1,0,1\n-3,-2,-1,0\n")
    report = run_json(capsys, ["diagnose", str(path), *flags])
    assert (report["rank"], report["T"]) == (rank, 4)
    assert report["kernel_dim"] == 4 - rank
    assert report["degenerate"] is (rank < 4)


def test_diagnose_regularized_full_rank(capsys, inconsistent_csv):
    report = run_json(
        capsys, ["diagnose", inconsistent_csv, "--lambda", "0.01"]
    )
    assert report["rank"] == report["T"] == 1
    assert report["degenerate"] is False
    assert report["eigenvalues"][0] == pytest.approx(3.01)


def test_diagnose_csv_dumps_matrix(capsys, inconsistent_csv):
    code = main(["diagnose", inconsistent_csv, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    grid = [[float(x) for x in row] for row in csv.reader(out.strip().splitlines())]
    assert grid == [[3.0]]


def write_random_csv(path, n):
    rng = np.random.default_rng(n)
    raw = np.triu(rng.uniform(-2, 2, size=(n, n)), k=1)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows((raw - raw.T).tolist())
    return str(path)


@pytest.mark.parametrize("n", range(3, 13))
def test_diagnose_csv_with_lambda_writes_the_shifted_gram_matrix(
    tmp_path, monkeypatch, n
):
    from oracles import dense_M

    path, out = write_random_csv(tmp_path / "m.csv", n), tmp_path / "m-out.csv"
    # Threshold 0 takes every block's text from orjson, and the real one
    # does so from n = 10 on (T^2 = 14400 floats; 7056 at n = 9).
    for threshold in (0, pio._ORJSON_FROM):
        monkeypatch.setattr(pio, "_ORJSON_FROM", threshold)
        for lam in (0.0, 0.5, 1e20):
            argv = ["diagnose", path, "--format", "csv", "--lambda", repr(lam),
                    "-o", str(out)]
            assert main(argv) == 0
            grid = dense_M(n, lam)
            want = "".join(
                ",".join(repr(float(v)) for v in row) + "\r\n" for row in grid
            )
            assert out.read_bytes() == want.encode()
    # Two triads share a pair with opposite signs from n = 4 on.
    assert "1e+20" in want and ("-1.0" in want) is (n > 3)


def test_diagnose_csv_refuses_a_grid_over_the_size_rule(tmp_path, capsys):
    # C(45,3)^2 = 201356100 entries, over the 2e8 limit; the JSON report
    # of the same matrix is still served.
    path, out = write_random_csv(tmp_path / "m45.csv", 45), tmp_path / "m-out.csv"
    for dest in ([], ["-o", str(out)]):
        assert main(["diagnose", path, "--format", "csv", *dest]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("pcgeom: error: ")
        assert "201356100 entries" in captured.err
        assert not out.exists()
    assert main(["diagnose", path]) == 0
    assert json.loads(capsys.readouterr().out)["T"] == math.comb(45, 3)


# ---------------------------------------------------------------------- reduce


def test_reduce_defaults_golden(capsys, inconsistent_csv):
    report = run_json(capsys, ["reduce", inconsistent_csv])
    assert report["converged"] is True
    assert report["eta"] == pytest.approx(1 / 3)
    assert report["steps"][0] == {"step": 0, "I_alg": 1.0, "I_geom": 3.0}
    assert report["steps"][-1]["I_alg"] == 0.0
    final = np.asarray(report["final"]["entries"])
    np.testing.assert_allclose(
        final[np.triu_indices(3, k=1)], [4 / 3, 8 / 3, 4 / 3], atol=1e-15
    )


def test_reduce_jsonl_output(capsys, inconsistent_csv):
    code = main(["reduce", inconsistent_csv, "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["step"] for r in records] == [0, 1]
    assert records[-1]["I_alg"] == 0.0


def test_reduce_csv_outputs_final_matrix(capsys, inconsistent_csv):
    code = main(["reduce", inconsistent_csv, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    grid = np.asarray(
        [[float(x) for x in row] for row in csv.reader(out.strip().splitlines())]
    )
    np.testing.assert_allclose(
        grid[np.triu_indices(3, k=1)], [4 / 3, 8 / 3, 4 / 3], atol=1e-15
    )


def test_reduce_writes_output_file(tmp_path, inconsistent_csv):
    out_path = tmp_path / "trajectory.jsonl"
    assert main(["reduce", inconsistent_csv, "-o", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2  # format inferred from .jsonl extension
    assert json.loads(lines[0])["step"] == 0


def test_reduce_rejects_bad_eta(capsys, inconsistent_csv):
    assert main(["reduce", inconsistent_csv, "--eta", "-0.5"]) == 2


# --------------------------------------------------------------------- twoform


def test_twoform_consistent_golden(capsys, consistent_csv):
    report = run_json(capsys, ["twoform", consistent_csv])
    assert report["max_abs_error"] == 0.0
    assert report["closed"] is True
    assert report["consistent"] is True
    omegas = {(r["i"], r["j"]): r["omega"] for r in report["rows"]}
    assert omegas[(1, 2)] == 1.0
    assert omegas[(1, 3)] == 0.0
    assert omegas[(2, 3)] == -1.0


def test_twoform_inconsistent(capsys, inconsistent_csv):
    report = run_json(capsys, ["twoform", inconsistent_csv])
    assert report["closed"] is False
    assert report["max_abs_error"] > 0.1


# ----------------------------------------------------------- config plumbing


def test_env_tolerance_override(capsys, inconsistent_csv, monkeypatch):
    monkeypatch.setenv("PCGEOM_TOL", "2.0")
    report = run_json(capsys, ["check", inconsistent_csv])
    assert report["consistent"] is True  # max deviation 1 <= tol 2
    assert report["tolerance"] == 2.0


def test_env_format_override(capsys, inconsistent_csv, monkeypatch):
    monkeypatch.setenv("PCGEOM_FORMAT", "csv")
    code = main(["check", inconsistent_csv])
    out = capsys.readouterr().out
    assert code == 1
    rows = dict(
        (row[0], row[1]) for row in csv.reader(out.strip().splitlines())
    )
    assert rows["consistent"] == "False"


def test_explicit_flag_beats_env(capsys, inconsistent_csv, monkeypatch):
    monkeypatch.setenv("PCGEOM_TOL", "2.0")
    report = run_json(
        capsys, ["check", inconsistent_csv, "--tol", "1e-9"], expect_code=1
    )
    assert report["consistent"] is False


def test_module_entry_point(consistent_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", "check", consistent_csv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["consistent"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check"], "the following arguments are required: input"),
        (["check", "m.csv", "--format", "xml"], "argument --format: invalid choice"),
        (["reduce", "m.csv", "--eta", "abc"], "argument --eta: invalid float value"),
        (["frob", "m.csv"], "argument command: invalid choice: 'frob'"),
    ],
)
def test_usage_error_is_one_line_exit_two(argv, message):
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"pcgeom: error: {message}")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pcgeom check [-h]")


def test_plucker_help_gives_its_scaled_tolerance(capsys):
    # The residuals are quadratic in p, so plucker's bound scales with it.
    with pytest.raises(SystemExit) as exc:
        main(["plucker", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--tol TOL absolute validation / decision tolerance (default "
            "1e-9), the same at every scale; plucker's bound is "
            "tol * max(1, |p|^2)") in text


def test_every_command_has_a_handler():
    assert list(cli._HANDLERS) == list(usage.COMMANDS)


@pytest.mark.parametrize("command", list(usage.COMMANDS))
def test_every_command_parses_to_every_declared_default(command):
    # A handler may read any setting, whether or not its command has the flag.
    args = usage.build_parser().parse_args([command, "in"])
    assert vars(args) == {"command": command, "input_path": "in", **usage.DEFAULTS}
