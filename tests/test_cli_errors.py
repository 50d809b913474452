"""Exit-2 contract for runs whose results could not be finite: a step size
that makes the descent diverge, and entries so large the indices overflow.
Either way the CLI prints one diagnostic line and writes no output."""

import argparse
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from pcgeom import NonFiniteResultError, PCGeomError
from pcgeom import io as pio
from pcgeom.cli import _embedding, _emit, main, run
from pcgeom.usage import build_parser

INCONSISTENT_3 = [[0, 1, 3], [-1, 0, 1], [-3, -1, 0]]


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


@pytest.fixture
def inconsistent_csv(tmp_path):
    return write_csv(tmp_path / "inconsistent.csv", INCONSISTENT_3)


@pytest.fixture
def huge_csv(tmp_path):
    rng = np.random.default_rng(5)
    s = rng.normal(size=6) * 1e200
    a = np.subtract.outer(s, s)
    a[0, 1] += 3e199
    a[1, 0] -= 3e199
    rows = [[repr(float(v)) for v in row] for row in a]
    return write_csv(tmp_path / "huge.csv", rows)


def run_failing(capsys, argv):
    # Any numpy RuntimeWarning becomes an exception and fails the test.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("pcgeom: error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize(
    "extra",
    [
        ["--eta", "1"],
        ["--eta", "0.6666666666666667"],  # exactly at 2/n
        ["--eta", "0.5", "--lambda", "1"],  # 2/(n+lambda) = 0.5
        ["--eta", "0.3", "--lambda", "5", "-o", "steps.jsonl"],
    ],
)
def test_reduce_rejects_divergent_step(
    capsys, tmp_path, monkeypatch, inconsistent_csv, extra
):
    monkeypatch.chdir(tmp_path)
    err = run_failing(capsys, ["reduce", inconsistent_csv, *extra])
    assert "0 < eta < 2/(n+lambda)" in err
    assert not (tmp_path / "steps.jsonl").exists()


@pytest.mark.parametrize("extra", [["--eta", "1e-300"], ["--eta", "1e-17", "--lambda", "2"]])
def test_reduce_rejects_step_too_small_to_move(capsys, inconsistent_csv, extra):
    # 1 - eta*(n+lambda) rounds to 1.0 although eta lies inside (0, 2/(n+lambda)).
    err = run_failing(capsys, ["reduce", inconsistent_csv, *extra])
    assert "rounds to 1, so no step moves the matrix" in err
    assert "0 < eta < 2/(n+lambda)" not in err


def test_reduce_accepts_step_just_inside_bound(capsys, inconsistent_csv):
    argv = ["reduce", inconsistent_csv, "--eta", "0.66", "--max-steps", "5000"]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["converged"] is True


def test_divergent_reduce_writes_no_infinity_via_module(tmp_path, inconsistent_csv):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", "reduce", inconsistent_csv,
         "--eta", "1", "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["indices"],
        ["indices", "--convention", "anticyclic"],
        ["reduce"],
        ["reduce", "--format", "jsonl"],
        ["check", "--format", "csv"],
    ],
)
def test_overflowing_results_exit_two(capsys, huge_csv, argv):
    # The scores are in range, but n |r|^2 is not: the line names I_alg.
    err = run_failing(capsys, [argv[0], huge_csv, *argv[1:]])
    assert err == "pcgeom: error: I_alg is beyond the float range\n"


#: README's 3x3 example scaled by 2^900, whose n |r|^2 is past the float
#: range, and a vector pair scaled by 2^255, whose wedge's |p|^2 is.
SCALED_3 = (np.ldexp([[0, 1, 3], [-1, 0, 1], [-3, -1, 0]], 900)).tolist()
SCALED_PAIR = {"u": np.ldexp([1, 2, 3, 4], 255).tolist(),
               "v": np.ldexp([0.5, -1, 2, 1], 255).tolist()}
#: The same pair scaled by 2^600, whose wedge is past the float range, and
#: a 2-vector scaled by 2^600, whose residual 8 * 4^600 is.
PAIR_600 = {"u": np.ldexp([1, 2, 3, 4], 600).tolist(),
            "v": np.ldexp([0.5, -1, 2, 1], 600).tolist()}
COORDS_600 = {"n": 4, "coords": np.ldexp([1, 2, 3, 4, 5, 6], 600).tolist()}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("check", {"entries": SCALED_3}, "I_alg is beyond the float range"),
        ("indices", {"entries": SCALED_3}, "I_alg is beyond the float range"),
        ("reduce", {"entries": SCALED_3}, "I_alg is beyond the float range"),
        ("plucker", SCALED_PAIR, "|p|^2 of the 2-vector is beyond the float range"),
        ("wedge", PAIR_600, "a wedge coordinate is beyond the float range"),
        ("plucker", PAIR_600, "a wedge coordinate is beyond the float range"),
        ("plucker", COORDS_600, "a Plücker residual is beyond the float range"),
        ("wedge", '{"u": [111111111111111111111111111111, "1"], "v": [1, 2]}',
         "u is not a flat vector of numbers"),
        ("wedge", '{"u": [1, -' + "9" * 400 + '], "v": [1, 2]}',
         "u component 2 is not finite"),
    ],
    ids=["check", "indices", "reduce", "plucker", "wedge-600", "plucker-pair-600",
         "plucker-coords-600", "text", "huge-integer"],
)
def test_a_quantity_or_entry_out_of_range_is_one_line_naming_it(
    capsys, tmp_path, command, doc, message
):
    path = tmp_path / "in.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run_failing(capsys, [command, str(path)]) == f"pcgeom: error: {message}\n"


#: A consistent 4x4 matrix: its I_alg is 0 at any scale.
CONSISTENT_4 = np.subtract.outer([1.0, 2.0, 3.0, 5.0], [1.0, 2.0, 3.0, 5.0])
#: Matrix of scores 1400, -1400, 0 and 1, whose orthogonal coefficients
#: e^(s/2) reach e^700.
SCORES_1400 = np.subtract.outer(*[[1400.0, -1400.0, 0.0, 1.0]] * 2)
#: Custom embedding vectors scaled by 2^520.
VECTORS_520 = np.ldexp([[1, 2, 0, 1], [0, 1, 3, 1], [2, 0, 1, 1], [1, 1, 1, 0]], 520)


@pytest.mark.parametrize(
    "entries, flags",
    [
        (np.ldexp(CONSISTENT_4, 510), ["--convention", "anticyclic"]),
        *((CONSISTENT_4, ["--embedding", "custom", "--embedding-file", "v.json",
                          "--convention", convention])
          for convention in ("cyclic", "anticyclic")),
        *((SCORES_1400, ["--embedding", "orthogonal", "--convention", convention])
          for convention in ("cyclic", "anticyclic")),
    ],
    ids=["planar-anticyclic", "custom-cyclic", "custom-anticyclic",
         "orthogonal-cyclic", "orthogonal-anticyclic"],
)
def test_i_geom_past_the_float_range_is_one_line_naming_it(
    capsys, tmp_path, monkeypatch, entries, flags
):
    monkeypatch.chdir(tmp_path)
    Path("a.json").write_text(json.dumps({"entries": entries.tolist()}))
    Path("v.json").write_text(json.dumps({"vectors": VECTORS_520.tolist()}))
    err = run_failing(capsys, ["indices", "a.json", *flags])
    assert err == "pcgeom: error: I_geom is beyond the float range\n"


def test_pair_wedges_past_the_float_range_are_one_line_naming_them(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    Path("a.json").write_text(json.dumps({"entries": CONSISTENT_4.tolist()}))
    Path("v.json").write_text(json.dumps({"vectors": VECTORS_520.tolist()}))
    err = run_failing(capsys, ["embed", "a.json", "--embedding", "custom",
                               "--embedding-file", "v.json"])
    assert err == "pcgeom: error: a wedge coordinate is beyond the float range\n"


def test_an_integer_past_the_digit_limit_is_invalid_json_of_its_file(capsys, tmp_path):
    path = tmp_path / "uv.json"
    path.write_text('{"u": [' + "9" * 5000 + ', 1], "v": [1, 2]}')
    err = run_failing(capsys, ["wedge", str(path)])
    # The limit's own wording differs between Python versions.
    assert err.startswith(f"pcgeom: error: {path}: invalid JSON (Exceeds the limit (4300")


def test_overflowing_check_via_module_is_one_clean_line(tmp_path, huge_csv):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", "check", huge_csv, "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("pcgeom: error: ")
    assert proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["indices", "embed"])
@pytest.mark.parametrize(
    "rows, message",
    [
        # Scores 1500 and -1500: exp(750) overflows.
        ([[0, 3000], [-3000, 0]], "score 1 is not a positive finite float: s = 1500.0"),
        # Scores 1000, 1000 and -2000: exp(-1000) underflows to zero.
        ([[0, 0, 3000], [0, 0, 3000], [-3000, -3000, 0]],
         "score 3 is not a positive finite float: s = -2000.0"),
    ],
)
def test_orthogonal_coefficient_past_the_float_range_names_its_score(
    capsys, tmp_path, command, rows, message
):
    matrix = write_csv(tmp_path / "a.csv", rows)
    err = run_failing(capsys, [command, matrix, "--embedding", "orthogonal"])
    assert message in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_overflowing_deviation_writes_nothing(capsys, tmp_path, fmt):
    # a_12 + a_23 - a_13 = 3e308: nothing is written before the failure.
    m = 1e308
    matrix = write_csv(tmp_path / "a.csv", [[0, m, -m], [-m, 0, m], [m, -m, 0]])
    err = run_failing(capsys, ["deviations", matrix, "--format", fmt])
    assert "result is not finite" in err
    out = tmp_path / f"report.{fmt}"
    err = run_failing(capsys, ["deviations", matrix, "-o", str(out)])
    assert "result is not finite" in err
    assert not out.exists()


def test_deviation_at_the_float_maximum_is_reported(capsys, tmp_path):
    m = 1e308
    matrix = write_csv(tmp_path / "a.csv", [[0, m, 0], [-m, 0, 0], [0, 0, 0]])
    assert main(["deviations", matrix]) == 0
    assert '"values": [1e+308]' in capsys.readouterr().out


def test_overflowing_plucker_residual_writes_nothing(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 4, "coords": [1e200] * 6}))
    run_failing(capsys, ["plucker", str(path)])


def test_large_but_finite_results_still_report(capsys, huge_csv):
    # Deviations themselves stay finite, so the listing succeeds.
    code = main(["deviations", huge_csv])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(math.isfinite(v) for v in report["values"])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_writer_refuses_non_finite(value, fmt):
    for report in ({"I_alg": value}, {"steps": [{"I_alg": value}]}):
        dest = io.StringIO()
        with pytest.raises(NonFiniteResultError):
            pio.write_report(report, dest, fmt=fmt)
        assert dest.getvalue() == ""


def test_grid_writer_refuses_non_finite():
    with pytest.raises(NonFiniteResultError):
        pio.write_grid_csv(np.array([[0.0, math.inf], [-math.inf, 0.0]]), None)


def test_output_file_with_non_finite_value_is_removed(tmp_path):
    # The writer refuses the infinity; the file _emit opened must not survive.
    out = tmp_path / "report.json"
    config = build_parser().parse_args(["check", "in.csv", "-o", str(out)])
    report = {"ok": 1.0, "bad": math.inf}
    with pytest.raises(NonFiniteResultError):
        _emit(config, lambda dest: pio.write_report(report, dest))
    assert not out.exists()


def refuse_allocation(*args, **kwargs):
    raise MemoryError("Unable to allocate 1.24 GiB for an array")


def write_then_refuse(report, dest, fmt="json"):
    dest.write("{")
    refuse_allocation()


@pytest.mark.parametrize(
    "target, replacement",
    [
        ("pcgeom.cli.max_abs_triad_deviation", refuse_allocation),
        ("pcgeom.io.write_report", write_then_refuse),
    ],
    ids=["scan", "writer"],
)
def test_out_of_memory_exits_two_and_leaves_no_file(
    monkeypatch, capsys, tmp_path, inconsistent_csv, target, replacement
):
    monkeypatch.setattr(target, replacement)
    out = tmp_path / "report.json"
    err = run_failing(capsys, ["check", inconsistent_csv, "-o", str(out)])
    assert err.startswith("pcgeom: error: out of memory (Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["check"], {"PCGEOM_TOL": "abc"}, "PCGEOM_TOL='abc' is not a number"),
        (["plucker"], {"PCGEOM_TOL": "1e-9x"}, "PCGEOM_TOL='1e-9x' is not a number"),
        (["check"], {"PCGEOM_TOL": "inf"}, "tol must be positive and finite, got inf"),
        (["check", "--tol", "inf"], {}, "tol must be positive and finite, got inf"),
        (["diagnose", "--lambda", "inf"], {},
         "lambda must be nonnegative and finite, got inf"),
        (["reduce", "--lambda", "nan"], {},
         "lambda must be nonnegative and finite, got nan"),
        (["reduce", "--lambda", "inf", "--eta", "1e-9"], {},
         "lambda must be nonnegative and finite, got inf"),
        (["reduce", "--eta", "inf"], {}, "eta must be positive and finite, got inf"),
        (["check", "--tol=0"], {}, "tol must be positive and finite, got 0.0"),
        (["diagnose", "--lambda=-1"], {},
         "lambda must be nonnegative and finite, got -1.0"),
        (["reduce", "--eta=0"], {}, "eta must be positive and finite, got 0.0"),
        (["reduce", "--max-steps", "0"], {},
         "max-steps must be an integer of at least 1, got 0"),
        (["plucker"], {"PCGEOM_TOL": "0"}, "tol must be positive and finite, got 0.0"),
        (["reduce", "--eta", "nan"], {}, "eta must be positive and finite, got nan"),
    ],
)
def test_bad_tolerance_and_parameters_exit_two_naming_them(
    capsys, monkeypatch, tmp_path, argv, env, message
):
    # Each setting is refused before the input is read: the input is missing.
    monkeypatch.chdir(tmp_path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "report.json"
    err = run_failing(capsys, [argv[0], "missing.csv", *argv[1:], "-o", str(out)])
    assert err == f"pcgeom: error: {message}\n"
    assert not out.exists()


def test_run_of_an_unknown_command_exits_two_naming_it(capsys, inconsistent_csv):
    # A caller that builds its own namespace can name any command; run
    # refuses it before the input is read.
    config = argparse.Namespace(
        command="bogus", input_path=inconsistent_csv, output_path=None,
        format=None, mode=None, tol=None, convention="cyclic",
        embedding_kind="planar", embedding_file=None, lam=0.0, eta=None,
        max_steps=1000,
    )
    assert run(config) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pcgeom: error: unknown command 'bogus'\n"


def test_run_of_an_unknown_embedding_kind_exits_two_naming_it(capsys, inconsistent_csv):
    # The parser allows only the three kinds; a namespace built by hand
    # reaches the embedding's own refusal after the matrix is read.
    config = argparse.Namespace(
        command="indices", input_path=inconsistent_csv, output_path=None,
        format=None, mode=None, tol=None, convention="cyclic",
        embedding_kind="bogus", embedding_file=None, lam=0.0, eta=None,
        max_steps=1000,
    )
    assert run(config) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pcgeom: error: unknown embedding kind 'bogus'\n"


def test_bad_tolerance_variable_via_module_is_one_clean_line(inconsistent_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", "check", inconsistent_csv],
        capture_output=True,
        text=True,
        env={**os.environ, "PCGEOM_TOL": "abc"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "pcgeom: error: PCGEOM_TOL='abc' is not a number\n"


#: The two module entry points, which end the process the same way.
ENTRY_MODULES = ("pcgeom", "pcgeom.cli")


def stdout_answers(csv_path):
    """Requests whose answer goes to stdout: a command's report, and the
    answers argparse gives on its own."""
    return [["check", csv_path], ["--help"], ["--version"], ["check", "--help"]]


#: stdout buffered as by default, and unbuffered (PYTHONUNBUFFERED=1, as
#: python -u), where argparse's answer fails as it is written rather than
#: at the final flush.
BUFFERING = (False, True)


def run_module_to(module, argv, stdout, unbuffered):
    """``python -m MODULE ARGV`` with its stdout on the given file
    descriptor, buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def errno_line(code):
    return f"pcgeom: error: [Errno {code}] {os.strerror(code)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_report_to_full_stdout_exits_two_with_one_line(inconsistent_csv):
    for unbuffered, module in product(BUFFERING, ENTRY_MODULES):
        for argv in stdout_answers(inconsistent_csv):
            with open("/dev/full", "w") as full:
                proc = run_module_to(module, argv, full, unbuffered)
            case = (unbuffered, module, argv)
            assert (case, proc.returncode) == (case, 2)
            assert proc.stderr == errno_line(errno.ENOSPC)


def test_report_to_closed_pipe_exits_two_with_one_line(inconsistent_csv):
    for unbuffered, module in product(BUFFERING, ENTRY_MODULES):
        for argv in stdout_answers(inconsistent_csv):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = run_module_to(module, argv, write_end, unbuffered)
            finally:
                os.close(write_end)
            case = (unbuffered, module, argv)
            assert (case, proc.returncode) == (case, 2)
            assert proc.stderr == errno_line(errno.EPIPE)


def test_csv_cell_over_field_limit_exits_two_naming_the_file(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1" * (csv.field_size_limit() + 1) + ",0\n0,0\n")
    err = run_failing(capsys, ["check", str(path)])
    assert err.startswith(f"pcgeom: error: {path}: ")
    assert "field larger than field limit" in err


@pytest.mark.parametrize("command", ["reduce", "check", "convert"])
def test_bad_format_variable_exits_two_before_reading_input(
    capsys, monkeypatch, tmp_path, command
):
    monkeypatch.setenv("PCGEOM_FORMAT", "xml")
    err = run_failing(capsys, [command, str(tmp_path / "missing.csv")])
    assert err == "pcgeom: error: PCGEOM_FORMAT='xml' is not one of json, csv, jsonl\n"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["check", "--format", "jsonl"], {}, "unsupported report format 'jsonl'"),
        (["convert", "--format", "jsonl"], {}, "unsupported matrix format 'jsonl'"),
        (["diagnose", "--format", "jsonl"], {}, "unsupported report format 'jsonl'"),
        (["indices"], {"PCGEOM_FORMAT": "jsonl"}, "unsupported report format 'jsonl'"),
        (["twoform", "-o", "out.jsonl"], {}, "unsupported report format 'jsonl'"),
    ],
)
def test_jsonl_outside_reduce_exits_two_before_reading_input(
    capsys, monkeypatch, tmp_path, argv, env, message
):
    # Only reduce writes JSON Lines; the missing input must not be reached.
    monkeypatch.chdir(tmp_path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    err = run_failing(capsys, [argv[0], "missing.csv", *argv[1:]])
    assert err == f"pcgeom: error: {message}\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_deeply_nested_json_exits_two_naming_the_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    err = run_failing(capsys, ["check", str(path)])
    assert err == f"pcgeom: error: {path}: invalid JSON (nesting too deep)\n"


def write_two_vector(tmp_path, n_text):
    path = tmp_path / "p.json"
    path.write_text(f'{{"n": {n_text}, "coords": [1, 0, 0, 0, 0, 0]}}')
    return path


@pytest.mark.parametrize("n_text", ["[4]", "null", "4.7", "true", '"4"', "1e400"])
def test_two_vector_with_non_integer_n_is_refused(tmp_path, n_text):
    path = write_two_vector(tmp_path, n_text)
    with pytest.raises(pio.FormatError) as exc:
        pio.read_two_vector(path)
    assert str(exc.value) == f"{path}: n is not an integer"


def test_two_vector_n_may_be_written_as_an_integral_float(tmp_path):
    for n_text, refused in [("4", False), ("4.0", False), ("4.5", True)]:
        path = write_two_vector(tmp_path, n_text)
        if refused:
            with pytest.raises(pio.FormatError):
                pio.read_two_vector(path)
        else:
            assert pio.read_two_vector(path).n == 4


@pytest.mark.parametrize("n_text", ["[4]", "null", "4.7", '"4"'])
def test_plucker_with_non_integer_n_exits_two(capsys, tmp_path, n_text):
    # A document with "coords" is a 2-vector, so the line names its n.
    path = write_two_vector(tmp_path, n_text)
    err = run_failing(capsys, ["plucker", str(path)])
    assert err == f"pcgeom: error: {path}: n is not an integer\n"


NEITHER_FORMAT = 'expected an object with "n" and "coords", or "u" and "v"'


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"n": 4, "coords": "abc"}', "coords is not a flat vector of numbers"),
        ('{"n": 4, "coords": "abc", "u": [1, 0], "v": [0, 1]}',
         "coords is not a flat vector of numbers"),
        ('{"coords": [1, 0, 0, 0, 0, 0], "u": [1, 0], "v": [0, 1]}',
         "{path}: n is not an integer"),
        ('{"u": "abc", "v": [0, 1]}', "u is not a flat vector of numbers"),
        ('{"coords": [1, 0, 0, 0, 0, 0]}', "{path}: " + NEITHER_FORMAT),
        ('{"u": [1, 0]}', "{path}: " + NEITHER_FORMAT),
        ("[4]", "{path}: " + NEITHER_FORMAT),
    ],
    ids=["bad-coords", "bad-coords-and-pair", "coords-and-pair-without-n",
         "bad-u", "coords-without-n", "u-without-v", "list"],
)
def test_plucker_reader_is_chosen_by_the_keys(capsys, tmp_path, doc, message):
    # A fault of the document names the file; a fault of a value, its key.
    path = tmp_path / "p.json"
    path.write_text(doc)
    err = run_failing(capsys, ["plucker", str(path)])
    assert err == f"pcgeom: error: {message.format(path=path)}\n"


MATRIX_ROWS = "[[0, 1, 3], [-1, 0, 1], [-3, -1, 0]]"
EMBEDDING_ROWS = "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"


def write_matrix_json(tmp_path, n_text):
    path = tmp_path / "m.json"
    path.write_text(f'{{"n": {n_text}, "entries": {MATRIX_ROWS}}}')
    return path


def write_embedding_json(tmp_path, n_text, rows=EMBEDDING_ROWS):
    path = tmp_path / "e.json"
    path.write_text(f'{{"n": {n_text}, "vectors": {rows}}}')
    return path


@pytest.mark.parametrize("n_text", ['"3"', "true", "false", "null", "3.5", "[3]"])
def test_matrix_and_embedding_with_non_integer_n_are_refused(tmp_path, n_text):
    for path, reader in [
        (write_matrix_json(tmp_path, n_text), pio.read_matrix),
        (write_embedding_json(tmp_path, n_text), pio.read_embedding),
    ]:
        with pytest.raises(pio.FormatError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}: n is not an integer"


@pytest.mark.parametrize("n_text", ["3", "3.0"])
def test_matrix_and_embedding_n_may_be_an_integral_float(tmp_path, n_text):
    assert pio.read_matrix(write_matrix_json(tmp_path, n_text)).n == 3
    assert pio.read_embedding(write_embedding_json(tmp_path, n_text)).n == 3


IDENTITY_4 = "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
MATRIX_3 = f'{{"n": 3, "entries": {MATRIX_ROWS}}}'


@pytest.mark.parametrize(
    "matrix_doc, embedding_doc, error, message",
    [
        ('{"n": 3, "entries": [[0, 1]', None, pio.FormatError,
         "{m}: invalid JSON (Expecting ',' delimiter: line 1 column 28 (char 27))"),
        (f'{{"n": 4, "entries": {MATRIX_ROWS}}}', None, pio.FormatError,
         "{m}: entries shape (3, 3) does not match n=4"),
        (MATRIX_3, f'{{"n": 4, "vectors": {EMBEDDING_ROWS}}}', pio.FormatError,
         "{e}: 3 vectors do not match n=4"),
        (MATRIX_3, f'{{"vectors": {IDENTITY_4}}}', PCGeomError,
         "embedding is for n=4, matrix has n=3"),
    ],
    ids=["invalid-json", "matrix-n", "embedding-n", "embedding-for-another-n"],
)
def test_documents_that_disagree_exit_two_naming_the_fault(
    capsys, tmp_path, matrix_doc, embedding_doc, error, message
):
    matrix, emb = tmp_path / "m.json", tmp_path / "e.json"
    matrix.write_text(matrix_doc)
    argv = ["indices", str(matrix)]
    if embedding_doc is not None:
        emb.write_text(embedding_doc)
        argv += ["--embedding", "custom", "--embedding-file", str(emb)]
    message = message.format(m=matrix, e=emb)
    config = build_parser().parse_args(argv)
    with pytest.raises(error) as exc:
        _embedding(config, pio.read_matrix(matrix))
    assert type(exc.value) is error
    assert str(exc.value) == message
    err = run_failing(capsys, argv)
    assert err == f"pcgeom: error: {message}\n"


def test_scalar_embedding_vectors_exit_two(capsys, tmp_path, inconsistent_csv):
    emb = write_embedding_json(tmp_path, "3", rows="5")
    argv = ["indices", inconsistent_csv, "--embedding", "custom",
            "--embedding-file", str(emb)]
    err = run_failing(capsys, argv)
    assert err == (
        "pcgeom: error: embedding must be square, got shape ()\n"
    )


@pytest.mark.parametrize(
    "rows, argv, message",
    [
        ([[0.5, 1], [-1, 0]], ["check"],
         "diagonal entry (1,1) = 0.5 exceeds tolerance 1e-09"),
        ([[0, 1, 3], [-1, 0, 1], [-3, -0.5, 0]], ["check"],
         "entries (2,3) and (3,2): a[2,3] + a[3,2] = 0.5 exceeds tolerance 1e-09"),
        ([[1, -2], [-0.5, 1]], ["check", "--mode", "multiplicative"],
         "entry (1,2) = -2.0 must be positive"),
        ([[2, 1, 1], [1, 1, 1], [1, 1, 1]], ["convert", "--mode", "multiplicative"],
         "diagonal entry (1,1) = 2.0 differs from 1 beyond tolerance 1e-09"),
        ([[1, 2], [1, 1]], ["convert", "--mode", "multiplicative"],
         "entries (1,2) and (2,1): m[1,2] * m[2,1] = 2.0 differs from 1 "
         "beyond tolerance 1e-09"),
        ([[0, 1e308], [-1e308, 0]], ["convert"],
         "exp overflow at entry (1,2); additive value 1e+308 is too large"),
        # A sum or product past the largest double fails the same check.
        ([[0, 8.988465674311579e+307], [8.98846567431158e+307, 0]], ["check"],
         "entries (1,2) and (2,1): a[1,2] + a[2,1] = inf exceeds tolerance 1e-09"),
        ([[1, 1e200], [1e200, 1]], ["check", "--mode", "multiplicative"],
         "entries (1,2) and (2,1): m[1,2] * m[2,1] = inf differs from 1 "
         "beyond tolerance 1e-09"),
    ],
    ids=["diagonal", "skew", "non-positive", "reciprocal-diagonal", "reciprocal",
         "exp-overflow", "skew-overflow", "reciprocal-overflow"],
)
def test_validation_messages_print_plain_floats(capsys, tmp_path, rows, argv, message):
    path = write_csv(tmp_path / "m.csv", rows)
    err = run_failing(capsys, [argv[0], path, *argv[1:]])
    assert err == f"pcgeom: error: {message}\n"


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("plucker", {"n": 3, "coords": [[1, 2, 3]]}, "coords"),
        ("plucker", {"u": [[1, 2], [3, 4]], "v": [1, 2, 3, 4]}, "u"),
        ("wedge", {"u": [[1, 2], [3, 4]], "v": [1, 2, 3, 4]}, "u"),
        ("wedge", {"u": [1, 2, 3, 4], "v": [[[1, 2, 3, 4]]]}, "v"),
    ],
)
def test_nested_vectors_exit_two_naming_the_key(capsys, tmp_path, command, doc, key):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    err = run_failing(capsys, [command, str(path)])
    shape = np.shape(doc[key])
    assert err == f"pcgeom: error: {key} must be a flat vector, got shape {shape}\n"


FILE_NEEDS_CUSTOM = "--embedding-file requires --embedding custom"


@pytest.mark.parametrize("command", ["indices", "embed"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--embedding", "planar", "--embedding-file", "e.json"], FILE_NEEDS_CUSTOM),
        (["--embedding", "orthogonal", "--embedding-file", "e.json"], FILE_NEEDS_CUSTOM),
        (["--embedding-file", "e.json"], FILE_NEEDS_CUSTOM),
        (["--embedding", "custom"], "custom embedding requires --embedding-file"),
    ],
    ids=["planar", "orthogonal", "file-alone", "custom-alone"],
)
def test_embedding_pairing_is_checked_before_reading_input(
    capsys, monkeypatch, tmp_path, command, flags, message
):
    # Neither the matrix nor the embedding file exists, so neither is opened.
    monkeypatch.chdir(tmp_path)
    err = run_failing(capsys, [command, "missing.csv", *flags])
    assert err == f"pcgeom: error: {message}\n"
