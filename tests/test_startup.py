"""Start-up contract: ``import pcgeom`` is lazy, a CLI process loads only
the modules its command runs, ``--version``, ``--help`` and usage errors
load neither numpy nor the command modules, a command and ``--version``
load no argparse, and the ``python -m pcgeom`` exit path, which skips
interpreter teardown after parse answers and commands alike, still ends
with every byte written and the command's exit code."""

import json
import subprocess
import sys
from math import comb

import numpy as np
import pytest

import pcgeom
from pcgeom import usage
from pcgeom.cli import main

#: What ``import pcgeom.cli`` loads: the modules every matrix command uses,
#: plus coupling, whose CouplingMap the bench launcher wraps.
CLI_MODULES = {
    "pcgeom",
    "pcgeom.cli",
    "pcgeom.coupling",
    "pcgeom.errors",
    "pcgeom.indexing",
    "pcgeom.io",
    "pcgeom.pc_core",
    "pcgeom.usage",
}

#: What ``python -m pcgeom`` loads when the parse answers on its own.
USAGE_MODULES = {"pcgeom", "pcgeom.usage"}

def probe(tracked: tuple[str, ...]) -> str:
    """Code that runs ``python -m pcgeom ARGS`` through runpy, as ``-m``
    does, and prints the loaded pcgeom modules, and those of ``tracked``
    that loaded, to stderr from an atexit handler."""
    return (
        "import atexit, json, runpy, sys\n"
        "atexit.register(lambda: print(json.dumps(sorted(\n"
        "    m for m in sys.modules\n"
        f"    if m in {tracked!r}\n"
        "    or m.split('.')[0] == 'pcgeom')),\n"
        "    file=sys.stderr))\n"
        "sys.argv[0] = 'pcgeom'\n"
        "runpy.run_module('pcgeom', run_name='__main__', alter_sys=True)\n"
    )


#: The value types are plain classes, so no command loads dataclasses
#: (numpy itself imports none); orjson loads only to write a document of
#: many numbers, and the commands run below write small ones; argparse
#: loads only to answer help or a usage error.
PROBE = probe(("numpy", "dataclasses", "orjson", "argparse"))


def loaded_after(code: str) -> set[str]:
    """pcgeom modules, and dataclasses if it loaded, in sys.modules after
    running code in a fresh interpreter."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m == 'dataclasses' or m.split('.')[0] == 'pcgeom']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout))


def test_import_pcgeom_loads_no_submodule():
    assert loaded_after("import pcgeom") == {"pcgeom"}


def test_import_cli_loads_only_shared_modules():
    loaded = loaded_after("import pcgeom.cli")
    assert "dataclasses" not in loaded
    assert loaded == CLI_MODULES


def test_import_reduction_loads_no_coupling():
    # The descent takes its lambda check from pc_core, not coupling.
    assert loaded_after("import pcgeom.reduction") == {
        "pcgeom", "pcgeom.errors", "pcgeom.indexing", "pcgeom.pc_core",
        "pcgeom.reduction",
    }


def write_matrix_csv(path, n):
    rng = np.random.default_rng(n)
    raw = np.triu(rng.normal(size=(n, n)), 1)
    np.savetxt(path, raw - raw.T, delimiter=",", fmt="%.17g")
    return str(path)


@pytest.fixture
def matrix_csv(tmp_path):
    return write_matrix_csv(tmp_path / "a.csv", 8)


def loaded_by(argv: list[str]) -> set[str]:
    """Modules loaded by ``python -m pcgeom ARGV``, which must succeed."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True
    )
    assert proc.returncode in (0, 1)
    json.loads(proc.stdout)
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize(
    "command, extra",
    [
        ("check", set()),
        ("convert", set()),
        ("deviations", set()),
        ("reduce", {"pcgeom.reduction"}),
        ("diagnose", set()),
    ],
)
def test_command_loads_only_its_modules(matrix_csv, command, extra):
    loaded = loaded_by([command, matrix_csv])
    assert "dataclasses" not in loaded
    assert loaded == CLI_MODULES | extra | {"numpy"}


def test_a_line_the_table_does_not_read_is_parsed_by_argparse(matrix_csv):
    # --tol=VALUE is valid, but only argparse reads that spelling.
    loaded = loaded_by(["check", matrix_csv, "--tol=1e-9"])
    assert loaded == CLI_MODULES | {"numpy", "argparse"}


EMBEDDING = {"pcgeom.embedding"}
EXTERIOR = {"pcgeom.exterior"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        pytest.param(["indices", "a.csv"], EMBEDDING, id="indices-planar"),
        pytest.param(["indices", "a.csv", "--embedding", "orthogonal"],
                     EMBEDDING, id="indices-orthogonal"),
        pytest.param(["indices", "a.csv", "--convention", "anticyclic",
                      "--embedding", "custom", "--embedding-file", "emb.json"],
                     EMBEDDING, id="indices-custom"),
        pytest.param(["twoform", "a.csv"], {"pcgeom.twoform"}, id="twoform"),
        pytest.param(["embed", "a.csv"], EMBEDDING | EXTERIOR, id="embed"),
        pytest.param(["wedge", "pair.json"], EXTERIOR, id="wedge"),
        pytest.param(["plucker", "p.json"], EXTERIOR, id="plucker"),
    ],
)
def test_geometry_command_loads_only_its_modules(tmp_path, matrix_csv, argv, extra):
    """Of embedding and exterior, a command loads only what it runs: the
    geometric index needs no wedge, and twoform's table neither."""
    rng = np.random.default_rng(8)
    docs = {
        "pair.json": {"u": rng.normal(size=8).tolist(), "v": rng.normal(size=8).tolist()},
        "p.json": {"n": 8, "coords": rng.normal(size=comb(8, 2)).tolist()},
        "emb.json": {"n": 8, "vectors": rng.normal(size=(8, 8)).tolist()},
    }
    paths = {"a.csv": matrix_csv}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(json.dumps(doc))
    loaded = loaded_by([paths.get(arg, arg) for arg in argv])
    assert loaded == CLI_MODULES | extra | {"numpy"}


def test_failing_command_exits_two_and_still_runs_atexit(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, "check", str(tmp_path / "missing.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    error, probe = proc.stderr.splitlines()
    assert error.startswith("pcgeom: error: ") and "missing.csv" in error
    assert set(json.loads(probe)) == CLI_MODULES | {"numpy"}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["check", "--help"], 0),
        (["check"], 2),
    ],
)
def test_parser_answers_without_numpy(argv, code):
    """--version is read from the command table; help and usage errors go
    to argparse."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True
    )
    assert proc.returncode == code
    extra = set() if argv == ["--version"] else {"argparse"}
    assert set(json.loads(proc.stderr.splitlines()[-1])) == USAGE_MODULES | extra


@pytest.mark.parametrize("argv, wraps", [(["--version"], False), (["--help"], True)])
def test_version_skips_the_help_formatter(argv, wraps):
    """--version writes its one line itself; argparse's help formatter,
    which imports textwrap to wrap text, runs only for help."""
    proc = subprocess.run(
        [sys.executable, "-c", probe(("textwrap",)), *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert ("textwrap" in json.loads(proc.stderr.splitlines()[-1])) is wraps


#: Holds an object until interpreter teardown, whose finalizer then
#: writes a marker to stderr; a process that ends with os._exit skips the
#: teardown and never writes it.
TEARDOWN_MARKER = (
    "import os\n"
    "class Teardown:\n"
    "    def __del__(self, write=os.write):\n"
    "        write(2, b'teardown\\n')\n"
    "held = Teardown()\n"
)


def run_with_teardown_marker(code: str, argv: list[str]):
    return subprocess.run(
        [sys.executable, "-c", TEARDOWN_MARKER + code, *argv],
        capture_output=True,
        text=True,
    )


def test_teardown_marker_shows_an_interpreter_exit():
    proc = run_with_teardown_marker("import pcgeom.usage", [])
    assert (proc.returncode, proc.stderr) == (0, "teardown\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["check", "--help"], 0),
        (["check"], 2),
        (["check", "a.csv"], 1),
    ],
)
def test_every_ending_skips_interpreter_teardown(matrix_csv, argv, code):
    """Parse answers, usage errors and commands all end with os._exit,
    after the atexit handlers have run."""
    argv = [matrix_csv if arg == "a.csv" else arg for arg in argv]
    proc = run_with_teardown_marker(PROBE, argv)
    assert proc.returncode == code
    assert "teardown" not in proc.stderr
    assert proc.stderr.endswith("]\n")


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["--version"], False),
        (["check", "m38.csv"], False),
        (["deviations", "m8.csv"], False),
        (["deviations", "m38.csv"], True),
        (["deviations", "m37.csv"], False),
    ],
)
def test_orjson_loads_only_for_a_document_over_the_threshold(tmp_path, argv, loads):
    """io._ORJSON_FROM counts floats. The deviations report holds one float
    a triad, next to its three integer labels: 7770 at n=37, just under
    the threshold, and 8436 at n=38, over it. check writes a few numbers
    whatever n is."""
    from pcgeom import io as pio

    assert comb(37, 3) < pio._ORJSON_FROM <= comb(38, 3)
    paths = {
        f"m{n}.csv": write_matrix_csv(tmp_path / f"m{n}.csv", n) for n in (8, 37, 38)
    }
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *(paths.get(arg, arg) for arg in argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 1)
    assert ("orjson" in json.loads(proc.stderr.splitlines()[-1])) is loads


def test_module_help_matches_in_process_help(capsys, monkeypatch):
    # argparse wraps help at the terminal width; fix it for both processes.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["--help"])
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("command", list(usage.COMMANDS))
def test_module_command_help_matches_in_process_help(capsys, monkeypatch, command):
    # argparse wraps help at the terminal width; fix it for both processes.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", command, "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.startswith(f"usage: pcgeom {command} [-h]")


def test_exports_are_their_defining_objects():
    for name, module in pcgeom._EXPORTS.items():
        value = getattr(pcgeom, name)
        assert value is getattr(getattr(pcgeom, module), name)
        assert getattr(value, "__module__", f"pcgeom.{module}") == f"pcgeom.{module}"


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from pcgeom import *", namespace)
    assert set(pcgeom.__all__) <= set(namespace)
    assert set(pcgeom.__all__) <= set(dir(pcgeom))


def test_submodules_resolve_without_explicit_import():
    assert loaded_after("import pcgeom; pcgeom.pc_core; pcgeom.indexing") == {
        "pcgeom", "pcgeom.errors", "pcgeom.indexing", "pcgeom.pc_core",
    }


def test_unknown_name_raises_attribute_error():
    for name in ["no_such_name", "PluckerResidualSet", "plucker_residuals",
                 "planar_pair_subspaces", "diagnose", "SpectralDiagnosis",
                 "CouplingMatrix", "regularize", "quadratic_inconsistency",
                 "GeometricDeviation", "evaluation_table", "dumps_report",
                 "nearest_consistent_oracle", "ScoreVector", "DeviationVector",
                 "UnsupportedSizeError", "build_M", "pair_subspace",
                 "geometric_deviation", "DegeneratePairWarning"]:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(pcgeom, name)


def test_module_exit_writes_whole_report_to_pipe(tmp_path):
    rng = np.random.default_rng(60)
    s = rng.normal(size=60)
    e = np.triu(rng.normal(scale=0.3, size=(60, 60)), 1)
    path = tmp_path / "m60.csv"
    np.savetxt(path, np.subtract.outer(s, s) + e - e.T, delimiter=",", fmt="%.17g")
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", "deviations", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.endswith("}\n") and proc.stdout.count("\n") == 1
    report = json.loads(proc.stdout)
    assert report["n"] == 60
    assert len(report["values"]) == len(report["triads"]) == comb(60, 3)
