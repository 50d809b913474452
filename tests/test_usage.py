"""The command-table parse (``usage.read_table``) against argparse.

Whenever the table reads a command line, its settings are those of
argparse's namespace for the same line; every request line of the
benchmark is read by the table; and ``--version``, and each help or usage
error the table leaves to argparse, print argparse's own bytes and exit
code.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgeom import __version__, usage
from pcgeom.cli import main
from test_bench_oracle import workloads

#: argparse's parser of the whole grammar, which no parse changes, built
#: once for the module.
PARSER = usage.build_parser()

#: Values of every kind a flag takes, and some none takes: numbers as
#: argparse's float and int read them, choices, file names, text.
VALUES = sorted({
    *(choice for spec in usage._FLAGS.values() for choice in spec.get("choices", ())),
    "0", "7", "1e-3", "2.5", " 3 ", "1_000", "nan", "inf", "0x10", "1.5e", "abc",
    "in.csv", "out.json", "x.jsonl", "",
})
#: Tokens argparse reads in ways the table does not: help, abbreviations,
#: --flag=value, the end of options, negative numbers, other flags.
JUNK = ["--emb", "--tol=1", "-h", "--help", "--", "-1", "-1e-3", "", "--version",
        "--bogus", "-oout.json", "--format=json", "--em", "-", "check"]
FLAGS = [*usage._FLAGS, *usage._ALIASES]
#: Junk that argparse may read as an option, or as the end of options,
#: where a value is due.
DASHED = [token for token in JUNK if token.startswith("-")]


@st.composite
def command_lines(draw) -> list[str]:
    """A command and an input, then flag-value pairs drawn from the table,
    with a junk token, a flag of another command, a dashed value or a
    repeated flag now and then."""
    command = draw(st.sampled_from(list(usage.COMMANDS)))
    flags = [flag for flag, _ in usage.COMMANDS[command][1]] + ["-o"]
    argv = [command, draw(st.sampled_from(["in.csv", "m.json", "", "-", "-x"]))]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(flags) | st.sampled_from(FLAGS))
        choices = usage._FLAGS[usage._ALIASES.get(flag, flag)].get("choices")
        value = draw(st.sampled_from(list(choices)) if choices and draw(st.booleans())
                     else st.sampled_from(VALUES) | st.sampled_from(DASHED))
        argv += [flag, value]
    if draw(st.integers(0, 3)) == 0:  # a junk token put in, or in place of one
        k = draw(st.integers(0, len(argv)))
        argv[k:k + draw(st.integers(0, 1))] = [draw(st.sampled_from(JUNK))]
    return argv


def same_settings(table: dict, namespace) -> bool:
    """Equal keys, and equal values of one type; NaN equals NaN."""
    theirs = vars(namespace)
    return table.keys() == theirs.keys() and all(
        type(value) is type(theirs[key])
        and (value == theirs[key] or repr(value) == repr(theirs[key]) == "nan")
        for key, value in table.items()
    )


@settings(max_examples=800, deadline=None)
@given(command_lines() | st.lists(st.sampled_from(JUNK + VALUES + FLAGS), max_size=6))
def test_the_table_reads_a_line_as_argparse_does(argv):
    table = usage.read_table(argv)
    if table is not None:
        assert same_settings(table, PARSER.parse_args(argv)), argv


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_distinct_flags_with_valid_values_are_read_by_the_table(data):
    command = data.draw(st.sampled_from(list(usage.COMMANDS)))
    taken = [flag for flag, _ in usage.COMMANDS[command][1]]
    argv = [command, "in.csv"]
    for flag in data.draw(st.lists(st.sampled_from(taken), unique=True)):
        spec = usage._FLAGS[flag]
        valid = spec.get("choices") or {int: ["1", "7"], float: ["1", "2.5e-3"],
                                        None: ["out.json", "7"]}[spec.get("type")]
        value = data.draw(st.sampled_from(valid))
        argv += [data.draw(st.sampled_from(["-o", flag])) if flag == "--output"
                 else flag, value]
    table = usage.read_table(argv)
    assert table is not None, argv
    assert same_settings(table, PARSER.parse_args(argv))


def test_every_benchmark_request_is_read_by_the_table(tmp_path):
    requests = [req for name in workloads.WORKLOADS
                for req in workloads.build(name, 1, tmp_path / name)[0]]
    assert len(requests) == 28
    for req in requests:
        argv = list(req.argv)
        table = usage.read_table(argv)
        assert table is not None, argv
        assert same_settings(table, PARSER.parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["--help"], ["check", "--help"], ["check"], ["bogus", "in"],
     ["check", "in", "--emb", "planar"], ["check", "in", "--format", "xml"],
     ["check", "in", "--tol", "abc"], ["reduce", "in", "--max-steps", "1.5"],
     ["check", "in", "out"], ["--version", "check"]],
    ids=lambda argv: " ".join(argv),
)
def test_a_parse_answer_is_argparse_s(capsys, monkeypatch, argv):
    """--version (read from the table) and every line argparse answers
    print the bytes and exit code of argparse's own parse."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as ours:
        main(argv)
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as theirs:
        PARSER.parse_args(argv)
    assert (ours.value.code, printed) == (theirs.value.code, capsys.readouterr())


@pytest.mark.parametrize("columns", ["10", "80"])
@pytest.mark.parametrize(
    "argv", [["--vers"], ["--version", "check"], ["--version", "--help"]],
    ids=lambda argv: " ".join(argv),
)
def test_argparse_prints_the_version_on_one_line(capsys, monkeypatch, argv, columns):
    """The lines argparse reads for --version print the table's line,
    which argparse's own version action would wrap in a narrow terminal."""
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr()) == (0, (f"pcgeom {__version__}\n", ""))
