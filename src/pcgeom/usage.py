"""Command-line grammar: the subcommands, their flags and help.

``parse`` reads a command line with nothing imported beyond the version,
so ``--version``, ``--help`` and usage errors are answered before numpy or
any other pcgeom module loads. ``--version`` alone, and a command, its
input and exact flag-value pairs, are read from the tables below. Any
other line (help, an abbreviated, repeated or unknown flag,
``--flag=value``, ``--``, a value that starts with ``-`` or fails its type
or choices, a missing or second input) goes to argparse, the one authority
on help text and usage errors; only then is it imported and does it build
the whole grammar. ``cli`` holds the handler of each command named here.
"""

import sys
from types import SimpleNamespace

from . import __version__

FORMATS = ("json", "csv", "jsonl")

#: The default of every setting, the same for every command, so a handler
#: can read any of them. ``format`` None is PCGEOM_FORMAT, else the output
#: extension's, else json; ``tol`` None is PCGEOM_TOL, else
#: pc_core.DEFAULT_TOLERANCE; ``mode`` None is the file's own
#: declaration, else additive.
DEFAULTS = {
    "output_path": None,
    "format": None,
    "mode": None,
    "tol": None,
    "convention": "cyclic",
    "embedding_kind": "planar",
    "embedding_file": None,
    "lam": 0.0,
    "eta": None,
    "max_steps": 1000,
}

#: argparse settings of every flag; the table parse reads its dest, type
#: and choices from here too.
_FLAGS = {
    "--output": {"dest": "output_path", "metavar": "OUTPUT"},
    "--format": {"choices": FORMATS, "dest": "format"},
    "--tol": {"type": float, "dest": "tol"},
    "--mode": {"choices": ["additive", "multiplicative"], "dest": "mode"},
    "--convention": {"choices": ["cyclic", "anticyclic"], "dest": "convention"},
    "--embedding": {
        "choices": ["planar", "orthogonal", "custom"],
        "dest": "embedding_kind",
    },
    "--embedding-file": {"dest": "embedding_file"},
    "--lambda": {"type": float, "dest": "lam"},
    "--eta": {"type": float, "dest": "eta"},
    "--max-steps": {"type": int, "dest": "max_steps"},
}

#: Short spelling: the flag it stands for.
_ALIASES = {"-o": "--output"}

#: (flag, help) of the flags every command takes, in help order.
_OUTPUT_FLAGS = (
    ("--output", "output file (default stdout)"),
    ("--format", "output format (default: from output extension, else json)"),
    ("--tol", "absolute validation / decision tolerance (default 1e-9), the "
              "same at every scale; plucker's bound is tol * max(1, |p|^2)"),
)

#: ... and of those every command that reads a matrix takes.
_MATRIX_FLAGS = (
    *_OUTPUT_FLAGS,
    ("--mode", "how to interpret the input matrix "
               "(default: the file's own mode declaration, else additive)"),
)

_EMBEDDING_FLAGS = (
    ("--embedding", None),
    ("--embedding-file", "JSON file for --embedding custom"),
)

#: name: (help, (flag, help) of each flag it takes, in help order).
COMMANDS = {
    "check": ("consistency verdict and max deviation", _MATRIX_FLAGS),
    "convert": ("additive <-> multiplicative", _MATRIX_FLAGS),
    "indices": ("algebraic and geometric inconsistency",
                (*_MATRIX_FLAGS, ("--convention", None), *_EMBEDDING_FLAGS)),
    "deviations": ("all triad deviations", _MATRIX_FLAGS),
    "embed": ("pair 2-vectors of the chosen embedding",
              (*_MATRIX_FLAGS, *_EMBEDDING_FLAGS)),
    "wedge": ('wedge product of {"u": [...], "v": [...]}', _OUTPUT_FLAGS),
    "plucker": ("quadratic-relation residuals of a 2-vector", _OUTPUT_FLAGS),
    "diagnose": ("spectral report of the coupling form",
                 (*_MATRIX_FLAGS,
                  ("--lambda", "diagonal regularization weight (default 0)"))),
    "reduce": ("iterative inconsistency reduction",
               (*_MATRIX_FLAGS,
                ("--lambda", "regularized descent weight (default 0)"),
                ("--eta", "step size (default 1/n)"), ("--max-steps", None))),
    "twoform": ("form evaluation table vs matrix entries", _MATRIX_FLAGS),
}


def _print(message: str, file=None) -> None:
    # argparse drops an OSError of this write, so an unbuffered answer
    # to a full device would exit 0 having written nothing.
    file = file or sys.stderr
    if message and file is not None:
        file.write(message)


def parse(argv: list[str] | None = None) -> SimpleNamespace:
    """The settings of command line ``argv`` (default ``sys.argv[1:]``).

    ``--version`` alone prints ``pcgeom <version>`` and raises
    ``SystemExit(0)``, as argparse's version action does. A line the table
    reads (see ``read_table``) returns at once; any other is parsed by
    argparse, which raises ``SystemExit`` after printing help or a usage
    error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"]:
        _print(f"pcgeom {__version__}\n", sys.stdout)
        raise SystemExit(0)
    settings = read_table(argv)
    if settings is None:
        settings = vars(build_parser().parse_args(argv))
    return SimpleNamespace(**settings)


def read_table(argv: list[str]) -> dict | None:
    """The settings of ``argv`` read from the tables alone, or None.

    The line must be a command, an input, then flag-value pairs: each flag
    spelled exactly, taken by the command and given once, and each value
    not starting with ``-``, converted by the flag's type and within its
    choices. The settings are then those argparse would return.
    """
    if (len(argv) < 2 or len(argv) % 2 or argv[0] not in COMMANDS
            or argv[1].startswith("-")):
        return None
    taken = {flag for flag, _ in COMMANDS[argv[0]][1]}
    settings = {**DEFAULTS, "command": argv[0], "input_path": argv[1]}
    given = set()
    for flag, value in zip(argv[2::2], argv[3::2]):
        flag = _ALIASES.get(flag, flag)
        if flag not in taken or flag in given or value.startswith("-"):
            return None
        given.add(flag)
        spec = _FLAGS[flag]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
        settings[spec["dest"]] = value
    return settings


def build_parser():
    """The argparse parser of the whole grammar, for help and usage errors."""
    import argparse

    class Version(argparse._VersionAction):
        """Prints ``pcgeom <version>`` on one line: argparse's own action
        lays it out with a help formatter, which wraps it when the
        terminal is narrow."""

        def __call__(self, parser, namespace, values, option_string=None):
            _print(f"{parser.prog} {__version__}\n", sys.stdout)
            parser.exit()

    class Parser(argparse.ArgumentParser):
        """Reports a usage error in one line and exits 2, as every other
        failure does; subparsers are built from the same class."""

        def error(self, message: str):
            self.exit(2, f"pcgeom: error: {message}\n")

        def _print_message(self, message: str, file=None) -> None:
            _print(message, file)

    parser = Parser(
        prog="pcgeom",
        description=(
            "Skew-symmetric pairwise-comparison matrices: consistency "
            "checks, pair-subspace embeddings, and inconsistency reduction."
        ),
    )
    parser.add_argument("--version", action=Version)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(**DEFAULTS)
        p.add_argument("input_path", metavar="input", help="input file")
        for flag, flag_help in flags:
            aliases = [alias for alias, long in _ALIASES.items() if long == flag]
            p.add_argument(*aliases, flag, help=flag_help, **_FLAGS[flag])
    return parser
