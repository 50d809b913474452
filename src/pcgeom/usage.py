"""Command-line grammar: the subcommands, their flags and help.

Imports only argparse and the version, so ``--version``, ``--help`` and
usage errors are answered before numpy or any other pcgeom module loads.
``cli`` holds the handler of each command named here.
"""

from __future__ import annotations

import argparse
import sys

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

#: argparse settings of the flags only some commands take.
_FLAGS = {
    "--convention": {"choices": ["cyclic", "anticyclic"]},
    "--embedding": {
        "choices": ["planar", "orthogonal", "custom"],
        "dest": "embedding_kind",
    },
    "--embedding-file": {},
    "--lambda": {"type": float, "dest": "lam"},
    "--eta": {"type": float},
    "--max-steps": {"type": int},
}

_EMBEDDING_FLAGS = (
    ("--embedding", None),
    ("--embedding-file", "JSON file for --embedding custom"),
)

#: name: (help, reads a matrix, extra (flag, help) pairs).
COMMANDS = {
    "check": ("consistency verdict and max deviation", True, ()),
    "convert": ("additive <-> multiplicative", True, ()),
    "indices": ("algebraic and geometric inconsistency", True,
                (("--convention", None), *_EMBEDDING_FLAGS)),
    "deviations": ("all triad deviations", True, ()),
    "embed": ("pair 2-vectors of the chosen embedding", True, _EMBEDDING_FLAGS),
    "wedge": ('wedge product of {"u": [...], "v": [...]}', False, ()),
    "plucker": ("quadratic-relation residuals of a 2-vector", False, ()),
    "diagnose": ("spectral report of the coupling form", True,
                 (("--lambda", "diagonal regularization weight (default 0)"),)),
    "reduce": ("iterative inconsistency reduction", True,
               (("--lambda", "regularized descent weight (default 0)"),
                ("--eta", "step size (default 1/n)"), ("--max-steps", None))),
    "twoform": ("form evaluation table vs matrix entries", True, ()),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line and exits 2, as every other
    failure does; subparsers are built from the same class."""

    def error(self, message: str):
        self.exit(2, f"pcgeom: error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        # argparse drops an OSError of this write, so an unbuffered answer
        # to a full device would exit 0 having written nothing.
        file = file or sys.stderr
        if message and file is not None:
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcgeom",
        description=(
            "Skew-symmetric pairwise-comparison matrices: consistency "
            "checks, pair-subspace embeddings, and inconsistency reduction."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, reads_matrix, extra_flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(**DEFAULTS)
        p.add_argument("input_path", metavar="input", help="input file")
        p.add_argument(
            "-o",
            "--output",
            dest="output_path",
            metavar="OUTPUT",
            help="output file (default stdout)",
        )
        p.add_argument(
            "--format",
            choices=FORMATS,
            help="output format (default: from output extension, else json)",
        )
        p.add_argument(
            "--tol",
            type=float,
            help=(
                "absolute validation / decision tolerance (default 1e-9), the "
                "same at every scale; plucker's bound is tol * max(1, |p|^2)"
            ),
        )
        if reads_matrix:
            p.add_argument(
                "--mode",
                choices=["additive", "multiplicative"],
                help=(
                    "how to interpret the input matrix "
                    "(default: the file's own mode declaration, else additive)"
                ),
            )
        for flag, flag_help in extra_flags:
            p.add_argument(flag, help=flag_help, **_FLAGS[flag])
    return parser
