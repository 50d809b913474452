import gc
import sys

from .usage import build_parser


def run() -> None:
    """Entry point of ``python -m pcgeom`` and of the ``pcgeom`` script.

    The command line is parsed before ``cli`` is imported, so argparse
    answers ``--version``, ``--help`` and usage errors without loading
    numpy. A command that runs exits with its code. Freezing the heap on
    the way out moves every tracked object, numpy's included, into the
    permanent generation, so interpreter shutdown skips collecting them;
    atexit handlers and stream flushing still run. ``cli.main`` itself
    never freezes, because tests and library callers run it in-process.
    """
    args = build_parser().parse_args()
    try:
        from .cli import config_from_args, run as run_command

        sys.exit(run_command(config_from_args(args)))
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
