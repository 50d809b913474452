import atexit
import gc
import os
import sys

from .usage import build_parser


def run() -> None:
    """Entry point of ``python -m pcgeom`` and of the ``pcgeom`` script.

    The command line is parsed before ``cli`` is imported, so argparse
    answers ``--version``, ``--help`` and usage errors without loading
    numpy. A command that runs has written its output when it returns, so
    the process runs the atexit handlers, flushes stdout and stderr and
    ends with ``os._exit``, skipping the interpreter teardown that would
    free numpy's objects and modules one by one. A failed flush keeps the
    command's nonzero code, else 120, as the interpreter's own exit
    would. An uncaught exception ends the normal way, with a traceback.
    ``cli.main`` never exits, because tests and library callers run it
    in-process.

    The cyclic garbage collector is off for the whole run: a one-shot
    command builds trees of objects, not cycles, so the passes it would
    make while numpy imports free next to nothing.
    """
    gc.disable()
    args = build_parser().parse_args()
    from .cli import run as run_command

    code = run_command(args)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        # cli.run has already reported a report that could not be written.
        code = code or 120
    os._exit(code)


if __name__ == "__main__":
    run()
