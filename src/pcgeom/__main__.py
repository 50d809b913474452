import atexit
import gc
import os
import sys

from .usage import parse


def _report(exc: OSError) -> int:
    """Print the error line of an answer that could not be written, if
    stderr takes it, and return exit code 2."""
    try:
        print(f"pcgeom: error: {exc}", file=sys.stderr)
    except OSError:
        pass
    return 2


def run() -> None:
    """Entry point of ``python -m pcgeom`` and of the ``pcgeom`` script.

    The command line is parsed before ``cli`` is imported, so
    ``--version``, ``--help`` and usage errors are answered without loading
    numpy, and a valid command line is read from ``usage``'s tables without
    loading argparse. A parse answer ends the process as a command's run
    does: once the output is written, the atexit handlers run, stdout and
    stderr are flushed, and ``os._exit`` skips the interpreter teardown that
    would free every loaded module one by one. The parse's ``SystemExit``
    code is mapped as the interpreter maps it. A write or flush that fails
    (a full device, a closed pipe) costs one ``pcgeom: error:`` line and
    exit 2, unless the code is already nonzero: a command has then reported
    its own failure. (Unbuffered, the parse's answer fails as it is
    written.) An uncaught exception ends the normal way, with a traceback.
    ``cli.main`` never exits, because tests and library callers run it
    in-process.

    The cyclic garbage collector is off for the whole run: a one-shot
    command builds trees of objects, not cycles, so the passes it would
    make while numpy imports free next to nothing.
    """
    gc.disable()
    try:
        args = parse()
    except SystemExit as answer:
        code = answer.code
        if code is not None and not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
        code = code or 0
    except OSError as exc:
        code = _report(exc)
    else:
        from .cli import run as run_command

        code = run_command(args)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            # None when the process started with that descriptor closed.
            if stream is not None:
                stream.flush()
        except OSError as exc:
            if not code:
                code = _report(exc)
    os._exit(code)


if __name__ == "__main__":
    run()
