import gc
import sys

from .cli import main


def run() -> None:
    """Entry point of ``python -m pcgeom`` and of the ``pcgeom`` script.

    Exits with ``main``'s code. Freezing the heap on the way out moves
    every tracked object, numpy's included, into the permanent generation,
    so interpreter shutdown skips collecting them; atexit handlers and
    stream flushing still run. ``main`` itself never freezes, because
    tests and library callers run it in-process.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
