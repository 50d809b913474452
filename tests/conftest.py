"""Pytest hooks shared by the suite."""

import warnings


def pytest_runtest_makereport(item):
    """Import hypothesis's patch writer, with DeprecationWarning silenced,
    when a test has failing examples to report.

    Hypothesis's pytest plugin writes those examples as a patch file
    through libcst, whose import warns DeprecationWarning (a dependency
    of it uses a deprecated name). Under the suite's warning policy that
    warning is an error, and the run would end in an INTERNALERROR
    instead of the falsifying example. Imported here first, the module is
    already loaded when the plugin asks for it.
    """
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # no libcst: the plugin skips the patch
                pass
