"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs():
    namespace = {}
    exec(compile(quick_start_block(), str(README), "exec"), namespace)
    assert namespace["trajectory"].converged
    assert namespace["residuals"].tolist() == [0.0]
