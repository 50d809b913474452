"""Hostile input files, each run as its own ``python -m pcgeom`` child
under a 1 GB address-space cap and a 60 s timeout, one child at a time.

Whatever the file holds, the child ends by the CLI's contract: exit 0, 1
or 2, with a strict JSON report on stdout for 0 and 1, and exactly one
stderr line, starting ``pcgeom: error:``, for 2. Every file here is one
the CLI must refuse, so each child exits 2: no traceback, no exit code
above 2, no report. So is a request whose result cannot be held: it is
refused before any of the work that leads up to it.
"""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

#: Address-space cap of each child, in bytes.
CAP = 1 << 30
HALF_MAX = sys.float_info.max / 2

#: id: (command and flags, file name, file bytes)
HOSTILE = {
    "ragged-matrix": (["check"], "m.json", '{"n": 2, "entries": [[0, 1], [-1]]}'),
    "text-matrix": (["check"], "m.json", '{"n": 2, "entries": [["0", "1"], ["-1", "0"]]}'),
    "boolean-matrix": (["check"], "m.json",
                       '{"mode": "multiplicative", "entries": [[true, true], [true, true]]}'),
    "text-and-boolean-vectors": (["wedge"], "uv.json", '{"u": ["1", "2e0"], "v": [true, 4]}'),
    "ragged-coords": (["plucker"], "p.json", '{"n": 3, "coords": [[1], [2, 3]]}'),
    "boolean-vectors": (["plucker"], "p.json", '{"u": [true, false], "v": [false, true]}'),
    "deep-nesting": (["check"], "m.json", "[" * 100_000),
    "byte-0xff": (["check"], "m.json", b'{"entries": [[0\xff]]}'),
    "huge-n": (["plucker"], "p.json", json.dumps({"n": 10**9, "coords": [1]})),
    "boolean-n": (["plucker"], "p.json", '{"n": true, "coords": [1]}'),
    "empty-csv": (["check"], "m.csv", ""),
    "csv-cell-over-the-field-limit": (["check"], "m.csv", "0," + "1" * 200_000 + "\n"),
    "text-beside-a-huge-integer": (["wedge"], "uv.json",
                                   '{"u": [111111111111111111111111111111, "1"], "v": [1, 2]}'),
    "integer-past-the-digit-limit": (["wedge"], "uv.json",
                                     '{"u": [' + "9" * 5000 + ', 1], "v": [1, 2]}'),
    "integer-past-the-float-range": (["wedge"], "uv.json",
                                     '{"u": [' + "9" * 400 + ', 1], "v": [1, 2]}'),
    "half-dbl-max": (["reduce"], "m.csv", "\n".join(
        ",".join(repr(HALF_MAX * ((j > i) - (j < i))) for j in range(3)) for i in range(3)
    ) + "\n"),
}


def _capped() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


@pytest.mark.parametrize("case", HOSTILE)
def test_a_hostile_file_ends_by_the_cli_contract(tmp_path, case):
    argv, name, content = HOSTILE[case]
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", argv[0], str(path), *argv[1:]],
        capture_output=True, text=True, errors="replace", timeout=60,
        preexec_fn=_capped, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, (proc.returncode, proc.stdout[:200], proc.stderr[-2000:])
    assert len(lines) == 1 and lines[0].startswith("pcgeom: error: "), proc.stderr[-2000:]
    assert proc.stdout == ""


def test_orthogonal_embed_at_n_1000_is_refused_before_any_gather(tmp_path):
    # The matrix of all pair wedges is C(n,2) x C(n,2), 1.82 TiB at n = 1000.
    # It is allocated before v_i and v_j are gathered for every pair (two
    # (499500, 1000) arrays of 3.7 GiB each), so it is what numpy refuses.
    s = np.arange(1000.0)
    path = tmp_path / "a.csv"
    np.savetxt(path, np.subtract.outer(s, s), delimiter=",", fmt="%d")
    proc = subprocess.run(
        [sys.executable, "-m", "pcgeom", "embed", str(path), "--embedding", "orthogonal"],
        capture_output=True, text=True, errors="replace", timeout=60,
        preexec_fn=_capped, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, (proc.returncode, proc.stdout[:200], proc.stderr[-2000:])
    assert proc.stdout == ""
    assert len(lines) == 1 and lines[0].startswith("pcgeom: error: out of memory ("), lines
    assert "(499500, 499500)" in lines[0], lines
