"""File formats: matrices, 2-vectors, embeddings, reports, trajectories.

CSV matrices are a plain n-by-n numeric grid with no header. JSON
matrices are {"n": ..., "mode": "additive"|"multiplicative", "entries":
[[...], ...]}. Numbers are serialized at full round-trip precision (the
shortest decimal that reparses to the same double), so write-then-read is
exact. Every JSON document, matrix or report, is written compactly on a
single line followed by a newline.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, TextIO

import numpy as np

from .errors import NonFiniteResultError, PCGeomError
from .pc_core import (
    AdditiveMatrix,
    DEFAULT_TOLERANCE,
    MultiplicativeMatrix,
    new_additive,
    new_multiplicative,
)

if TYPE_CHECKING:
    from .embedding import Embedding
    from .exterior import TwoVector
    from .reduction import ReductionTrajectory

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


class FormatError(PCGeomError):
    """Input file does not parse under the declared format."""


def infer_format(path: str | Path, fallback: str | None = None) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix == ".csv":
        return "csv"
    if suffix == ".jsonl":
        return "jsonl"
    if fallback:
        return fallback
    raise FormatError(
        f"cannot infer format from {path!r}; pass an explicit format"
    )


def _parse_grid(rows: Iterable[list[str]], source: str) -> np.ndarray:
    """Stack the rows into a float grid, converting each as it arrives so
    no more than one row of cell strings is held at a time."""
    grid = []
    for r, row in enumerate(rows):
        if not row:
            continue
        try:
            grid.append(np.array([float(cell) for cell in row]))
        except ValueError as exc:
            raise FormatError(f"{source}: row {r + 1} has a non-numeric cell") from exc
    if not grid:
        raise FormatError(f"{source}: no numeric rows found")
    widths = {len(row) for row in grid}
    if len(widths) != 1:
        raise FormatError(f"{source}: rows have differing lengths {sorted(widths)}")
    return np.asarray(grid, dtype=float)


def _as_float_array(values, source: str, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{source}: {what} is not a numeric array") from exc


def _load_json_object(path: str | Path, *key_sets: tuple[str, ...]) -> dict:
    """Parse a JSON file that must hold an object with every key of one of
    the key sets."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise FormatError(f"{path}: invalid JSON (nesting too deep)") from exc
    if not isinstance(doc, dict) or not any(doc.keys() >= set(k) for k in key_sets):
        wanted = ", or ".join(" and ".join(map(json.dumps, k)) for k in key_sets)
        raise FormatError(f"{path}: expected an object with {wanted}")
    return doc


def _integer_n(n: Any, path: str | Path) -> int:
    """The "n" of a JSON document: an int or an integral float, never a bool."""
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if type(n) is not int:  # bool is a subclass of int
        raise FormatError(f"{path}: n is not an integer")
    return n


def _load_matrix_doc(path: str | Path, fmt: str, declared_mode: str | None):
    if fmt == "csv":
        with open(path, newline="") as fh:
            try:
                grid = _parse_grid(csv.reader(fh), str(path))
            except csv.Error as exc:
                raise FormatError(f"{path}: unreadable CSV ({exc})") from exc
        return grid, declared_mode or ADDITIVE
    if fmt == "json":
        doc = _load_json_object(path, ("entries",))
        mode = doc.get("mode", declared_mode or ADDITIVE)
        if declared_mode and doc.get("mode") and doc["mode"] != declared_mode:
            raise FormatError(
                f"{path}: file says mode={doc['mode']!r} but "
                f"mode={declared_mode!r} was requested"
            )
        arr = _as_float_array(doc["entries"], str(path), "entries")
        if "n" in doc and arr.shape != (_integer_n(doc["n"], path),) * 2:
            raise FormatError(
                f"{path}: entries shape {arr.shape} does not match n={doc['n']}"
            )
        return arr, mode
    raise FormatError(f"unsupported matrix format {fmt!r}")


def read_matrix(
    path: str | Path,
    fmt: str | None = None,
    mode: str | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> AdditiveMatrix | MultiplicativeMatrix:
    """Read and validate a matrix file in the declared or inferred format."""
    fmt = fmt or infer_format(path)
    arr, resolved_mode = _load_matrix_doc(path, fmt, mode)
    if resolved_mode == ADDITIVE:
        return new_additive(arr, tol=tol)
    if resolved_mode == MULTIPLICATIVE:
        return new_multiplicative(arr, tol=tol)
    raise FormatError(f"unknown matrix mode {resolved_mode!r}")


def matrix_to_dict(
    m: AdditiveMatrix | MultiplicativeMatrix, version: str | None = None
) -> dict:
    if isinstance(m, AdditiveMatrix):
        entries, mode = m.to_array(), ADDITIVE
    else:
        entries, mode = m.entries, MULTIPLICATIVE
    doc: dict[str, Any] = {
        "n": int(m.n),
        "mode": mode,
        "entries": entries.tolist(),
    }
    if version:
        doc["version"] = version
    return doc


def write_matrix(
    m: AdditiveMatrix | MultiplicativeMatrix,
    dest: TextIO,
    fmt: str = "json",
    version: str | None = None,
) -> None:
    if fmt == "json":
        _dump_json(matrix_to_dict(m, version=version), dest)
    elif fmt == "csv":
        entries = (
            m.to_array() if isinstance(m, AdditiveMatrix) else m.entries
        )
        write_grid_csv(entries, dest)
    else:
        raise FormatError(f"unsupported matrix format {fmt!r}")


def _not_finite() -> NonFiniteResultError:
    return NonFiniteResultError(
        "a result is not finite (overflow); refusing to write inf or nan"
    )


def _json_text(doc: Any) -> str:
    """Compact JSON text of doc without the non-standard NaN / Infinity
    tokens.

    ``json.dumps`` without ``indent`` runs the C encoder over the whole
    document; floats still go through ``float.__repr__``, so every value
    reparses to the same double.
    """
    try:
        return json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise _not_finite() from exc


def _dump_json(doc: Any, dest: TextIO) -> None:
    """Write doc as one line of JSON, in a single write."""
    dest.write(_json_text(doc) + "\n")


def write_grid_csv(entries: np.ndarray, dest: TextIO) -> None:
    entries = np.asarray(entries)
    if not np.all(np.isfinite(entries)):
        raise _not_finite()
    writer = csv.writer(dest)
    for row in entries:
        writer.writerow([repr(float(v)) for v in row])


def two_vector_to_dict(p: TwoVector) -> dict:
    return {"n": int(p.n), "coords": p.coords.tolist()}


def _flat(doc: dict, key: str, path: str | Path) -> np.ndarray:
    """doc[key] as numbers; a nested list is refused, not flattened."""
    arr = _as_float_array(doc[key], str(path), key)
    if arr.ndim > 1:
        raise FormatError(f"{path}: {key} is nested; expected a flat list of numbers")
    return arr


def read_two_vector(path: str | Path) -> TwoVector:
    """Read a 2-vector {"n": ..., "coords": [...]}, or a vector pair
    {"u": [...], "v": [...]} as its wedge u ^ v.

    The keys decide: a document with "coords" is a 2-vector, one with "u"
    and "v" and no "coords" a vector pair.
    """
    from .exterior import new_two_vector, wedge

    doc = _load_json_object(path, ("n", "coords"), ("u", "v"))
    if "coords" not in doc:
        return wedge(_flat(doc, "u", path), _flat(doc, "v", path))
    coords = _flat(doc, "coords", path)
    return new_two_vector(_integer_n(doc.get("n"), path), coords)


def read_vector_pair(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read {"u": [...], "v": [...]} for wedge-style commands."""
    doc = _load_json_object(path, ("u", "v"))
    return _flat(doc, "u", path), _flat(doc, "v", path)


def read_embedding(path: str | Path) -> Embedding:
    """Read a custom embedding {"n": ..., "vectors": [[...], ...]}."""
    from .embedding import custom_embedding

    doc = _load_json_object(path, ("vectors",))
    vectors = _as_float_array(doc["vectors"], str(path), "vectors")
    if "n" in doc:
        n = _integer_n(doc["n"], path)
        # A 0-d "vectors" is left to custom_embedding's shape check.
        if vectors.ndim and vectors.shape[0] != n:
            raise FormatError(
                f"{path}: {vectors.shape[0]} vectors do not match n={doc['n']}"
            )
    return custom_embedding(vectors)


def write_report(report: dict, dest: TextIO, fmt: str = "json") -> None:
    """Write a report as a JSON document or as key,value CSV rows."""
    if fmt == "json":
        _dump_json(report, dest)
    elif fmt == "csv":
        writer = csv.writer(dest)
        for key, value in report.items():
            if isinstance(value, (list, dict)):
                value = _json_text(value)
            elif isinstance(value, float):
                if not math.isfinite(value):
                    raise _not_finite()
                value = repr(value)
            writer.writerow([key, value])
    else:
        raise FormatError(f"unsupported report format {fmt!r}")


def write_trajectory_jsonl(
    trajectory: ReductionTrajectory, dest: TextIO
) -> None:
    """One JSON record per descent step: {"step", "I_alg", "I_geom"}."""
    dest.write("".join(_json_text(r) + "\n" for r in trajectory.records()))


def dumps_report(report: dict, fmt: str = "json") -> str:
    buf = _io.StringIO()
    write_report(report, buf, fmt=fmt)
    return buf.getvalue()
