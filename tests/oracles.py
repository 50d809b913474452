"""The reader and writer forms that ``pcgeom.io`` replaced, kept as test
oracles: the ``csv.reader`` + ``float()`` grid parser, and the writers
that built every document as plain dicts and lists for ``json.dumps`` and
``csv.writer``."""

import csv
import json
import math

import numpy as np

from pcgeom import io as pio
from pcgeom.errors import NonFiniteResultError
from pcgeom.pc_core import AdditiveMatrix


# ------------------------------------------------------------------ reading


def parse_csv_grid(path):
    """The grid of a CSV matrix file as csv.reader and float() read it,
    converting each row as it arrives."""
    source = str(path)
    with open(path, encoding="utf-8", newline="") as fh:
        grid = []
        try:
            for r, row in enumerate(csv.reader(fh)):
                if not row:
                    continue
                try:
                    grid.append(np.array([float(cell) for cell in row]))
                except ValueError as exc:
                    raise pio.FormatError(
                        f"{source}: row {r + 1} has a non-numeric cell"
                    ) from exc
        except csv.Error as exc:
            raise pio.FormatError(f"{path}: unreadable CSV ({exc})") from exc
    if not grid:
        raise pio.FormatError(f"{source}: no numeric rows found")
    widths = {len(row) for row in grid}
    if len(widths) != 1:
        raise pio.FormatError(f"{source}: rows have differing lengths {sorted(widths)}")
    return np.asarray(grid, dtype=float)


# ------------------------------------------------------------------ writing


def matrix_to_dict(m, version=None):
    if isinstance(m, AdditiveMatrix):
        entries, mode = m.to_array(), pio.ADDITIVE
    else:
        entries, mode = m.entries, pio.MULTIPLICATIVE
    doc = {"n": int(m.n), "mode": mode, "entries": entries.tolist()}
    if version:
        doc["version"] = version
    return doc


def two_vector_to_dict(p):
    return {"n": int(p.n), "coords": p.coords.tolist()}


def records(trajectory):
    """One plain dict per descent step."""
    return [
        {"step": s.index, "I_alg": s.i_alg, "I_geom": s.i_geom}
        for s in trajectory.steps
    ]


def plain(value):
    """A document of the new writer as the plain dicts and lists the old
    one was given: a Table as one dict per row, an array as its nested
    lists, an additive matrix as its full entries."""
    if isinstance(value, pio.Table):
        columns = [column.tolist() for column in value.values()]
        return [dict(zip(value, row)) for row in zip(*columns)]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, AdditiveMatrix):
        return value.to_array().tolist()
    return value


def json_text(doc):
    try:
        return json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError("not finite") from exc


def write_grid_csv(entries, dest):
    entries = np.asarray(entries)
    if not np.all(np.isfinite(entries)):
        raise NonFiniteResultError("not finite")
    writer = csv.writer(dest)
    for row in entries:
        writer.writerow([repr(float(v)) for v in row])


def write_report(report, dest, fmt="json"):
    report = plain(report)
    if fmt == "json":
        dest.write(json_text(report) + "\n")
        return
    writer = csv.writer(dest)
    for key, value in report.items():
        if isinstance(value, (list, dict)):
            value = json_text(value)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise NonFiniteResultError("not finite")
            value = repr(value)
        writer.writerow([key, value])


def write_matrix(m, dest, fmt="json", version=None):
    if fmt == "json":
        dest.write(json_text(matrix_to_dict(m, version=version)) + "\n")
    else:
        write_any_grid_csv(m if isinstance(m, AdditiveMatrix) else m.entries, dest)


def write_trajectory_jsonl(trajectory, dest):
    dest.write("".join(json_text(r) + "\n" for r in records(trajectory)))


def write_any_grid_csv(entries, dest):
    """The old grid writer, given what the new one takes."""
    if isinstance(entries, AdditiveMatrix):
        entries = entries.to_array()
    write_grid_csv(entries, dest)


#: Each public writer of pcgeom.io and its old form.
WRITERS = {
    "write_report": write_report,
    "write_matrix": write_matrix,
    "write_grid_csv": write_any_grid_csv,
    "write_trajectory_jsonl": write_trajectory_jsonl,
}
