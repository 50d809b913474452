"""File formats: matrices, 2-vectors, embeddings, reports, trajectories.

CSV matrices are a plain n-by-n numeric grid with no header, read by
numpy's C parser under the rules of ``csv.reader``'s default dialect.
JSON matrices are {"n": ..., "mode": "additive"|"multiplicative",
"entries": [[...], ...]}. Numbers are serialized at full round-trip
precision (the shortest decimal that reparses to the same double), so
write-then-read is exact. Every JSON document, matrix or report, is
written compactly on a single line followed by a newline.

Reading parses a document and checks its keys, "mode" and "n"; its raw
arrays go to the constructors, whose one gate (``pc_core._input_array``)
turns them into floats.

Documents are written straight from numpy arrays, a block of rows at a
time, with the bytes of ``json.dumps(doc)`` for the equivalent document
of plain lists and dicts (and of ``csv.writer`` for CSV output). Every
value is checked finite before the first byte is written, except the
rows of a :class:`RowStream`, each block of which is checked as it is
computed.

The writer takes JSON values, arrays, row streams and tables; a matrix
enters it only as :func:`matrix_document`, whose entries are an array
(an additive matrix's ``to_array()``), for JSON and CSV alike. Arrays,
tables and CSV grids are written a block of rows at a time; each block's
numbers come from one call that writes its compact JSON text, and the
pieces go to ``dest.writelines`` as they are made, so only one block's
text is held at a time. A document whose arrays and tables hold at
least ``_ORJSON_FROM`` floats takes that text from ``orjson``,
which writes the digits of ``float.__repr__``; runs of items holding a
float it lays out otherwise (1e-9 <= |x| < 1e-4, |x| >= 1e16) are
written by ``json.dumps``, as a smaller document is, which never
imports orjson.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, TextIO

import numpy as np

from .errors import NonFiniteResultError, PCGeomError
from .pc_core import (
    AdditiveMatrix,
    DEFAULT_TOLERANCE,
    MultiplicativeMatrix,
    _integral,
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
    fmt = {".json": "json", ".csv": "csv", ".jsonl": "jsonl"}.get(suffix, fallback)
    if fmt:
        return fmt
    raise FormatError(
        f"cannot infer format from {path!r}; pass an explicit format"
    )


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8 text ({exc})")


# ------------------------------------------------------------------ reading

#: numpy's C reader set to csv.reader's default dialect: comma-separated
#: cells, double quotes, no comment syntax.
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)
#: The lines csv.reader reads as an empty record, which hold no row.
_BLANK = frozenset({"\n", "\r\n", "\r"})


def _check_field_limit(line: str) -> None:
    """Raise csv.Error if a cell of line is over csv's field limit; the
    csv module's own check, run only on lines long enough to fail it."""
    import csv

    for _ in csv.reader([line]):
        pass


def _records(lines: Iterable[str], limit: int) -> Iterator[str]:
    """The lines that hold a record, for np.loadtxt.

    Raises at a line with a cell over the field limit, and at the end of
    a file without a record, so that the reader diagnoses both.
    """
    empty = True
    for line in lines:
        if line in _BLANK:
            continue
        if len(line) > limit:
            _check_field_limit(line)
        empty = False
        yield line
    if empty:
        raise ValueError("no record")


def _csv_fault(path: str | Path) -> str:
    """Why the CSV file at path is not a numeric grid, by csv.reader's
    rules: the first row, in file order, with a cell over the field limit
    or a non-numeric cell; else no row at all, or rows of differing
    lengths. Runs only after the bulk parse failed."""
    import csv

    limit = csv.field_size_limit()
    widths = set()
    with open(path, encoding="utf-8", newline="") as fh:
        for r, line in enumerate(fh, 1):
            if line in _BLANK:
                continue
            if len(line) > limit:
                try:
                    _check_field_limit(line)
                except csv.Error as exc:
                    return f"unreadable CSV ({exc})"
            try:
                widths.add(np.loadtxt([line], **_LOADTXT).shape[1])
            except ValueError:
                return f"row {r} has a non-numeric cell"
    if not widths:
        return "no numeric rows found"
    return f"rows have differing lengths {sorted(widths)}"


def _read_csv_grid(path: str | Path) -> np.ndarray:
    import csv

    try:
        with open(path, encoding="utf-8", newline="") as fh:
            try:
                return np.loadtxt(
                    _records(fh, csv.field_size_limit()), **_LOADTXT
                )
            except (ValueError, csv.Error):
                pass  # diagnosed by _csv_fault, which reads the file again
        fault = _csv_fault(path)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    raise FormatError(f"{path}: {fault}")


def _load_json_object(path: str | Path, *key_sets: tuple[str, ...]) -> dict:
    """Parse a JSON file that must hold an object with every key of one of
    the key sets."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
        except ValueError as exc:  # a syntax error, or an integer of too many digits
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise FormatError(f"{path}: invalid JSON (nesting too deep)") from exc
    if not isinstance(doc, dict) or not any(doc.keys() >= set(k) for k in key_sets):
        wanted = ", or ".join(" and ".join(map(json.dumps, k)) for k in key_sets)
        raise FormatError(f"{path}: expected an object with {wanted}")
    return doc


def _integer_n(n: Any, path: str | Path) -> int:
    """The "n" of a JSON document, by ``pc_core._integral``'s rule."""
    whole = _integral(n)
    if whole is None:
        raise FormatError(f"{path}: n is not an integer")
    return whole


def _check_n(doc: dict, n: int, path: str | Path, mismatch: str) -> None:
    """Refuse a document whose "n" is not n, that of the value built from
    it, by the line "{path}: {mismatch} n=<its n>"."""
    if "n" in doc and _integer_n(doc["n"], path) != n:
        raise FormatError(f"{path}: {mismatch} n={doc['n']}")


def read_matrix(
    path: str | Path,
    fmt: str | None = None,
    mode: str | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> AdditiveMatrix | MultiplicativeMatrix:
    """Read and validate a matrix file in the declared or inferred format."""
    fmt = fmt or infer_format(path)
    if fmt == "csv":
        doc = {"entries": _read_csv_grid(path)}
    elif fmt == "json":
        doc = _load_json_object(path, ("entries",))
        if mode and doc.get("mode") and doc["mode"] != mode:
            raise FormatError(
                f"{path}: file says mode={doc['mode']!r} but "
                f"mode={mode!r} was requested"
            )
    else:
        raise FormatError(f"unsupported matrix format {fmt!r}")
    resolved_mode = doc.get("mode", mode or ADDITIVE)
    if resolved_mode not in (ADDITIVE, MULTIPLICATIVE):
        raise FormatError(f"{path}: unknown matrix mode {resolved_mode!r}")
    build = new_additive if resolved_mode == ADDITIVE else new_multiplicative
    m = build(doc["entries"], tol=tol)
    _check_n(doc, m.n, path, f"entries shape {(m.n, m.n)} does not match")
    return m


def read_two_vector(path: str | Path) -> TwoVector:
    """Read a 2-vector {"n": ..., "coords": [...]}, or a vector pair
    {"u": [...], "v": [...]} as its wedge u ^ v.

    The keys decide: a document with "coords" is a 2-vector, one with "u"
    and "v" and no "coords" a vector pair.
    """
    from .exterior import new_two_vector, wedge

    doc = _load_json_object(path, ("n", "coords"), ("u", "v"))
    if "coords" not in doc:
        return wedge(doc["u"], doc["v"])
    return new_two_vector(_integer_n(doc.get("n"), path), doc["coords"])


def read_vector_pair(path: str | Path) -> tuple[Any, Any]:
    """Read {"u": [...], "v": [...]} for wedge-style commands: the raw
    values, which ``wedge`` checks."""
    doc = _load_json_object(path, ("u", "v"))
    return doc["u"], doc["v"]


def read_embedding(path: str | Path) -> Embedding:
    """Read a custom embedding {"n": ..., "vectors": [[...], ...]}."""
    from .embedding import custom_embedding

    doc = _load_json_object(path, ("vectors",))
    emb = custom_embedding(doc["vectors"])
    _check_n(doc, emb.n, path, f"{emb.n} vectors do not match")
    return emb


# ------------------------------------------------------------------ writing


class Table(dict):
    """A JSON list of objects held as one array per key: row r is the
    object {key: column[r]} in key order. A 2-D column gives each row a
    list of numbers."""

    def __init__(self, **columns: np.ndarray) -> None:
        super().__init__(columns)
        if len({len(column) for column in columns.values()}) > 1:
            raise ValueError("table columns differ in length")


class RowStream:
    """A grid of ``shape`` numbers of ``dtype`` whose rows ``rows(s)`` computes
    for a slice s. It has an array's length, slices (each checked finite) and
    float count, so it stands for an array in reports, tables and CSV grids;
    integer rows may come as their text inside a list, which is written as is."""

    __slots__ = ("shape", "rows", "dtype")
    ndim = 2

    def __init__(self, shape: tuple[int, int], rows: Callable, dtype=float) -> None:
        self.shape, self.rows, self.dtype = shape, rows, np.dtype(dtype)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, s: slice) -> np.ndarray:
        block = self.rows(s)
        _check_finite(block)
        return block


def matrix_document(
    m: AdditiveMatrix | MultiplicativeMatrix, version: str | None = None
) -> dict:
    """The JSON document of a matrix; its "entries" are an n-by-n array,
    an additive matrix's its ``to_array()``. The one place where an
    additive matrix becomes numbers to write, as JSON or as CSV."""
    if isinstance(m, AdditiveMatrix):
        doc: dict[str, Any] = {"n": int(m.n), "mode": ADDITIVE, "entries": m.to_array()}
    else:
        doc = {"n": int(m.n), "mode": MULTIPLICATIVE, "entries": m.entries}
    if version:
        doc["version"] = version
    return doc


def steps_table(trajectory: ReductionTrajectory) -> Table:
    """One record per descent step: {"step", "I_alg", "I_geom"}."""
    return Table(
        step=np.arange(len(trajectory.i_alg)),
        I_alg=np.array(trajectory.i_alg, dtype=float),
        I_geom=np.array(trajectory.i_geom, dtype=float),
    )


#: Numbers per block of text: each block is formatted, written and freed
#: before the next, so a document's text never exists whole.
_BLOCK = 1 << 14
#: A document whose arrays hold at least this many floats takes their
#: text from orjson. Importing orjson after numpy costs about 4 ms (it
#: loads uuid, zoneinfo and sysconfig); it then formats a float in about
#: 0.04 us against 0.55 us for json.dumps (blocks of 16384 N(0,1) numbers,
#: by timeit on a 2-vCPU machine). So it pays from about 8000 floats, and
#: a smaller document never imports it. Integers are not counted: orjson
#: saves only about 0.1 us on each.
_ORJSON_FROM = 8_000


def _check_finite(value: Any) -> int:
    """The count of floats that value's arrays hold; raises
    NonFiniteResultError if any value, in them or not, is not finite."""
    if isinstance(value, (np.ndarray, RowStream)):  # streams check their slices
        count = math.prod(value.shape) if value.dtype.kind == "f" else 0
        finite = isinstance(value, RowStream) or not count or np.isfinite(value).all()
    elif isinstance(value, dict):
        return sum(map(_check_finite, value.values()))
    elif isinstance(value, (list, tuple)):
        return sum(map(_check_finite, value))
    else:
        finite = not isinstance(value, float) or math.isfinite(value)
        count = 0
    if not finite:
        raise NonFiniteResultError(
            "a result is not finite (overflow); refusing to write inf or nan"
        )
    return count


def _use_orjson(value: Any) -> bool:
    """Check every value finite, and say whether the arrays hold enough
    floats for their text to come from orjson. Chosen once per document:
    a table's blocks are each too small to pay for the import."""
    return _check_finite(value) >= _ORJSON_FROM


def _blocks(rows: int, width: int) -> Iterator[slice]:
    """Slices of a run of rows of ``width`` numbers each, about _BLOCK
    numbers to a slice."""
    step = max(1, _BLOCK // max(1, width))
    return (slice(k, k + step) for k in range(0, rows, step))


def _row_blocks(value: np.ndarray | RowStream) -> Iterator[np.ndarray]:
    """The rows of an array or a row stream, about _BLOCK numbers at a
    time."""
    width = math.prod(value.shape[1:])
    return (value[rows] for rows in _blocks(len(value), width))


def _text(block: np.ndarray, fast: bool) -> str:
    """The compact JSON text of a 1-D or 2-D numeric block, as
    ``json.dumps(block.tolist(), separators=(",", ":"))`` writes it. With
    fast, orjson writes it: float.__repr__'s digits, but 1e-9 <= |x| <
    1e-4 and |x| >= 1e16 laid out its own way (0.00001 for 1e-05, 1e16 for
    1e+16). The items (rows, in 2-D) holding such a number take
    json.dumps's text, and so does a block made mostly of them."""
    dtype = block.dtype
    # orjson writes these dtypes as float.__repr__ and int.__repr__ do.
    if not (fast and dtype.isnative and (dtype.kind in "iub" or dtype == np.float64)):
        return json.dumps(block.tolist(), separators=(",", ":"))
    odd = np.zeros(len(block), dtype=bool)
    if dtype.kind == "f":
        size = np.abs(block)
        odd = (size >= 1e-9) & (size < 1e-4) | (size >= 1e16)
        odd = odd if block.ndim == 1 else odd.any(axis=1)
    if 2 * np.count_nonzero(odd) > len(block):
        return _text(block, False)
    import orjson

    block = np.ascontiguousarray(block)
    if not odd.any():
        return orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    # Runs of odd and other items alternate: each run of others is written
    # by one orjson call, and the odd runs are cut from one json.dumps text.
    cut, sep = block.ndim, "," if block.ndim == 1 else "],["
    plain = iter(_text(block[odd], False)[cut:-cut].split(sep))
    cuts = [0, *(np.flatnonzero(odd[1:] != odd[:-1]) + 1).tolist(), len(block)]
    runs = (
        sep.join(islice(plain, b - a)) if odd[a] else
        orjson.dumps(block[a:b], option=orjson.OPT_SERIALIZE_NUMPY).decode()[cut:-cut]
        for a, b in zip(cuts, cuts[1:])
    )
    return "[" * cut + sep.join(runs) + "]" * cut


def _cells(block: np.ndarray, fast: bool) -> list[str]:
    """JSON text of each item along the first axis of a block: a number,
    or a row's numbers joined by ", " without its brackets."""
    if isinstance(block, str):  # rows' text, written as it is
        return block[1:-1].split("], [")
    text = _text(block, fast)
    if block.ndim == 1:
        return text[1:-1].split(",")
    return text[2:-2].replace(",", ", ").split("], [")


def _table_rows(table: Table, fast: bool) -> Iterator[list[str]]:
    """JSON text of the table's row objects, a block of rows at a time.
    The head of each column closes the list of a 2-D column before it and
    opens its own."""
    columns = list(table.values())
    closes = ["", *("]" if column.ndim == 2 else "" for column in columns)]
    seps = chain("{", repeat(", "))
    heads = [
        close + sep + json.dumps(key) + (": [" if column.ndim == 2 else ": ")
        for close, sep, key, column in zip(closes, seps, table, columns)
    ]
    end = closes[-1] + "}"
    width = sum(math.prod(column.shape[1:]) for column in columns)
    for rows in _blocks(len(columns[0]) if columns else 0, width):
        parts = chain.from_iterable(
            (repeat(head), _cells(column[rows], fast))
            for head, column in zip(heads, columns)
        )
        yield list(map("".join, zip(*parts, repeat(end))))


def _list(texts: Iterable[str]) -> Iterator[str]:
    """A JSON list whose items come as texts of runs of items."""
    yield "["
    sep = ""
    for text in texts:
        yield sep + text
        sep = ", "
    yield "]"


def _pieces(value: Any, fast: bool) -> Iterator[str]:
    """The text of json.dumps(value) in pieces, where arrays, row streams
    and tables stand for the lists they hold; with fast, their numbers
    come from orjson."""
    if isinstance(value, Table):
        yield from _list(map(", ".join, _table_rows(value, fast)))
    elif isinstance(value, dict):
        sep = "{"
        for key, item in value.items():
            yield sep + json.dumps(key) + ": "
            yield from _pieces(item, fast)
            sep = ", "
        yield "}" if value else "{}"
    elif isinstance(value, (np.ndarray, RowStream)):
        texts = (b if isinstance(b, str) else _text(b, fast)[1:-1].replace(",", ", ")
                 for b in _row_blocks(value))
        yield from _list(texts)
    else:
        yield json.dumps(value)


def _write_json(doc: dict, dest: TextIO) -> None:
    """Write doc as one line of JSON; a Table as JSON Lines, one line per
    row. Nothing is written unless every value is finite; then the pieces
    go to dest.writelines as they are made, a block's text at a time."""
    fast = _use_orjson(doc)
    if isinstance(doc, Table):
        dest.writelines("\n".join(rows) + "\n" for rows in _table_rows(doc, fast))
    else:
        dest.writelines(_pieces(doc, fast))
        dest.write("\n")


def _csv_cell(pieces: Iterable[str]) -> Iterator[str]:
    """One cell of csv.writer's default dialect: quoted, with quotes
    doubled, when its text holds a comma, a quote or a line break."""
    pieces = iter(pieces)
    head = []
    for piece in pieces:
        head.append(piece)
        if any(c in piece for c in ',"\r\n'):
            yield '"'
            for text in chain(head, pieces):
                yield text.replace('"', '""')
            yield '"'
            return
    yield "".join(head)


def _csv_text(value: Any, fast: bool) -> Iterator[str]:
    """The cell csv.writer writes for a report value: JSON for lists,
    dicts, arrays and tables, the repr of a float, str of the rest."""
    if isinstance(value, (list, dict, np.ndarray, RowStream)):
        return _csv_cell(_pieces(value, fast))
    if isinstance(value, float):
        return _csv_cell([float.__repr__(value)])
    return _csv_cell(["" if value is None else str(value)])


def write_grid_csv(entries: RowStream | np.ndarray, dest: TextIO) -> None:
    """Write a grid as CSV rows of its entries; nothing unless every
    entry is finite (a row stream: nothing past a non-finite block)."""
    if not isinstance(entries, RowStream):
        entries = np.asarray(entries, dtype=float)
    fast = _use_orjson(entries)
    # One split and one join: a replace of "],[" runs about 25% slower.
    rows = (_text(block, fast)[2:-2].split("],[") for block in _row_blocks(entries))
    dest.writelines("\r\n".join(block) + "\r\n" for block in rows)


def write_matrix(
    m: AdditiveMatrix | MultiplicativeMatrix,
    dest: TextIO,
    fmt: str = "json",
    version: str | None = None,
) -> None:
    if fmt == "json":
        _write_json(matrix_document(m, version=version), dest)
    elif fmt == "csv":
        write_grid_csv(matrix_document(m)["entries"], dest)
    else:
        raise FormatError(f"unsupported matrix format {fmt!r}")


def write_report(report: dict, dest: TextIO, fmt: str = "json") -> None:
    """Write a report as a JSON document or as key,value CSV rows. Values
    are JSON values, numpy arrays, Tables or matrix documents."""
    if fmt == "json":
        _write_json(report, dest)
    elif fmt == "csv":
        fast = _use_orjson(report)
        for key, value in report.items():
            cell = _csv_text(value, fast)
            dest.writelines(chain(_csv_cell([key]), ",", cell, "\r\n"))
    else:
        raise FormatError(f"unsupported report format {fmt!r}")


def write_trajectory_jsonl(
    trajectory: ReductionTrajectory, dest: TextIO
) -> None:
    """One JSON record per descent step: {"step", "I_alg", "I_geom"}."""
    _write_json(steps_table(trajectory), dest)
