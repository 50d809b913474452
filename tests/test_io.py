"""pcgeom.io against the forms it replaced: the CSV reader against
csv.reader + float(), the array writer against json.dumps and csv.writer
over plain dicts and lists (both kept in oracles.py)."""

import csv
import io
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcgeom import (
    NonFiniteResultError,
    new_additive,
    reduce_iterative,
    to_multiplicative,
)
from pcgeom import io as pio
from pcgeom.cli import main
from pcgeom.pc_core import AdditiveMatrix

import oracles

# ------------------------------------------------------------------ reading

#: Cells that parse as numbers: reprs (signed zeros, subnormals, inf, nan
#: included), other exponent forms, integers and the spelled-out words.
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:e}".format),
    st.floats(allow_nan=False, width=32).map("{:.3E}".format),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        "-0", "+0", "-0.0", ".5", "5.", "+1e5", "1E-05", "1e400", "-1e-400",
        "5e-324", "2.2250738585072014e-308", "1e300", "-1e-300",
        "inf", "-inf", "+inf", "Infinity", "-Infinity", "iNf",
        "nan", "NaN", "-nan", "+NaN",
    ]),
)
#: Cells that do not.
JUNK = st.sampled_from([
    "", "x", "1x", "--1", "1e", "e5", "0x10", "1 2", ".", "+", "-", "nan1",
    "infinityy", '1"2', "1,5",
])
#: Whitespace that float() and numpy both strip around a number.
SPACE = st.text(alphabet=" \t\x0b\x0c", max_size=2)


@st.composite
def cells(draw):
    text = draw(SPACE) + draw(st.one_of(NUMBERS, NUMBERS, JUNK)) + draw(SPACE)
    if draw(st.booleans()) and draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_texts(draw):
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = []
    for row in draw(st.lists(st.lists(cells(), min_size=1, max_size=4), max_size=5)):
        lines.extend(draw(ends) for _ in range(draw(st.integers(0, 1))))
        lines.append(",".join(row) + draw(ends))
    text = "".join(lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(read, path):
    try:
        grid = read(path)
    except pio.FormatError as exc:
        return "error", str(exc)
    return grid.shape, grid.tobytes()


def matrix_outcome(read):
    try:
        return "ok", read().upper.tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "m.csv"


@settings(max_examples=600, deadline=None)
@given(text=csv_texts(), limit=st.sampled_from([None, 6, 12, 24]))
def test_reader_matches_csv_reader_and_float(csv_path, text, limit):
    csv_path.write_bytes(text.encode())
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        assert outcome(pio._read_csv_grid, csv_path) == outcome(
            oracles.parse_csv_grid, csv_path
        )
    finally:
        csv.field_size_limit(default)


@st.composite
def square_grids(draw):
    n = draw(st.integers(2, 4))
    return [[draw(NUMBERS) for _ in range(n)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(grid=square_grids())
# a[1,2] + a[2,1] overflows to inf, which must fail the skew check, not warn.
@example(grid=[["0", "8.988465674311579e+307"], ["8.98846567431158e+307", "0"]])
def test_square_grids_reach_the_same_validation(csv_path, grid):
    # inf and nan cells end in the same NonFiniteEntryError, finite ones
    # in the same matrix or the same validation message.
    csv_path.write_text("".join(",".join(row) + "\n" for row in grid))
    assert matrix_outcome(lambda: pio.read_matrix(csv_path)) == matrix_outcome(
        lambda: new_additive(oracles.parse_csv_grid(csv_path))
    )


def test_non_finite_cells_exit_two_naming_the_entry(capsys, tmp_path):
    for word in ["inf", "-Infinity", "nan", "NaN", "1e400"]:
        path = tmp_path / "m.csv"
        path.write_text(f"0,{word}\n-1,0\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "pcgeom: error: entry (1,2) is not finite\n"
        )


def test_underscored_digits_are_a_non_numeric_cell(tmp_path):
    # float() reads "1_0" as 10; numpy's parser, and so the reader, refuses it.
    path = tmp_path / "m.csv"
    path.write_text("0,1_0\n-1_0,0\n")
    assert float("1_0") == 10.0
    with pytest.raises(pio.FormatError) as exc:
        pio.read_matrix(path)
    assert str(exc.value) == f"{path}: row 1 has a non-numeric cell"


def test_reader_skips_blank_lines_and_strips_quotes_and_spaces(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('\n"0", 1 \r\n\r\n-1,0')
    assert pio._read_csv_grid(path).tolist() == [[0.0, 1.0], [-1.0, 0.0]]


@pytest.mark.parametrize(
    "name, argv",
    [("bad.csv", ["check"]), ("bad.json", ["check"]), ("bad.json", ["wedge"])],
)
def test_input_that_is_not_utf8_exits_two_naming_the_file(
    capsys, tmp_path, name, argv
):
    path = tmp_path / name
    path.write_bytes(b"\xff0,1\n-1,0\n")
    assert main([argv[0], str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"pcgeom: error: {path}: not UTF-8 text ('utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte)\n"
    )


def test_bytes_that_are_not_utf8_after_good_rows_name_the_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"0,1\n-1,0\n" * 2000 + b"\xfe\n")
    with pytest.raises(pio.FormatError, match=f"^{path}: not UTF-8 text "):
        pio.read_matrix(path)


def test_unknown_json_mode_exits_two_naming_the_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "mode": "weird", "entries": [[0, 1], [-1, 0]]}))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pcgeom: error: {path}: unknown matrix mode 'weird'\n"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: pio.infer_format("m.txt"), pio.FormatError,
         "cannot infer format from 'm.txt'; pass an explicit format"),
        (lambda: pio.Table(a=np.zeros(2), b=np.zeros(3)), ValueError,
         "table columns differ in length"),
        (lambda: pio.read_matrix("m.csv", fmt="xml"), pio.FormatError,
         "unsupported matrix format 'xml'"),
        (lambda: pio.write_matrix(new_additive(np.zeros((2, 2))), io.StringIO(),
                                  fmt="xml"),
         pio.FormatError, "unsupported matrix format 'xml'"),
        (lambda: pio.write_report({}, io.StringIO(), fmt="xml"), pio.FormatError,
         "unsupported report format 'xml'"),
    ],
    ids=["infer-without-fallback", "table-ragged", "read-matrix-format",
         "write-matrix-format", "write-report-format"],
)
def test_refusals_name_the_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


# ------------------------------------------------------------------ writing

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
           -1e300, 1e-300, -1e-300, 0.1, 0.1, -0.1, 1.0, 1.0, 123456789.0]


def special_matrix(n, rng):
    """A skew matrix whose upper triangle draws from SPECIAL."""
    upper = rng.choice(SPECIAL, size=n * (n - 1) // 2)
    raw = np.zeros((n, n))
    raw[np.triu_indices(n, k=1)] = upper
    raw[np.tril_indices(n, k=-1)] = -raw.T[np.tril_indices(n, k=-1)]
    return new_additive(raw)


def written(writer, *args, **kwargs):
    buf = io.StringIO()
    writer(*args, buf, **kwargs)
    return buf.getvalue()


def assert_same_text(got: str, want: str) -> None:
    """Assert got == want. On a mismatch, report both lengths, the first
    differing offset and 60 characters either side of it: pytest's diff
    of two whole documents of up to ~170 kB takes minutes to render."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        window = slice(max(at - 60, 0), at + 60)
        pytest.fail(
            f"texts differ: lengths {len(got)} and {len(want)}, "
            f"first at offset {at}\n"
            f"got:  {got[window]!r}\nwant: {want[window]!r}"
        )


@pytest.mark.parametrize("n", [2, 3, 7, 40])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_matrix_bytes_match_plain_writers(n, fmt):
    rng = np.random.default_rng(n)
    matrices = [special_matrix(n, rng)]
    raw = np.triu(rng.normal(size=(n, n)), 1)
    matrices.append(new_additive(raw - raw.T))
    matrices.append(to_multiplicative(matrices[-1]))
    for m in matrices:
        for version in (None, "0.1.0"):
            kwargs = {"version": version} if fmt == "json" else {}
            assert_same_text(
                written(pio.write_matrix, m, fmt=fmt, **kwargs),
                written(oracles.write_matrix, m, fmt=fmt, **kwargs),
            )


def test_additive_matrix_text_flips_signs_like_to_array():
    a = new_additive([[0.0, 0.0, -0.0], [-0.0, 0.0, 5e-324], [0.0, -5e-324, 0.0]])
    doc = json.loads(written(pio.write_matrix, a))
    want = a.to_array()
    got = np.array(doc["entries"])
    assert got.tobytes() == want.tobytes()  # -0.0 where to_array has it


def special_report(rng):
    values = rng.choice(SPECIAL, size=11)
    labels = np.arange(22).reshape(11, 2)
    return {
        "command": "x",
        "n": 11,
        "flag": True,
        "none": None,
        "tolerance": 1e-9,
        "values": values,
        "labels": labels,
        "empty": np.empty((0, 4), dtype=np.intp),
        "table": pio.Table(
            i=labels[:, 0], v=values, row=np.outer(values, values[:3]),
            zero=values == 0.0,
        ),
        "empty_table": pio.Table(
            quad=np.empty((0, 4), dtype=np.intp), value=np.empty(0)
        ),
        "one": np.array([2.5]),
        "plain": [1.0, [2, -0.0], {"a": 5e-324}],
        "matrix": pio.matrix_document(special_matrix(4, rng)),
    }


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_bytes_match_plain_writers(fmt):
    rng = np.random.default_rng(3)
    for _ in range(5):
        report = special_report(rng)
        assert_same_text(
            written(pio.write_report, report, fmt=fmt),
            written(oracles.write_report, report, fmt=fmt),
        )


def test_long_tables_and_arrays_are_written_in_blocks(monkeypatch):
    # Blocks of 7 numbers, so every table and array spans several blocks.
    monkeypatch.setattr(pio, "_BLOCK", 7)
    rng = np.random.default_rng(5)
    for fmt in ("json", "csv"):
        report = special_report(rng)
        assert_same_text(
            written(pio.write_report, report, fmt=fmt),
            written(oracles.write_report, report, fmt=fmt),
        )


def test_trajectory_lines_match_plain_writer():
    rng = np.random.default_rng(9)
    raw = np.triu(rng.normal(size=(12, 12)), 1)
    trajectory = reduce_iterative(new_additive(raw - raw.T), eta=1e-3, max_steps=60)
    assert_same_text(
        written(pio.write_trajectory_jsonl, trajectory),
        written(oracles.write_trajectory_jsonl, trajectory),
    )


# The documents above hold fewer numbers than _ORJSON_FROM, so their
# numbers are formatted by float.__repr__; the same tests run again with
# every array number from orjson.


@pytest.fixture
def by_orjson(monkeypatch):
    """Every document's array numbers from orjson, whatever its size."""
    monkeypatch.setattr(pio, "_ORJSON_FROM", 0)


@pytest.mark.parametrize("n", [2, 3, 7, 40])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_matrix_bytes_match_plain_writers_by_orjson(by_orjson, n, fmt):
    test_matrix_bytes_match_plain_writers(n, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_bytes_match_plain_writers_by_orjson(by_orjson, fmt):
    test_report_bytes_match_plain_writers(fmt)


def test_long_tables_and_arrays_are_written_in_blocks_by_orjson(
    by_orjson, monkeypatch
):
    test_long_tables_and_arrays_are_written_in_blocks(monkeypatch)


def test_trajectory_lines_match_plain_writer_by_orjson(by_orjson):
    test_trajectory_lines_match_plain_writer()


def neighbours(x, k=50):
    """x and the k doubles on each side of it, without inf."""
    down, up = [x], [x]
    with np.errstate(over="ignore"):
        for _ in range(k):
            down.append(np.nextafter(down[-1], -math.inf))
            up.append(np.nextafter(up[-1], math.inf))
    family = np.array(down[::-1] + up[1:])
    return family[np.isfinite(family)]


#: Where orjson's layout of a float leaves float.__repr__'s (1e-9, 1e-4
#: and 1e16), one step inside it (1e-5) and outside it (1e-10), and the
#: ends of the doubles.
BOUNDARY = np.concatenate([
    sign * neighbours(x)
    for x in [1e-10, 1e-9, 1e-4, 1e-5, 1e16, 5e-324, sys.float_info.max]
    for sign in (1.0, -1.0)
])


def assert_written_as_plain(report, grid):
    for fmt in ("json", "csv"):
        assert_same_text(
            written(pio.write_report, report, fmt=fmt),
            written(oracles.write_report, report, fmt=fmt),
        )
    assert_same_text(
        written(pio.write_grid_csv, grid),
        written(oracles.write_grid_csv, grid),
    )


@pytest.mark.parametrize("threshold", [0, pio._ORJSON_FROM])
@pytest.mark.parametrize("in_range", [0, 2])
def test_boundary_floats_match_plain_writers(monkeypatch, threshold, in_range):
    """The boundary floats alone, mostly out of orjson's layout, so that a
    block of them is left to float.__repr__; and followed by twice as many
    in-range floats, so that orjson writes the block and each number out
    of its layout is patched in."""
    monkeypatch.setattr(pio, "_ORJSON_FROM", threshold)
    rng = np.random.default_rng(4)
    values = np.concatenate([BOUNDARY, rng.normal(size=in_range * len(BOUNDARY))])
    rows = values[: len(values) // 3 * 3].reshape(-1, 3)
    assert_written_as_plain({"values": values, "rows": rows}, rows)


@pytest.mark.parametrize(
    "odd", [1e-05, -5e-324, 1e16, -1.7976931348623157e308, -1e-9]
)
def test_row_with_one_out_of_range_float_matches_plain_writers(by_orjson, odd):
    rows = np.random.default_rng(2).normal(size=(6, 5))
    rows[2, 3] = odd
    table = pio.Table(i=np.arange(6), row=rows)
    assert_written_as_plain({"rows": rows, "table": table}, rows)


def test_orjson_lays_out_floats_below_1e_9_as_repr():
    """_text leaves 0 < |x| < 1e-9 to orjson, subnormals included: its
    text of them is float.__repr__'s. An orjson that lays them out its own
    way fails here rather than in a report."""
    import orjson

    rng = np.random.default_rng(9)
    top = np.array(1e-9).view(np.int64)
    bits = rng.integers(1, top, size=50_000).view(np.float64)
    scaled = np.concatenate([rng.normal(size=200) * 10.0**k for k in range(-324, -8)])
    values = np.concatenate([
        bits,
        scaled[(scaled != 0) & (np.abs(scaled) < 1e-9)],
        neighbours(1e-9)[:50],
        5e-324 * np.arange(1, 100),
    ])
    values = np.concatenate([values, -values])
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    assert text[1:-1].split(",") == list(map(float.__repr__, values.tolist()))


def sprinkled_matrix(n, rng):
    """A skew matrix of N(0,1) entries with n // 10 upper ones ±0.0 and
    n // 10 drawn from SPECIAL and BOUNDARY, so that most rows take
    orjson's text and the rows holding a float outside its layout are
    patched in."""
    raw = np.triu(rng.normal(size=(n, n)), 1)
    rows, cols = np.triu_indices(n, k=1)
    picks = rng.choice(len(rows), size=n // 10 * 2, replace=False)
    raw[rows[picks], cols[picks]] = np.concatenate([
        rng.choice([0.0, -0.0], size=n // 10),
        rng.choice(np.concatenate([SPECIAL, BOUNDARY]), size=n // 10),
    ])
    return new_additive(raw - raw.T)


def test_large_document_takes_orjson_numbers_at_the_real_threshold():
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.normal(size=pio._ORJSON_FROM), BOUNDARY])
    rows = rng.normal(size=(300, 7))
    rows[::17, 3] = 1e-7
    report = {
        "values": values,
        "rows": rows,
        "table": pio.Table(quad=rng.integers(0, 99, size=(300, 4)), value=rows[:, 0]),
        "matrix": pio.matrix_document(special_matrix(30, rng)),
    }
    assert pio._use_orjson(report)
    assert_written_as_plain(report, rows)
    # 150^2 = 22500 floats: nearly every row of the special matrix holds
    # a float outside orjson's layout, few of the sprinkled.
    for m in (special_matrix(150, rng), sprinkled_matrix(150, rng)):
        assert pio._use_orjson(pio.matrix_document(m))
        for fmt in ("json", "csv"):
            assert_same_text(
                written(pio.write_matrix, m, fmt=fmt),
                written(oracles.write_matrix, m, fmt=fmt),
            )


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60
    ),
    width=st.integers(1, 6),
)
def test_orjson_numbers_match_plain_writers(values, width):
    a = np.array(values)
    rows = np.resize(a, (-(-len(a) // width), width))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pio, "_ORJSON_FROM", 0)
        assert_written_as_plain({"values": a, "rows": rows}, rows)


#: Floats orjson lays out its own way, either sign.
ODD_FLOATS = st.one_of(
    st.floats(1e-9, 1e-4, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
).flatmap(lambda x: st.sampled_from([x, -x]))
#: Floats it writes as float.__repr__ does: signed zeros, subnormals,
#: 0 < |x| < 1e-9, and 1e-4 <= |x| < 1e16.
PLAIN_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-1e-9, 1e-9, exclude_min=True, exclude_max=True),
    st.floats(1e-4, 1e16, exclude_max=True).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
)


@st.composite
def float_blocks(draw):
    """A 1-D or 2-D float64 block of one or several items (rows), the items
    holding a float outside orjson's layout placed as one item, a run,
    every other item, a majority or at random."""
    length = draw(st.integers(1, 12))
    width = draw(st.sampled_from([None, 1, 3]))
    shape = (length,) if width is None else (length, width)
    size = math.prod(shape)
    items = draw(st.lists(PLAIN_FLOATS, min_size=size, max_size=size))
    block = np.array(items).reshape(shape)
    k = np.arange(length)
    start, stop = sorted(draw(st.lists(st.integers(0, length), min_size=2, max_size=2)))
    odd = draw(st.sampled_from([
        k == start % length,
        (start <= k) & (k < stop),
        k % 2 == start % 2,
        k != start % length,
        np.array(draw(st.lists(st.booleans(), min_size=length, max_size=length))),
    ]))
    for item in np.flatnonzero(odd):
        column = () if width is None else (draw(st.integers(0, width - 1)),)
        block[(item, *column)] = draw(ODD_FLOATS)
    return block


@st.composite
def integer_blocks(draw):
    """A 1-D or 2-D int64, uint8 or bool block of one or several items."""
    dtype, values = draw(st.sampled_from([
        (np.int64, st.integers(-2**63, 2**63 - 1)),
        (np.uint8, st.integers(0, 255)),
        (np.bool_, st.booleans()),
    ]))
    shape = draw(st.sampled_from([(1,), (5,), (1, 3), (4, 2)]))
    size = math.prod(shape)
    items = draw(st.lists(values, min_size=size, max_size=size))
    return np.array(items, dtype=dtype).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(block=st.one_of(float_blocks(), integer_blocks()), fast=st.booleans())
def test_block_text_is_compact_json_dumps(block, fast):
    """One call writes a block's text: json.dumps's compact text of its
    lists, whichever of json.dumps and orjson writes it."""
    want = json.dumps(block.tolist(), separators=(",", ":"))
    assert pio._text(block, fast) == want


@settings(max_examples=100, deadline=None)
@given(block=float_blocks(), integers=integer_blocks(), fast=st.booleans())
def test_float32_and_byte_swapped_blocks_take_json_dumps(block, integers, fast):
    """orjson writes a float32's digits, not the double's that json.dumps
    writes, and reads a byte-swapped array's bytes in native order."""
    import orjson

    def refuse(*args, **kwargs):
        raise AssertionError("orjson asked to write a float32 or byte-swapped block")

    # Clipped to float32's range, so that the cast stays finite.
    others = [np.clip(block, -1e38, 1e38).astype(np.float32)]
    for native in (block, integers):
        if native.dtype.itemsize > 1:
            others.append(native.astype(native.dtype.newbyteorder()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orjson, "dumps", refuse)
        for other in others:
            want = json.dumps(other.tolist(), separators=(",", ":"))
            assert pio._text(other, fast) == want


@pytest.mark.parametrize("threshold", [0, pio._ORJSON_FROM])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_of_1d_2d_and_bool_columns_matches_plain_writers(
    monkeypatch, threshold, fmt
):
    monkeypatch.setattr(pio, "_ORJSON_FROM", threshold)
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(40, 3))
    rows[5, 1], rows[9:13, 0], rows[20:40:2, 2] = 1e-5, 1e16, -3e-7
    table = pio.Table(
        i=np.arange(40),
        row=rows,
        flag=rows[:, 0] > 0,
        pair=rng.integers(0, 9, size=(40, 2)),
        signs=rows > 0,
        value=rows[:, 2],
        none=np.empty((40, 0)),
    )
    report = {"table": table, "last": pio.Table(row=rows[:3])}
    assert_same_text(
        written(pio.write_report, report, fmt=fmt),
        written(oracles.write_report, report, fmt=fmt),
    )


def test_additive_matrix_counts_as_all_its_entries():
    """An additive matrix is written as its n^2 entries, so orjson writes
    it from n = 100, 10^4 floats, though its upper triangle holds 4950."""
    rng = np.random.default_rng(100)
    for n, fast in ((99, False), (100, True)):
        raw = np.triu(rng.normal(size=(n, n)), 1)
        assert pio._use_orjson(pio.matrix_document(new_additive(raw - raw.T))) is fast


@pytest.mark.parametrize(
    "where", ["values", "table", "matrix", "plain", "tolerance"]
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_anywhere_writes_nothing(where, fmt):
    report = special_report(np.random.default_rng(1))
    if where == "values":
        report["values"][3] = math.nan
    elif where == "table":
        report["table"]["row"][5, 1] = math.inf
    elif where == "matrix":
        report["matrix"]["entries"] = AdditiveMatrix(
            3, np.array([0.0, -math.inf, 0.0])
        ).to_array()
    elif where == "plain":
        report["plain"][1][1] = math.nan
    else:
        report["tolerance"] = -math.inf
    buf = io.StringIO()
    with pytest.raises(NonFiniteResultError):
        pio.write_report(report, buf, fmt)
    assert buf.getvalue() == ""


def test_non_finite_step_writes_no_line():
    steps = pio.Table(step=np.arange(3), I_alg=np.array([1.0, 0.5, math.inf]))
    buf = io.StringIO()
    with pytest.raises(NonFiniteResultError):
        pio._write_json(steps, buf)
    assert buf.getvalue() == ""


def test_row_stream_is_written_in_blocks_and_stops_at_a_non_finite_one(monkeypatch):
    # Blocks of 7 numbers: two 3-wide rows each. The stream's rows come
    # from a function of the row slice, and its declared size counts for
    # the orjson choice, as an array of that shape would.
    monkeypatch.setattr(pio, "_BLOCK", 7)
    grid = np.arange(30.0).reshape(10, 3) - 7.5
    asked = []

    def rows(s):
        asked.append(s)
        return grid[s].copy()

    stream = pio.RowStream(grid.shape, rows)
    assert pio._check_finite(stream) == 30 and asked == []
    assert_same_text(
        written(pio.write_grid_csv, stream),
        written(oracles.write_grid_csv, grid),
    )
    assert [s.stop - s.start for s in asked] == [2] * 5
    assert pio._use_orjson(pio.RowStream((100, 100), rows))
    assert not pio._use_orjson(pio.RowStream((99, 101), rows))
    grid[5, 1] = math.inf
    buf = io.StringIO()
    with pytest.raises(NonFiniteResultError):
        pio.write_grid_csv(pio.RowStream(grid.shape, rows), buf)
    # The two blocks before the non-finite one were written; nothing after.
    assert_same_text(buf.getvalue(), written(oracles.write_grid_csv, grid[:4]))


def test_row_stream_stands_for_an_array_in_reports_and_tables(monkeypatch):
    # An integer stream counts no floats and computes no row until written;
    # as a report array, a table column or a CSV cell it writes the bytes of
    # the array it stands for, and a float stream's slices in a table are
    # checked finite as they are computed.
    monkeypatch.setattr(pio, "_BLOCK", 7)
    labels = np.arange(1, 31).reshape(10, 3)
    values = np.linspace(-1.0, 1.0, 10)
    asked = []

    def rows(s):
        asked.append(s)
        return labels[s]

    stream = pio.RowStream(labels.shape, rows, int)
    assert len(stream) == 10 and pio._check_finite(stream) == 0 and asked == []
    got = {"labels": stream, "rows": pio.Table(label=stream, value=values)}
    want = {"labels": labels, "rows": pio.Table(label=labels, value=values)}
    for fmt in ("json", "csv"):
        assert_same_text(written(pio.write_report, got, fmt=fmt),
                         written(oracles.write_report, want, fmt=fmt))
    grid = np.ones((10, 2))
    grid[7, 1] = math.inf
    buf = io.StringIO()
    with pytest.raises(NonFiniteResultError):
        pio.write_report({"rows": pio.Table(
            label=stream, value=pio.RowStream(grid.shape, lambda s: grid[s]))}, buf)
