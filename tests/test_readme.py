"""The README's library example runs as written, and its value types
are immutable."""

import copy
import importlib
import pickle
import re
from pathlib import Path

import pytest

import pcgeom as pg
from pcgeom.errors import ReadOnly

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


def _value_types():
    """One instance of each immutable value type, built through the public
    API, with its fields."""
    a = pg.new_additive([[0, 1, 3], [-1, 0, 1], [-3, -1, 0]])
    trajectory = pg.reduce_iterative(a)
    e = pg.planar_embedding([0.0, 1.0, 3.0])
    return [
        (a, "n upper"),
        (pg.to_multiplicative(a), "n entries"),
        (pg.coupling_coefficients(4), "n ij_pos jk_pos ik_pos"),
        (e, "n vectors kind"),
        (pg.wedge([1, 2, 3], [0, 1, 5]), "n coords"),
        (trajectory.steps[0], "index i_alg i_geom trajectory"),
        (trajectory, "start residual q i_alg i_geom converged"),
    ]


VALUE_TYPES = _value_types()
VALUE_TYPE_NAMES = [type(record).__name__ for record, _ in VALUE_TYPES]


@pytest.mark.parametrize("record, fields", VALUE_TYPES, ids=VALUE_TYPE_NAMES)
def test_value_types_are_immutable(record, fields):
    for name in fields.split():
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("record, fields", VALUE_TYPES, ids=VALUE_TYPE_NAMES)
def test_value_types_copy_and_pickle(record, fields):
    assert repr(record).startswith(type(record).__name__ + "(")
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)


def test_every_value_type_has_a_sample():
    for module in pg._SUBMODULES:
        importlib.import_module(f"pcgeom.{module}")
    assert set(ReadOnly.__subclasses__()) == {type(r) for r, _ in VALUE_TYPES}


@pytest.mark.parametrize("record, fields", VALUE_TYPES, ids=VALUE_TYPE_NAMES)
def test_value_types_construct_by_position_or_name(record, fields):
    names = fields.split()
    values = [getattr(record, name) for name in names]
    kind = type(record)
    by_position = kind(*values)
    by_name = kind(**dict(zip(names, values)))
    mixed = kind(*values[:1], **dict(zip(names[1:], values[1:])))
    for built in (by_position, by_name, mixed):
        assert repr(built) == repr(record)
        assert all(getattr(built, n) is v for n, v in zip(names, values))
        for twin in (copy.copy(built), pickle.loads(pickle.dumps(built))):
            assert type(twin) is kind and repr(twin) == repr(record)


@pytest.mark.parametrize("record, fields", VALUE_TYPES, ids=VALUE_TYPE_NAMES)
def test_value_types_refuse_a_missing_unknown_or_repeated_field(record, fields):
    names = fields.split()
    values = [getattr(record, name) for name in names]
    kind = type(record)
    with pytest.raises(TypeError, match=f"missing field\\(s\\) {names[-1]}"):
        kind(*values[:-1])
    with pytest.raises(TypeError, match="missing field"):
        kind()
    with pytest.raises(TypeError, match="unknown field 'bogus'"):
        kind(*values, bogus=1)
    with pytest.raises(TypeError, match=f"takes {len(names)} fields"):
        kind(*values, None)
    with pytest.raises(TypeError, match=f"field {names[0]!r} twice"):
        kind(*values, **{names[0]: values[0]})


def removed_names() -> list[str]:
    """The dotted names in the first column of README's "Removed names"
    table, without their arguments."""
    section = README.read_text().split("### Removed names", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([\w.]+)", section, re.MULTILINE)


def test_removed_names_table_is_read():
    assert {"build_M", "indexing.unranker", "CouplingMap.to_dense"} <= set(removed_names())


@pytest.mark.parametrize("name", removed_names())
def test_removed_names_no_longer_resolve(name):
    # What held the name is still there; the name itself is gone.
    *path, last = name.split(".")
    owner = pg
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)
