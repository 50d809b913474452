"""The README's library example runs as written, and its value types
are immutable."""

import copy
import pickle
import re
from pathlib import Path

import pytest

import pcgeom as pg

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
        (pg.recover_scores(a)[0], "n values"),
        (pg.all_triad_deviations(a), "n values"),
        (pg.coupling_coefficients(4), "n ij_pos jk_pos ik_pos"),
        (e, "n vectors kind"),
        (pg.wedge([1, 2, 3], [0, 1, 5]), "n coords"),
        (trajectory.steps[0], "index i_alg i_geom trajectory"),
        (trajectory, "start residual q i_alg i_geom converged"),
        (pg.standard_area_form(3), "coefficients"),
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
