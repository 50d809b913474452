"""The one gate every array from outside passes (``pc_core._input_array``):
its rule holds for each of the nine constructors that take such an array,
and for ``pair_wedges``, which takes an embedding's vectors; and every
public callable that takes an array from its caller, ``CouplingMap``'s
maps and ``evaluate`` too, refuses a faulty one there.

A vector is refused nested or 0-d (DimensionMismatchError), a matrix
unless square (NonSquareError), and either one by that class when it is
ragged or holds text, booleans or complex numbers; fewer than 2
alternatives is TooSmallError; a NaN or infinite entry is
NonFiniteEntryError naming its 1-based place; and a valid input reaches
the constructor as exactly ``np.asarray(x, dtype=float)``.
"""

import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcgeom
from pcgeom import (
    DimensionMismatchError,
    NonFiniteEntryError,
    NonSquareError,
    PCGeomError,
    TooSmallError,
    coupling_coefficients,
    custom_embedding,
    embedding,
    evaluate,
    exterior,
    from_scores,
    new_additive,
    new_multiplicative,
    new_two_vector,
    orthogonal_embedding,
    pair_wedges,
    pc_core,
    planar_embedding,
    scores_to_coefficients,
    standard_area_form,
    wedge,
)

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
SMALL = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
#: Entries that are not finite as floats: integers past the float range
#: too, which JSON holds and numpy keeps as objects.
BAD = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)])


def _ones(x) -> np.ndarray:
    """A flat partner for x in a wedge: as long as x, and never too short."""
    return np.ones(max(len(x) if isinstance(x, list) else 1, 2))


def _skew(draw, n: int) -> list[list[float]]:
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = draw(st.lists(SMALL, min_size=comb(n, 2),
                                             max_size=comb(n, 2)))
    return (a - a.T).tolist()


def _square(draw, n: int) -> list[list[float]]:
    return draw(st.lists(st.lists(FINITE, min_size=n, max_size=n),
                         min_size=n, max_size=n))


#: name: (call(x, n), what one entry is called, the length of a valid
#: vector for n alternatives, a strategy for its entries)
VECTORS = {
    "from_scores": (lambda x, n: from_scores(x), "score", lambda n: n, FINITE),
    "planar_embedding": (lambda x, n: planar_embedding(x), "score", lambda n: n,
                         FINITE),
    "scores_to_coefficients": (lambda x, n: scores_to_coefficients(x), "score",
                               lambda n: n, SMALL),
    "orthogonal_embedding": (lambda x, n: orthogonal_embedding(x), "coefficient",
                             lambda n: n, FINITE.filter(bool)),
    "wedge-u": (lambda x, n: wedge(x, _ones(x)), "u component", lambda n: n, FINITE),
    "wedge-v": (lambda x, n: wedge(_ones(x), x), "v component", lambda n: n, FINITE),
    "new_two_vector": (lambda x, n: new_two_vector(n, x),
                       "coordinate", lambda n: comb(n, 2), FINITE),
}
#: name: (call(x), a valid n-by-n input drawn by draw)
MATRICES = {
    "new_additive": (new_additive, _skew),
    "new_multiplicative": (new_multiplicative,
                           lambda draw, n: np.exp(_skew(draw, n)).tolist()),
    "custom_embedding": (custom_embedding, _square),
    "pair_wedges": (pair_wedges, _square),
}
CASES = sorted(VECTORS) + sorted(MATRICES)
#: name: what the gate calls the whole input
WHAT = {
    "from_scores": "scores", "planar_embedding": "scores",
    "scores_to_coefficients": "scores", "orthogonal_embedding": "coefficients",
    "wedge-u": "u", "wedge-v": "v", "new_two_vector": "coords",
    "new_additive": "additive matrix", "new_multiplicative": "multiplicative matrix",
    "custom_embedding": "embedding", "pair_wedges": "vectors",
}


@st.composite
def valid_inputs(draw, case: str):
    """(x, n): a valid input of n alternatives for the case's constructor."""
    n = draw(st.integers(2, 6))
    if case in MATRICES:
        return MATRICES[case][1](draw, n), n
    _, _, size, entries = VECTORS[case]
    return draw(st.lists(entries, min_size=size(n), max_size=size(n))), n


def build(case: str, x, n: int):
    if case in MATRICES:
        return MATRICES[case][0](x)
    return VECTORS[case][0](x, n)


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_non_finite_entry_is_named_by_its_place(case, data):
    x, n = data.draw(valid_inputs(case))
    bad = data.draw(BAD)
    if case in MATRICES:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        x[i][j] = bad
        message = f"entry ({i + 1},{j + 1}) is not finite"
    else:
        k = data.draw(st.integers(0, len(x) - 1))
        x[k] = bad
        message = f"{VECTORS[case][1]} {k + 1} is not finite"
    with pytest.raises(NonFiniteEntryError) as exc:
        build(case, x, n)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_nested_scalar_and_short_inputs_are_refused_by_their_fault(case, data):
    x, n = data.draw(valid_inputs(case))
    shape_error = NonSquareError if case in MATRICES else DimensionMismatchError
    if case in MATRICES:
        short, scalar, short_error = [[x[0][0]]], x[0][0], TooSmallError
    elif case == "new_two_vector":  # coordinates are not alternatives: a length rule
        short, scalar, short_error = x[:-1], x[0], DimensionMismatchError
    else:
        short, scalar, short_error = x[:1], x[0], TooSmallError
    for faulty, error in (([x], shape_error), (scalar, shape_error),
                          (short, short_error)):
        with pytest.raises(error) as exc:
            build(case, faulty, n)
        assert type(exc.value) is error, (faulty, exc.value)


def _each(f, x):
    """x with f applied to every entry, its nesting kept."""
    return [_each(f, v) for v in x] if isinstance(x, list) else f(x)


def _not_numbers(case: str, x) -> dict:
    """x made ragged, and its entries made text, booleans and complex
    numbers, and text beside an integer past int64, which numpy holds as
    objects: none of them an array of numbers."""
    ragged = x[:-1] + [x[-1][:-1]] if case in MATRICES else [x, x + x]
    beside_huge = _each(str, x)
    if case in MATRICES:
        beside_huge[0][0] = 10**30
    else:
        beside_huge.insert(0, 10**30)
    return {"ragged": ragged, "text": _each(str, x), "boolean": _each(bool, x),
            "complex": _each(complex, x), "text-beside-a-huge-integer": beside_huge}


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_ragged_text_boolean_and_complex_inputs_are_refused_by_name(case, data):
    x, n = data.draw(valid_inputs(case))
    error = NonSquareError if case in MATRICES else DimensionMismatchError
    shape = "a square array" if case in MATRICES else "a flat vector"
    for kind, faulty in _not_numbers(case, x).items():
        with pytest.raises(error) as exc:  # never numpy's bare ValueError
            build(case, faulty, n)
        assert type(exc.value) is error, (kind, exc.value)
        assert str(exc.value) == f"{WHAT[case]} is not {shape} of numbers", kind


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_valid_input_passes_the_gate_as_its_float_array(case, data):
    x, n = data.draw(valid_inputs(case))
    calls = []

    def spy(raw, *args, **kwargs):
        out = gate(raw, *args, **kwargs)
        calls.append((raw, out))
        return out

    gate = pc_core._input_array
    with pytest.MonkeyPatch.context() as mp:
        for module in (pc_core, exterior, embedding):
            mp.setattr(module, "_input_array", spy)
        build(case, x, n)
    assert any(raw is x for raw, _ in calls)
    for raw, out in calls:
        want = np.asarray(raw, dtype=float)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "build_from",
    [from_scores, planar_embedding, orthogonal_embedding, scores_to_coefficients],
    ids=lambda f: f.__name__,
)
def test_nested_scores_are_refused_not_flattened(build_from):
    with pytest.raises(DimensionMismatchError) as exc:
        build_from([[0, 1], [2, 3]])
    assert type(exc.value) is DimensionMismatchError
    assert str(exc.value).endswith("must be a flat vector, got shape (2, 2)")


def test_text_beside_a_huge_integer_is_refused_not_parsed():
    # As objects, "1" would convert to 1.0 and the wedge would be built.
    with pytest.raises(DimensionMismatchError) as exc:
        wedge([111111111111111111111111111111, "1"], [1, 2])
    assert str(exc.value) == "u is not a flat vector of numbers"
    with pytest.raises(NonSquareError) as exc:
        new_additive([[0, 10**30], [b"-1", 0]])
    assert str(exc.value) == "additive matrix is not a square array of numbers"


def test_an_integer_past_the_float_range_is_named_by_its_place():
    with pytest.raises(NonFiniteEntryError) as exc:
        wedge([1, -(10**400)], [1, 2])
    assert str(exc.value) == "u component 2 is not finite"
    # An integer past int64 but within the float range converts as before.
    assert wedge([10**30, 1], [1, 2]).coords.tolist() == [2 * 10.0**30 - 1]


#: Every public callable that takes an array from its caller, as a call of
#: that array, and whether the array is a vector or a square matrix.
TAKERS = {
    "new_additive": (new_additive, "square"),
    "new_multiplicative": (new_multiplicative, "square"),
    "from_scores": (from_scores, "vector"),
    "wedge (u)": (lambda x: wedge(x, [1.0, 2.0]), "vector"),
    "wedge (v)": (lambda x: wedge([1.0, 2.0], x), "vector"),
    "new_two_vector": (lambda x: new_two_vector(2, x), "vector"),
    "orthogonal_embedding": (orthogonal_embedding, "vector"),
    "planar_embedding": (planar_embedding, "vector"),
    "custom_embedding": (custom_embedding, "square"),
    "scores_to_coefficients": (scores_to_coefficients, "vector"),
    "pair_wedges": (pair_wedges, "square"),
    "CouplingMap.apply": (lambda x: coupling_coefficients(3).apply(x), "vector"),
    "CouplingMap.apply_transpose": (
        lambda x: coupling_coefficients(3).apply_transpose(x), "vector"),
    "evaluate (u)": (lambda x: evaluate(standard_area_form(2), x, [1.0, 2.0]), "vector"),
    "evaluate (v)": (lambda x: evaluate(standard_area_form(2), [1.0, 2.0], x), "vector"),
}
#: The other public names: value types, which the callables above build
#: from gated arrays; a constant; and functions of pcgeom's own values,
#: counts, 1-based indices and settings. Error classes are not listed.
NO_ARRAY = {
    "AdditiveMatrix", "MultiplicativeMatrix", "TwoVector", "Embedding",
    "ReductionStep", "ReductionTrajectory", "DEFAULT_TOLERANCE",
    "to_additive", "to_multiplicative", "triad_deviation", "all_triad_deviations",
    "max_abs_triad_deviation", "algebraic_inconsistency", "is_consistent",
    "recover_scores", "permute", "quad_residuals", "is_decomposable",
    "normalize_grassmann", "chordal_distance", "geometric_inconsistency",
    "planar_pair_wedges", "planar_matrix_inconsistency", "coupling_coefficients",
    "gram_rows", "closed_form_diagnosis", "project_consistent", "reduce_iterative",
    "standard_area_form", "evaluation_columns", "matrix_form",
}
#: kind of array: fault: (input with that fault)
FAULTY = {
    "vector": {"text": ["1", "2"], "nan": [math.nan, 1.0], "nested": [[1.0, 2.0]],
               "ragged": [[1.0], [2.0, 3.0]]},
    "square": {"text": [["0", "1"], ["-1", "0"]], "nan": [[0.0, math.nan], [1.0, 0.0]],
               "nested": [[[0.0, 1.0], [-1.0, 0.0]]], "ragged": [[0.0, 1.0], [-1.0]]},
}


def test_the_taker_table_covers_every_public_name():
    errors = {name for name in pcgeom.__all__
              if isinstance(getattr(pcgeom, name), type)
              and issubclass(getattr(pcgeom, name), Exception)}
    takers = {name.split(" ")[0].split(".")[0] for name in TAKERS}
    assert not takers & NO_ARRAY
    assert set(pcgeom.__all__) - {"__version__"} - errors == takers | NO_ARRAY


@pytest.mark.parametrize("fault", ["text", "nan", "nested", "ragged"])
@pytest.mark.parametrize("taker", TAKERS)
def test_every_array_taker_refuses_a_faulty_array_at_the_gate(taker, fault):
    call, kind = TAKERS[taker]
    with pytest.raises(PCGeomError) as exc:
        call(FAULTY[kind][fault])
    assert exc.traceback[-1].name == "_input_array", exc.value
