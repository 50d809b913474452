"""The one gate every array from outside passes (``pc_core._input_array``):
its rule holds for each of the nine constructors that take such an array.

A vector is refused nested or 0-d (DimensionMismatchError), a matrix
unless square (NonSquareError); fewer than 2 alternatives is
TooSmallError; a NaN or infinite entry is NonFiniteEntryError naming its
1-based place; and a valid input reaches the constructor as exactly
``np.asarray(x, dtype=float)``.
"""

import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgeom import (
    DimensionMismatchError,
    NonFiniteEntryError,
    NonSquareError,
    TooSmallError,
    custom_embedding,
    embedding,
    exterior,
    from_scores,
    new_additive,
    new_multiplicative,
    new_two_vector,
    orthogonal_embedding,
    pc_core,
    planar_embedding,
    scores_to_coefficients,
    wedge,
)

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
SMALL = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
BAD = st.sampled_from([math.nan, math.inf, -math.inf])


def _ones(x) -> np.ndarray:
    """A flat partner for x in a wedge: as long as x, and never too short."""
    return np.ones(max(np.size(x), 2))


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
}
CASES = sorted(VECTORS) + sorted(MATRICES)


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
