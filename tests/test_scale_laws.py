"""Scale laws: a quantity of degree m takes the input's power of two 2**k
to the power m, to the bit, or names itself when it leaves the float range.

Multiplying by 2**k is exact in binary, so max|d| of 2**k a is 2**k times
that of a; I_alg, both planar I_geom conventions and |p|^2 are 4**k
times theirs; and I_geom of the custom embedding 2**k V is 16**k times
that of V. Where that product is past the float range the call raises
the OverflowError that names its quantity, and no call warns.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgeom import (
    algebraic_inconsistency,
    custom_embedding,
    geometric_inconsistency,
    max_abs_triad_deviation,
    new_additive,
    new_two_vector,
    planar_matrix_inconsistency,
)

#: name: (degree, quantity named by its OverflowError, function of the
#: scaled matrix, embedding vectors and 2-vector coordinates).
LAWS = {
    "max|d|": (1, None, lambda a, v, p: max_abs_triad_deviation(a)),
    "I_alg": (2, "I_alg", lambda a, v, p: algebraic_inconsistency(a)),
    "planar cyclic": (2, "I_alg", lambda a, v, p: planar_matrix_inconsistency(a)),
    "planar anticyclic": (
        2, "I_geom", lambda a, v, p: planar_matrix_inconsistency(a, "anticyclic")),
    "|p|^2": (2, "|p|^2 of the 2-vector", lambda a, v, p: p.norm_squared()),
    "custom cyclic": (
        4, "I_geom", lambda a, v, p: geometric_inconsistency(custom_embedding(v))),
    "custom anticyclic": (
        4, "I_geom",
        lambda a, v, p: geometric_inconsistency(custom_embedding(v), "anticyclic")),
}

ENTRIES = st.integers(-(2**16), 2**16)


@st.composite
def inputs(draw):
    """Integer entries up to 2^16 of a matrix, embedding vectors and
    2-vector coordinates for one n from 3 to 7."""
    n = draw(st.integers(3, 7))
    upper = draw(st.lists(ENTRIES, min_size=math.comb(n, 2), max_size=math.comb(n, 2)))
    vectors = draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))
    rows, cols = np.triu_indices(n, k=1)
    a = np.zeros((n, n))
    a[rows, cols] = upper
    return n, a - a.T, np.reshape(vectors, (n, n)).astype(float), np.array(upper, float)


def at_scale(n, a, vectors, coords, k):
    return (new_additive(np.ldexp(a, k)), np.ldexp(vectors, k),
            new_two_vector(n, np.ldexp(coords, k)))


@settings(max_examples=300, deadline=None)
@given(inputs(), st.integers(-500, 500))
def test_power_of_two_scaling_scales_each_quantity_by_its_degree(drawn, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        base, scaled = at_scale(*drawn, 0), at_scale(*drawn, k)
        for name, (degree, quantity, compute) in LAWS.items():
            try:
                want = math.ldexp(compute(*base), degree * k)
            except OverflowError:
                with pytest.raises(OverflowError) as exc:
                    compute(*scaled)
                assert str(exc.value) == f"{quantity} is beyond the float range", name
            else:
                assert compute(*scaled) == want, (name, want)
