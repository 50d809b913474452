"""Scale laws: a quantity of degree m takes the input's power of two 2**k
to the power m, to the bit, or names itself when it leaves the float range.

Multiplying by 2**k is exact in binary, so max|d| of 2**k a is 2**k times
that of a; I_alg, both planar I_geom conventions and |p|^2 are 4**k
times theirs; and I_geom of the custom embedding 2**k V is 16**k times
that of V. Each wedge coordinate of 2**k-scaled vectors is 4**k times
theirs (2**k for the planar pair wedges, whose matrix entries are the
scaled input), and so is each Plücker residual of a 2**k-scaled
2-vector. Where that product is past the float range the call raises
the OverflowError that names its quantity, and no call warns.

Relabelling and negation laws, on the same integer inputs: the triad
(i, j, k) of ``permute(a, order)`` is the image triad of a, sorted, so its
deviation is that triad's times the sign of the sort, exactly (every sum
of these entries is exact). I_alg takes its row means in another order,
so it agrees within a few ulp. The planar anticyclic sum adds each
triad's three entries with one orientation, so it is kept by the
order-reversing relabelling but not by a transposition. Negating a
negates every deviation and keeps I_alg and both planar indices exactly.
"""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgeom import (
    algebraic_inconsistency,
    all_triad_deviations,
    custom_embedding,
    evaluate,
    geometric_inconsistency,
    max_abs_triad_deviation,
    new_additive,
    new_two_vector,
    pair_wedges,
    permute,
    planar_matrix_inconsistency,
    planar_pair_wedges,
    quad_residuals,
    wedge,
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


#: name: (degree, quantity named by its OverflowError, array-valued
#: function of the scaled inputs), for the wedge kernel's callers and the
#: Plücker residuals. evaluate takes the scaled 2-vector and first vector
#: with a fixed second one, so its value has degree 2.
ARRAY_LAWS = {
    "wedge": (2, "a wedge coordinate", lambda a, v, p: wedge(v[0], v[1]).coords),
    "pair_wedges": (2, "a wedge coordinate", lambda a, v, p: pair_wedges(v)),
    "planar_pair_wedges": (1, "a wedge coordinate", lambda a, v, p: planar_pair_wedges(a)),
    "evaluate": (2, "the form's value", lambda a, v, p: np.array(
        [evaluate(p, v[0], np.arange(1.0, len(v) + 1))])),
    "quad_residuals": (2, "a Plücker residual", lambda a, v, p: quad_residuals(p)[1]),
}


@settings(max_examples=300, deadline=None)
@given(inputs(), st.integers(-500, 600))
def test_power_of_two_scaling_scales_each_wedge_and_residual_by_its_degree(drawn, k):
    # Past 2**511 the products leave the float range; the results are then
    # taken on the inputs scaled back into it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, scaled = at_scale(*drawn, 0), at_scale(*drawn, k)
        for name, (degree, quantity, compute) in ARRAY_LAWS.items():
            with np.errstate(over="ignore"):
                want = np.ldexp(compute(*base), degree * k)
            if np.all(np.isfinite(want)):
                assert compute(*scaled).tobytes() == want.tobytes(), name
            else:
                with pytest.raises(OverflowError) as exc:
                    compute(*scaled)
                assert str(exc.value) == f"{quantity} is beyond the float range", name


#: Largest relative gap allowed between I_alg of a matrix and of a
#: relabelling of it, whose row means are summed in another order; the
#: largest seen over 20000 random cases was 2.9 eps.
REL = 8 * np.finfo(float).eps

#: name: (index, whether every relabelling keeps it; else only the reversal)
INDICES = {
    "I_alg": (algebraic_inconsistency, True),
    "planar cyclic": (planar_matrix_inconsistency, True),
    "planar anticyclic": (
        lambda a: planar_matrix_inconsistency(a, "anticyclic"), False),
}


def _sort_sign(x: int, y: int, z: int) -> float:
    """The sign of the permutation that sorts (x, y, z)."""
    return -1.0 if ((x > y) + (x > z) + (y > z)) % 2 else 1.0


@settings(max_examples=300, deadline=None)
@given(inputs(), st.data())
def test_relabelling_permutes_the_deviations_by_the_sign_of_each_sort(drawn, data):
    n, a = drawn[0], new_additive(drawn[1])
    order = data.draw(st.permutations(range(1, n + 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        relabelled = permute(a, order)
        by_triad = dict(zip(combinations(range(1, n + 1), 3), all_triad_deviations(a)))
        deviations = all_triad_deviations(relabelled)
        for (i, j, k), value in zip(combinations(range(n), 3), deviations):
            image = order[i], order[j], order[k]
            assert value == _sort_sign(*image) * by_triad[tuple(sorted(image))], image
        reversed_ = permute(a, range(n, 0, -1))
        for name, (index, every) in INDICES.items():
            want = index(a)
            for b in (relabelled, reversed_) if every else (reversed_,):
                assert abs(index(b) - want) <= REL * want, (name, order)


def test_a_transposition_changes_the_planar_anticyclic_index():
    # Its triad sums u_ij + u_jk + u_ik are not alternating in the labels.
    a = new_additive([[0, 1, 2], [-1, 0, 4], [-2, -4, 0]])
    swapped = permute(a, [2, 1, 3])
    assert planar_matrix_inconsistency(a, "anticyclic") == 49.0
    assert planar_matrix_inconsistency(swapped, "anticyclic") == 25.0
    assert algebraic_inconsistency(swapped) == algebraic_inconsistency(a) == 9.0


@settings(max_examples=300, deadline=None)
@given(inputs())
def test_negation_negates_the_deviations_and_keeps_every_index(drawn):
    a, negated = new_additive(drawn[1]), new_additive(-drawn[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(all_triad_deviations(negated), -all_triad_deviations(a))
        for name, (index, _) in INDICES.items():
            assert index(negated) == index(a), name
