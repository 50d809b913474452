"""Lexicographic pair, triad and quad bookkeeping.

Everything in this module is 0-based except :func:`labels`, which gives
the 1-based labels used everywhere else. Index tables are built with numpy
arithmetic from the lexicographic pair position

    pos(i, j) = i*n - i*(i+1)/2 + j - i - 1        (i < j),

so no Python loop ever runs over triads or quads. The position tables are
cached per dimension and read-only, so they can be shared freely.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


def pair_count(n: int) -> int:
    return comb(n, 2)


def triad_count(n: int) -> int:
    return comb(n, 3)


def pair_index(n: int, i, j):
    """Lexicographic position of the pair (i, j) with i < j.

    Works elementwise on integer arrays as well as on scalars.
    """
    return i * n - i * (i + 1) // 2 + j - i - 1


def _exclusive_cumsum(sizes: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes)[:-1]))


def subsets(n: int, r: int) -> tuple[np.ndarray, ...]:
    """Members of every r-subset of 0..n-1, lexicographically, one array
    per position.

    The subsets led by i are i followed by the (r-1)-subsets of
    i+1..n-1, and those form the contiguous tail of the (r-1)-subset
    list that starts at its first subset led by i+1. Each block is
    therefore a run of consecutive rows of the smaller list, reached by
    adding one per-block shift to a running index.
    """
    first = np.arange(n)
    if r == 1:
        return (first,)
    tails = subsets(n, r - 1)
    sizes = np.array([comb(n - 1 - i, r - 1) for i in range(n)], dtype=np.intp)
    tail_sizes = np.array(
        [comb(n - 1 - i, r - 2) for i in range(n)], dtype=np.intp
    )
    # Row t of block i maps to row t - start_i + tail_start_{i+1}; the last
    # block is always empty, so its shift is never read.
    starts = _exclusive_cumsum(sizes)
    tail_starts = _exclusive_cumsum(tail_sizes)
    shift = np.zeros(n, dtype=np.intp)
    shift[:-1] = tail_starts[1:] - starts[:-1]
    lead = np.repeat(first, sizes)
    tail = np.arange(lead.size) + shift[lead]
    return (lead,) + tuple(column[tail] for column in tails)


def labels(n: int, r: int) -> np.ndarray:
    """1-based members of every r-subset of 1..n, lexicographically, one
    row per subset."""
    table = np.column_stack(subsets(n, r))
    table += 1
    return table


def _row_base(n: int) -> np.ndarray:
    """pair_index(n, i, 0) for every i, so that pos(i, j) = base[i] + j."""
    return pair_index(n, np.arange(n), 0)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.intp)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def triad_pair_positions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair positions (i,j), (j,k), (i,k) for every triad, as index arrays.

    These three arrays realize the signed triad-to-pair incidence: the
    deviation of triad t reads entry[ij] + entry[jk] - entry[ik].
    """
    i, j, k = subsets(n, 3)
    base = _row_base(n)
    base_i = base[i]
    return _frozen(base_i + j), _frozen(base[j] + k), _frozen(base_i + k)


@lru_cache(maxsize=None)
def quad_pair_positions(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """4-subsets of 0..n-1 (one row each) and the six pair positions
    entering each quadratic relation: (k,l)(m,o), (k,m)(l,o), (k,o)(l,m)."""
    k, l, m, o = subsets(n, 4)
    base = _row_base(n)
    cols = (
        base[k] + l,
        base[m] + o,
        base[k] + m,
        base[l] + o,
        base[k] + o,
        base[l] + m,
    )
    quads = _frozen(np.column_stack([k, l, m, o]))
    return quads, tuple(_frozen(c) for c in cols)
