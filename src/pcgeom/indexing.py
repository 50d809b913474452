"""Lexicographic pair, triad and quad bookkeeping, all 0-based.

Index tables are built with numpy arithmetic from the lexicographic pair
position pos(i, j) = i*n - i*(i+1)/2 + j - i - 1 (i < j) and from
:func:`lead_starts`, so no Python loop ever runs over triads or quads.
Nothing is cached: every table is built for the call that asks.
"""

from __future__ import annotations

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


def lead_starts(n: int, r: int) -> np.ndarray:
    """Where the r-sets led by i begin in the (r-1)-set list, for every i
    in 0..n-1 (r >= 2): the r-sets led by i are i followed by the tail of
    that list from its first set led by i+1, whose position counts the
    (r-1)-sets led by 0..i, C(n-1-j, r-2) for each lead j."""
    return np.cumsum([comb(n - 1 - j, r - 2) for j in range(n)], dtype=np.intp)


def by_lead(n: int, r: int):
    """For each lead i = 0..n-r, yield pos(i, 0) and the slice of the
    (r-1)-set list from ``lead_starts(n, r)[i]``: the r-sets led by i are i
    and the sets of that slice, and (i, j) is pair pos(i, 0) + j. A slice,
    not an index array, so that reading the tail takes a view, not a copy."""
    for i, start in zip(range(n - r + 1), lead_starts(n, r)):
        yield pair_index(n, i, 0), slice(start, None)


def triad_pairs(n: int) -> np.ndarray:
    """Pair positions (ij, jk, ik) of every triad i < j < k, as the rows of
    one new (3, C(n,3)) array filled one lead at a time; empty for n < 3."""
    rows, cols = np.triu_indices(n, k=1)
    table, end = np.empty((3, triad_count(n)), dtype=np.intp), 0
    for base, jk in by_lead(n, 3):
        block = table[:, end:(end := end + rows[jk].size)]
        block[:] = base + rows[jk], np.arange(jk.start, rows.size), base + cols[jk]
    return table


def unranker(n: int, r: int):
    """Members of the r-sets of 0..n-1 at given positions, one array per
    place, as a function with its tables built once. The r-sets led by i end
    at ``lead_starts(n, r + 1)[i]`` and are i and the tail of the (r-1)-set
    list, which ends at C(n, r-1): per place one searchsorted finds the lead,
    one gather the shift, and at r = 1 the member is the position."""
    tables = [lead_starts(n, s + 1) for s in range(r, 1, -1)]
    levels = [(t, comb(n, s - 1) - t) for s, t in zip(range(r, 1, -1), tables)]

    def unrank(positions) -> tuple[np.ndarray, ...]:
        p, leads = np.asarray(positions, dtype=np.intp), []
        for ends, shifts in levels:
            leads.append(np.searchsorted(ends, p, side="right"))
            p = p + shifts[leads[-1]]
        return (*leads, p)

    return unrank


def collect(blocks, count: int) -> np.ndarray:
    """The blocks laid end to end in one new array of count floats."""
    values, end = np.empty(count), 0
    for block in blocks:
        values[end:(end := end + block.size)] = block
    return values
