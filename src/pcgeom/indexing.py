"""Lexicographic pair, triad and quad bookkeeping, all 0-based.

The r-sets are walked one lead at a time (:func:`by_lead`), and index
tables are built with numpy arithmetic from the walk's slices and the pair
position pos(i, j) = i*n - i*(i+1)/2 + j - i - 1 (i < j), so no Python loop
ever runs over triads or quads. Nothing is cached.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb

import numpy as np


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
    """The walk of the r-sets (r >= 2) at a slice s of their list: ``walk(s)``
    yields each lead i whose r-sets meet s, pos(i, 0) and the slice of the
    (r-1)-set list they continue with; they are i and the sets of that slice,
    and (i, j) is pair pos(i, 0) + j. Lead i's r-sets end at
    ``lead_starts(n, r + 1)[i]``, computed once, and their tails at the end of
    the (r-1)-set list. A slice, not an index array: reading it takes a view."""
    ends, count, tails = lead_starts(n, r + 1).tolist(), comb(n, r), comb(n, r - 1)

    def walk(s: slice = slice(None)):
        start, stop, _ = s.indices(count)
        i = bisect_right(ends, start)
        while start < stop:
            end, back = min(stop, ends[i]), tails - ends[i]
            yield i, pair_index(n, i, 0), slice(start + back, end + back)
            start, i = end, i + 1

    return walk


def triad_pairs(n: int) -> np.ndarray:
    """Pair positions (ij, jk, ik) of every triad i < j < k, as the rows of
    one new (3, C(n,3)) array filled one lead at a time; empty for n < 3."""
    rows, cols = np.triu_indices(n, k=1)
    table, end = np.empty((3, comb(n, 3)), dtype=np.intp), 0
    for _, base, jk in by_lead(n, 3)():
        block = table[:, end:(end := end + rows[jk].size)]
        block[:] = base + rows[jk], np.arange(jk.start, jk.stop), base + cols[jk]
    return table


def collect(blocks, count: int) -> np.ndarray:
    """The blocks laid end to end in one new array of count floats."""
    values, end = np.empty(count), 0
    for block in blocks:
        values[end:(end := end + block.size)] = block
    return values
