"""Lexicographic pair, triad and quad bookkeeping.

Everything in this module is 0-based except :func:`labels`, which gives
the 1-based labels used everywhere else. Index tables are built with numpy
arithmetic from the lexicographic pair position

    pos(i, j) = i*n - i*(i+1)/2 + j - i - 1        (i < j)

and from :func:`lead_starts`, so no Python loop ever runs over triads or
quads. Nothing is cached: every table is built for the call that asks.
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
    """Where the r-subsets led by i begin in the (r-1)-subset list, for
    every i in 0..n-1 (r >= 2).

    The r-subsets of 0..n-1 led by i are i followed by the (r-1)-subsets
    of i+1..n-1, and in lexicographic order those form the tail of the
    (r-1)-subset list from its first subset led by i+1. That position is
    the number of (r-1)-subsets led by 0..i, C(n-1-j, r-2) for each lead j.
    """
    counts = np.array([comb(n - 1 - j, r - 2) for j in range(n)], dtype=np.intp)
    return counts.cumsum()


def subsets(n: int, r: int) -> tuple[np.ndarray, ...]:
    """Members of every r-subset of 0..n-1, lexicographically, one array
    per position.

    Block i is i followed by the tail of the (r-1)-subset list from
    ``lead_starts(n, r)[i]``.
    """
    first = np.arange(n)
    if r == 1:
        return (first,)
    tails = subsets(n, r - 1)
    total = tails[0].size
    starts = lead_starts(n, r)
    blocks = [np.arange(start, total) for start in starts]
    rows = np.concatenate(blocks) if blocks else first
    lead = np.repeat(first, total - starts)
    return (lead,) + tuple(column[rows] for column in tails)


def labels(n: int, r: int) -> np.ndarray:
    """1-based members of every r-subset of 1..n, lexicographically, one
    row per subset."""
    table = np.column_stack(subsets(n, r))
    table += 1
    return table

