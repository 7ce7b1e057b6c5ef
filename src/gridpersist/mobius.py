"""Moebius inversion on the interval poset of a commutative grid.

The poset of intervals ordered by inclusion is graded by vertex count
but is not a lattice.  Its Moebius function nevertheless has a local
description: mu([I, J]) is a signed count of the subsets of the covers
of I whose join above I equals J.  Inversion of a function against the
order (recovering g from f(I) = sum over J >= I of g(J)) therefore only
touches joins of cover subsets, never the full segment, which keeps the
cost per interval bounded by 2^|Cov(I)|.

The cover-subset joins depend only on the grid size, so they are built
once per size as a sparse signed operator on interval indices, every
cover subset of every interval joined in a few array operations; an
inversion is then one scatter-add.  The join of a cover subset is the
least staircase over the union of its covers, since every staircase
containing the union is at least that wide: b takes a running minimum
going up and d a running maximum going down over the rows it holds.  A
valid left or right move keeps the staircase condition with its
neighbours, so this closure changes only the corners where a new row
above (below) meets a left (right) extension of the top (bottom) row.  A
join is found among the intervals by its padded span row: the bytes of a
row are one opaque key, the keys of the intervals are sorted once, and
each batch of joins is located among them by binary search.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterator

import numpy as np

from .intervals import Interval, enumerate_intervals

IntervalFunction = dict[Interval, int]


def cover_subset_joins(I: Interval, m: int, n: int) -> Iterator[tuple[int, Interval]]:
    """Yield ((-1)^|S|, join(S)) over all nonempty subsets S of Cov(I),
    read from the operator's entries for I, which are one contiguous run."""
    intervals = enumerate_intervals(m, n)
    i = bisect_left(intervals, I)
    if i == len(intervals) or intervals[i] != I:
        raise ValueError(f"{I.to_string()} does not fit in a {m} x {n} grid")
    I_idx, J_idx, sign = _mobius_operator(m, n)
    lo, hi = np.searchsorted(I_idx, [i, i + 1])
    for j, sg in zip(J_idx[lo:hi].tolist(), sign[lo:hi].tolist()):
        yield sg, intervals[j]


def _cover_moves(b: np.ndarray, d: np.ndarray, n: int):
    """The valid cover moves of each padded staircase.

    Returns the number of valid moves per staircase, the flat ids of its
    valid moves in slot order, and the 0-based row and new (b, d) span of
    every move id.  Move id k * (2m + 2) + slot is slot `slot` of k.
    """
    N, m = b.shape
    rows = np.arange(1, m + 1)
    inside = d > 0
    s = inside.argmax(axis=1) + 1
    t = m - inside[:, ::-1].argmax(axis=1)
    b_above = np.column_stack([b[:, 1:], np.full(N, n + 1, dtype=b.dtype)])
    d_below = np.column_stack([np.zeros(N, dtype=b.dtype), d[:, :-1]])
    index = np.arange(N)
    b_t, d_s = b[index, t - 1], d[index, s - 1]
    valid = np.column_stack([
        inside & (b > 1) & ((rows == t[:, None]) | (b_above < b)),
        inside & (d < n) & ((rows == s[:, None]) | (d < d_below)),
        t < m,
        s > 1,
    ])
    # invalid above/below moves get any row in range; they are never applied
    move_row = np.column_stack([np.tile(rows - 1, (N, 2)), np.minimum(t, m - 1), s - 2])
    move_b = np.column_stack([b - 1, b, b_t, d_s])
    move_d = np.column_stack([d, d + 1, b_t, d_s])
    moves = np.argsort(~valid, axis=1, kind="stable") + index[:, None] * (2 * m + 2)
    return valid.sum(axis=1), moves, move_row.ravel(), move_b.ravel(), move_d.ravel()


def _span_keys(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One opaque key per padded staircase: the bytes of its (b, d) span row."""
    rows = np.hstack([b, d])
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


# cover subsets joined per batch; bounds the scratch memory of a build
_BATCH = 1 << 12


@lru_cache(maxsize=None)
def _mobius_operator(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (I_idx, J_idx, sign) entry per nonempty cover subset S of I.

    J is the join of S and sign is (-1)^|S|, so summing the signs of
    the entries of a pair gives mu([I, J]) for I < J.  Indices are
    positions in enumerate_intervals(m, n).

    Interval k is held as padded row spans (b[k, i-1], d[k, i-1]) for
    rows i = 1..m, with (n + 1, 0) outside its rows, so the union of
    covers is the elementwise min of b and max of d over its members.  Each
    interval has at most 2m + 2 cover moves, one row span widened each:
    slot r extends row r + 1 left, slot m + r extends it right, slot 2m
    starts row t + 1 at (b_t, b_t) and slot 2m + 1 starts row s - 1 at
    (d_s, d_s).  A pair (interval, subset mask over its valid moves)
    applies the moves of its set bits, then closes the result into the
    least staircase over the rows it holds (see the module docstring).
    """
    intervals = enumerate_intervals(m, n)
    pad = ((n + 1, 0),)
    spans = np.array([pad * (I.s - 1) + I.rows + pad * (m - I.t) for I in intervals], dtype=np.int32)
    b, d = spans[:, :, 0], spans[:, :, 1]
    count, moves, move_row, move_b, move_d = _cover_moves(b, d, n)

    # pair p = (interval k[p], mask): bit j of mask is the j-th valid move of k[p]
    subsets = (1 << count) - 1
    first = np.cumsum(subsets) - subsets
    k = np.repeat(np.arange(len(intervals), dtype=np.int32), subsets)
    J = np.empty(len(k), dtype=np.int32)
    sign = np.empty(len(k), dtype=np.int8)
    keys = _span_keys(b, d)
    order = np.argsort(keys)
    keys = keys[order]
    for lo in range(0, len(k), _BATCH):
        kb = k[lo:lo + _BATCH]
        mask = np.arange(lo, lo + len(kb)) - first[kb] + 1
        jb, jd = b[kb], d[kb]
        flat_b, flat_d = jb.reshape(-1), jd.reshape(-1)
        for j in range(int(count.max())):
            p = np.flatnonzero((mask >> j) & 1)
            move = moves[kb[p], j]
            at = p * m + move_row[move]
            flat_b[at] = np.minimum(flat_b[at], move_b[move])
            flat_d[at] = np.maximum(flat_d[at], move_d[move])
        outside = jd == 0
        jb = np.minimum.accumulate(jb, axis=1)
        jd = np.maximum.accumulate(jd[:, ::-1], axis=1)[:, ::-1]
        jb[outside], jd[outside] = n + 1, 0
        J[lo:lo + len(kb)] = order[np.searchsorted(keys, _span_keys(jb, jd))]
        sign[lo:lo + len(kb)] = np.where(np.bitwise_count(mask) % 2, -1, 1)

    operator = (k, J, sign)
    for a in operator:
        a.flags.writeable = False  # shared by every later call through the cache
    return operator


def mobius_invert(f: IntervalFunction, m: int, n: int) -> IntervalFunction:
    """Inverse of the zeta action: g with f(I) = sum_{J >= I} g(J).

    g(I) = f(I) + sum over nonempty cover subsets S of (-1)^|S| f(join S),
    applied through the cached operator of the m x n grid.  Values are
    exact integers; f must be total on the canonical interval list.
    """
    intervals = enumerate_intervals(m, n)
    values = [f[I] for I in intervals]
    I_idx, J_idx, sign = _mobius_operator(m, n)
    # |g| <= |f| times the 2^(2m+2) cover subsets; beyond int64, Python ints
    exact = max(map(abs, values)) * 4 ** (m + 1) < 2**63
    g = np.array(values, dtype=np.int64 if exact else object)
    terms = g[J_idx]  # read before any update: f(join S) for every entry
    terms *= sign
    np.add.at(g, I_idx, terms)
    return dict(zip(intervals, g.tolist()))
