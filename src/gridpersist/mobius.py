"""Moebius inversion on the interval poset of a commutative grid.

The poset of intervals ordered by inclusion is graded by vertex count
but is not a lattice.  Its Moebius function nevertheless has a local
description: mu([I, J]) is a signed count of the subsets of the covers
of I whose join above I equals J.  Inversion of a function against the
order (recovering g from f(I) = sum over J >= I of g(J)) therefore only
touches joins of cover subsets, never the full segment, which keeps the
cost per interval bounded by 2^|Cov(I)|.

The cover-subset joins depend only on the grid size, so they are built
once per size as a sparse signed operator on interval indices, walking
the subsets of the 2m + 2 cover slots depth first, one array pass per
subset; an inversion is then one scatter-add.  The join of a cover
subset is the least staircase over the union of its covers, since every
staircase containing the union is at least that wide: b takes a running
minimum going up and d a running maximum going down over the rows it
holds.  A valid left or right move keeps the staircase condition with
its neighbours, so this closure changes only the corners where a new row
above (below) meets a left (right) extension of the top (bottom) row.  A
join is found among the intervals by its padded span row: the bytes of a
row are one opaque key, the keys of the intervals are sorted once, and
the joins of each subset are located among them by binary search.
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
    read from the operator's entries for I."""
    intervals = enumerate_intervals(m, n)
    i = bisect_left(intervals, I)
    if i == len(intervals) or intervals[i] != I:
        raise ValueError(f"{I.to_string()} does not fit in a {m} x {n} grid")
    I_idx, J_idx, sign = _mobius_operator(m, n)
    mine = I_idx == i
    for j, sg in zip(J_idx[mine].tolist(), sign[mine].tolist()):
        yield sg, intervals[j]


def _cover_moves(b: np.ndarray, d: np.ndarray, n: int):
    """The cover moves of each padded staircase, one column per slot.

    Returns four (N, 2m + 2) arrays: whether slot `slot` of staircase k
    is a valid move, and the 0-based row and new (b, d) span it writes.
    """
    N, m = b.shape
    rows = np.arange(1, m + 1)
    inside = d > 0
    s = inside.argmax(axis=1) + 1
    t = m - inside[:, ::-1].argmax(axis=1)
    b_above = np.column_stack([b[:, 1:], np.full(N, n + 1, dtype=b.dtype)])
    d_below = np.column_stack([np.zeros(N, dtype=b.dtype), d[:, :-1]])
    b_t, d_s = b[np.arange(N), t - 1], d[np.arange(N), s - 1]
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
    return valid, move_row, move_b, move_d


def _span_keys(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One opaque key per padded staircase: the bytes of its (b, d) span row."""
    rows = np.hstack([b, d])
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _slot_subsets(moves, first: int, k: np.ndarray, b: np.ndarray, d: np.ndarray, sign: int):
    """Depth first over the subsets that add slots >= first: yield each one's
    intervals (those of k with all its moves valid), their spans with its
    moves applied, not yet closed, and its sign."""
    valid, move_row, move_b, move_d = moves
    for slot in range(first, valid.shape[1]):
        keep = valid[k, slot]
        if not keep.any():
            continue
        ck, cb, cd = k[keep], b[keep], d[keep]
        at = (np.arange(len(ck)), move_row[ck, slot])
        np.minimum.at(cb, at, move_b[ck, slot])
        np.maximum.at(cd, at, move_d[ck, slot])
        del keep, at  # not held while the descendants are walked
        yield ck, cb, cd, -sign
        yield from _slot_subsets(moves, slot + 1, ck, cb, cd, -sign)


@lru_cache(maxsize=None)
def _mobius_operator(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (I_idx, J_idx, sign) entry per nonempty cover subset S of I.

    J is the join of S and sign is (-1)^|S|, so summing the signs of
    the entries of a pair gives mu([I, J]) for I < J.  Indices are
    positions in enumerate_intervals(m, n), entries in no set order.

    Interval k is held as padded row spans (b[k, i-1], d[k, i-1]) for
    rows i = 1..m, with (n + 1, 0) outside its rows, so the union of
    covers is the elementwise min of b and max of d over its members.  Each
    interval has at most 2m + 2 cover moves, one row span widened each:
    slot r extends row r + 1 left, slot m + r extends it right, slot 2m
    starts row t + 1 at (b_t, b_t) and slot 2m + 1 starts row s - 1 at
    (d_s, d_s).  Each subset of slots (_slot_subsets) closes its spans
    into the least staircase over their rows and fills its own slice of
    the entries, whose number is known before the walk.
    """
    intervals = enumerate_intervals(m, n)
    pad = ((n + 1, 0),)
    spans = np.array([pad * (I.s - 1) + I.rows + pad * (m - I.t) for I in intervals], dtype=np.int32)
    b, d = spans[:, :, 0], spans[:, :, 1]
    moves = _cover_moves(b, d, n)
    size = int(((1 << moves[0].sum(axis=1)) - 1).sum())
    I_idx, J_idx = np.empty((2, size), dtype=np.int32)
    sign = np.empty(size, dtype=np.int8)
    keys = _span_keys(b, d)
    order = np.argsort(keys)
    keys = keys[order]
    end = 0
    for k, kb, kd, sg in _slot_subsets(moves, 0, np.arange(len(b), dtype=np.int32), b, d, 1):
        jb = np.minimum.accumulate(kb, axis=1)
        jd = np.maximum.accumulate(kd[:, ::-1], axis=1)[:, ::-1]
        jb[kd == 0], jd[kd == 0] = n + 1, 0
        stop = end + len(k)
        I_idx[end:stop], sign[end:stop] = k, sg
        J_idx[end:stop] = order[np.searchsorted(keys, _span_keys(jb, jd))]
        end = stop
    operator = (I_idx, J_idx, sign)
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
