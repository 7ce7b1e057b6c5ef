"""Moebius inversion on the interval poset of a commutative grid.

Inversion recovers g from f(I) = sum over J >= I of g(J), intervals
ordered by inclusion.  On grids of height at most 2 it is a finite
difference over dense arrays indexed by column 0..n + 1, zero outside the
intervals: R_i[b, d] holds the intervals on row i alone and
F[b1, d1, b2, d2] the two-row staircases b2 <= b1 <= d2 <= d1.  A
two-row f sums g over b1' <= b1, d1' >= d1, b2' <= b2, d2' >= d2, so g
is its fourfold difference, Δ_b x[b] = x[b] - x[b - 1] along each b and
Δ_d x[d] = x[d] - x[d + 1] along each d, once F is closed to F^ on the
two planes a difference steps onto: b2 = b1 + 1, where F^ equals its value
at b2 = b1, and d2 = d1 + 1, where it equals its value at d1 = d2.  A
row-1 interval [b, d] lies below every staircase whose row 1 contains
it, so g_1 is Δ_bΔ_d R_1 less the staircases with row 1 exactly [b, d],
(Δ_b1Δ_d1 F^)[b, d, b, b]; g_2 likewise drops (Δ_b2Δ_d2 F^)[d, d, b, d].

Grids of height 3 or more are not reached by the CLI; there g(I) is f(I)
plus (-1)^|S| f(join S) over the nonempty subsets S of the covers of I.
Each cover widens one row span by one column, or starts row t + 1 at
(b_t, b_t) or row s - 1 at (d_s, d_s).  The join of a subset is the
least staircase over the union of its covers, since every staircase
containing the union is at least that wide: b takes a running minimum
going up and d a running maximum going down.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Iterator

import numpy as np

from .intervals import Interval, enumerate_intervals

IntervalFunction = dict[Interval, int]


def cover_subset_joins(I: Interval, m: int, n: int) -> Iterator[tuple[int, Interval]]:
    """Yield ((-1)^|S|, join(S)) over all nonempty subsets S of Cov(I)."""
    if I.t > m or I.rows[0][1] > n:
        raise ValueError(f"{I.to_string()} does not fit in a {m} x {n} grid")
    spans = dict(enumerate(I.rows, I.s))
    # (row, b, d) of each cover: its one new or widened span
    moves = [(i, b - 1, d) for i, (b, d) in spans.items()
             if b > 1 and (i == I.t or spans[i + 1][0] < b)]
    moves += [(i, b, d + 1) for i, (b, d) in spans.items()
              if d < n and (i == I.s or d < spans[i - 1][1])]
    if I.t < m:
        moves.append((I.t + 1, spans[I.t][0], spans[I.t][0]))
    if I.s > 1:
        moves.append((I.s - 1, spans[I.s][1], spans[I.s][1]))
    for size in range(1, len(moves) + 1):
        for subset in combinations(moves, size):
            joined = dict(spans)
            for i, b, d in subset:
                b0, d0 = joined.get(i, (b, d))
                joined[i] = (min(b0, b), max(d0, d))
            s, t = min(joined), max(joined)
            bs = accumulate((joined[i][0] for i in range(s, t + 1)), min)
            ds = list(accumulate((joined[i][1] for i in range(t, s - 1, -1)), max))
            yield (-1) ** size, Interval(s, t, tuple(zip(bs, reversed(ds))))


def _difference(x: np.ndarray, b_axes: tuple[int, ...], d_axes: tuple[int, ...]) -> np.ndarray:
    """Apply Δ_b along each of b_axes and Δ_d along each of d_axes, in place."""
    for axis, step in [(a, 1) for a in b_axes] + [(a, -1) for a in d_axes]:
        y = np.moveaxis(x, axis, 0)[::step]
        np.subtract(y[1:], y[:-1], out=y[1:])
    return x


def mobius_invert(f: IntervalFunction, m: int, n: int) -> IntervalFunction:
    """Inverse of the zeta action: g with f(I) = sum_{J >= I} g(J).

    Finite differences on grids of height at most 2, sums over the cover
    subset joins on taller ones.  Values are exact integers; f must be
    total on the canonical interval list.
    """
    intervals = enumerate_intervals(m, n)
    values = [f[I] for I in intervals]
    if m > 2:
        return {I: v + sum(sign * f[J] for sign, J in cover_subset_joins(I, m, n))
                for I, v in zip(intervals, values)}
    # every partial difference is a signed sum of at most 16 values of f;
    # beyond int64, Python ints
    dtype = np.min_scalar_type(-16 * int(max(map(abs, values))) - 1)
    values = np.array(values, dtype=dtype)
    k = np.arange(n + 2)
    b, d = k[:, None], k[None, :]
    row = (1 <= b) & (b <= d) & (d <= n)
    r = row.sum()
    # C order on the R_1, F and R_2 cells is the canonical interval order
    R1 = np.zeros(row.shape, dtype)
    R1[row] = values[:r]
    if m == 1:
        return dict(zip(intervals, _difference(R1, (0,), (1,))[row].tolist()))
    b1, d1, b2, d2 = np.ix_(k, k, k, k)
    stair = (1 <= b2) & (b2 <= b1) & (b1 <= d2) & (d2 <= d1) & (d1 <= n)
    F, R2 = np.zeros(stair.shape, dtype), np.zeros(row.shape, dtype)
    F[stair] = values[r:-r]
    R2[row] = values[-r:]
    # the b plane first, so the d plane copies the corner where both apply
    F[k[:-1], :, k[1:], :] = F[k[:-1], :, k[:-1], :]
    F[:, k[:-1], :, k[1:]] = F[:, k[1:], :, k[1:]]
    # the corner slices F^[x, y, z, z] and F^[z, z, x, y], before F is differenced in place
    top = _difference(F[:, :, k, k], (0,), (1,))[b, d, b]
    bottom = _difference(F[k, k], (1,), (2,))[d, b, d]
    g1 = _difference(R1, (0,), (1,)) - top
    g2 = _difference(R2, (0,), (1,)) - bottom
    g = np.concatenate([g1[row], _difference(F, (0, 2), (1, 3))[stair], g2[row]])
    return dict(zip(intervals, g.tolist()))
