"""Intervals of the equioriented commutative grid and their poset.

A vertex of the m x n grid is a pair (i, j) with row i in 1..m counted
from the bottom and column j in 1..n.  An interval is a connected,
convex vertex set; concretely it is a staircase of contiguous row
segments [b_i, d_i] for i = s..t satisfying

    b_{i+1} <= b_i <= d_{i+1} <= d_i

for consecutive rows, so higher rows reach weakly further left and end
weakly further left.  Intervals are ordered by inclusion of their vertex
sets.  The poset is graded by vertex count but is not a lattice; joins
are taken over cover sets above a fixed interval.  The join of covers is
the least staircase over their union (b a running minimum going up, d a
running maximum going down), exact since every staircase containing the
union is at least that wide; mobius walks them on grids taller than 2.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

Vertex = tuple[int, int]


class Interval(namedtuple("Interval", "s t rows")):
    """A staircase: rows s..t with column span rows[i - s] = (b_i, d_i).

    The interval is the validated tuple (s, t, rows), so equality,
    hashing and the canonical interval order (s, t, row spans ascending)
    are the tuple's own; every enumeration and every serialised listing
    in this package follows that order.
    """

    __slots__ = ()

    def __new__(cls, s: int, t: int, rows: tuple[tuple[int, int], ...]) -> "Interval":
        if s < 1 or t < s:
            raise ValueError(f"bad row range {s}..{t}")
        if len(rows) != t - s + 1:
            raise ValueError(f"expected {t - s + 1} row spans, got {len(rows)}")
        for b, d in rows:
            if not 1 <= b <= d:
                raise ValueError(f"bad column span [{b},{d}]")
        for (b_lo, d_lo), (b_hi, d_hi) in zip(rows, rows[1:]):
            if not (b_hi <= b_lo <= d_hi <= d_lo):
                raise ValueError(
                    f"rows [{b_lo},{d_lo}] and [{b_hi},{d_hi}] violate the staircase condition"
                )
        return super().__new__(cls, s, t, rows)

    @classmethod
    def _make(cls, iterable) -> "Interval":
        # namedtuple's _make, and _replace through it, would skip __new__
        return cls(*iterable)

    def vertices(self) -> set[Vertex]:
        return {(i, j) for i, (b, d) in enumerate(self.rows, self.s) for j in range(b, d + 1)}

    def to_string(self) -> str:
        body = ";".join(f"[{b},{d}]" for b, d in self.rows)
        return f"{self.s}..{self.t}:{body}"

    @staticmethod
    def from_string(text: str) -> "Interval":
        """The interval that to_string writes as text: ASCII digits without
        leading zeros, spans joined by ';', nothing around them."""
        span = r"\[([1-9][0-9]*),([1-9][0-9]*)\]"
        m = re.fullmatch(rf"([1-9][0-9]*)\.\.([1-9][0-9]*):({span}(?:;{span})*)", text)
        if m is None:
            raise ValueError(f"malformed interval string: {text!r}")
        spans = tuple((int(b), int(d)) for b, d in re.findall(span, m.group(3)))
        return Interval(int(m.group(1)), int(m.group(2)), spans)


def interval_contains_rectangle(I: Interval, src: Vertex, dst: Vertex) -> bool:
    """Whether the full rectangle spanned by src..dst lies inside I.

    Staircase spans shrink leftward going up (b_{i+1} <= b_i and
    d_{i+1} <= d_i), so the rectangle rows i1..i2 fit exactly when
    s <= i1, i2 <= t, b_{i1} <= j1 and d_{i2} >= j2.
    """
    (i1, j1), (i2, j2) = src, dst
    if i1 > i2 or j1 > j2:
        raise ValueError(f"{src} is not componentwise below {dst}")
    return (I.s <= i1 and i2 <= I.t
            and I.rows[i1 - I.s][0] <= j1 and I.rows[i2 - I.s][1] >= j2)


@lru_cache(maxsize=None)
def enumerate_intervals(m: int, n: int) -> tuple[Interval, ...]:
    """All intervals of the m x n grid in canonical (s, t, rows) order,
    which the depth-first walk yields directly: b runs outside d."""
    if m < 1 or n < 1:
        raise ValueError(f"grid sizes must be positive: {m} x {n}")
    out: list[Interval] = []

    def extend(rows: list[tuple[int, int]], remaining: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if remaining == 0:
            yield tuple(rows)
            return
        b_prev, d_prev = rows[-1]
        for b in range(1, b_prev + 1):
            for d in range(b_prev, d_prev + 1):
                rows.append((b, d))
                yield from extend(rows, remaining - 1)
                rows.pop()

    for s in range(1, m + 1):
        for t in range(s, m + 1):
            for b in range(1, n + 1):
                for d in range(b, n + 1):
                    for rows in extend([(b, d)], t - s):
                        out.append(Interval(s, t, rows))
    return tuple(out)


def count_intervals(m: int, n: int) -> int:
    """len(enumerate_intervals(m, n)), counted row by row without building
    an interval.

    N_L[b][d] counts the staircases of L rows whose top row spans columns
    b..d: N_1 is 1 for b <= d, and N_{L+1}[b'][d'] is the sum of N_L[b][d]
    over b' <= b <= d' <= d, the rows it can stand on.  A staircase of L
    rows fits m - L + 1 bottom rows.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid sizes must be positive: {m} x {n}")
    N = [[int(b <= d) for d in range(n)] for b in range(n)]
    total = 0
    for L in range(1, m + 1):
        total += (m - L + 1) * sum(map(sum, N))
        # right[b][d]: sum of N[b][e] over e >= d; up[d][b]: of right[c][d] over c >= b
        right = [list(accumulate(row[::-1]))[::-1] for row in N]
        up = [list(accumulate(col[::-1]))[::-1] + [0] for col in zip(*right)]
        N = [[up[d][b] - up[d][d + 1] if b <= d else 0 for d in range(n)] for b in range(n)]
    return total
