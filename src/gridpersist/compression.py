"""Compressed multiplicities of intervals in 2 x n persistence modules.

The source-sink compression of an interval I restricts a module to the
sources and sinks of I with the composed path maps between them.  The
compressed multiplicity of I in M is the multiplicity of the compressed
interval module inside the compressed M; for grids of height at most
two it reduces to ranks of matrices built from the path-map table.

Interval shapes over a 2 x n grid, writing row 1 for the bottom row and
(b_i, d_i) for the column span of row i:

* a rectangle (single row, or equal spans) has one source and one sink;
* b_2 < b_1, d_2 = d_1: sources s1 = (1, b_1), s2 = (2, b_2) and a
  single sink t2 = (2, d_2);
* b_2 = b_1, d_2 < d_1: a single source s1 = (1, b_1) and sinks
  t1 = (1, d_1), t2 = (2, d_2);
* b_2 < b_1, d_2 < d_1: sources s1, s2 and sinks t1, t2.

With A = M(s2 -> t2), B = M(s1 -> t2), C = M(s1 -> t1) and
W = B ker C, the multiplicity per shape is

* rectangle:                 rank M(src -> snk)
* two sources, one sink:     rank A + rank B - rank [A | B]
* one source, two sinks:     rank B - rank W
* two sources, two sinks:    rank [A | W] - rank W + rank B - rank [A | B]

The last two are the block forms rank B + rank C - rank [B ; C] and
rank [[A, B], [0, C]] + rank B - rank [B ; C] - rank [A | B], rewritten
with rank [B ; C] = rank C + rank W and
rank [[A, B], [0, C]] = rank C + rank [A | W], so every matrix
eliminated has the rows of a single vertex space.

The ranks are grouped, and the grouping is exact:

* Nested images.  For a sink t = (i, j) and b < j,
  im M((i, b) -> t) is inside im M((i, b + 1) -> t), since the first map
  factors through the second.  So one echelon form of
  [M((i, 1) -> t) | ... | M((i, j) -> t)] has r_b pivots in its first b
  blocks, r_b = rank M((i, b) -> t), and the first r_b of its pivot
  columns V_t span im M((i, b) -> t).  So rank [A | x] = rank [V_c | x]
  with c = r_b for A = M((2, b) -> t).
* One change of coordinates per sink.  For a sink t on row 2 the same
  elimination, run on [images | I], also gives an invertible L with
  L V_t = [I ; 0]: the reduced form makes each pivot column a unit
  vector, and L lists the rows holding pivots first, in pivot-column
  order.  An invertible L keeps ranks, and L V_c is the first c unit
  vectors, so for every x

      rank [V_c | x] = rank [L V_c | L x] = c + rank((L x)[c:]).

  Without that row order L V_c would be c unit vectors in scattered
  rows, and the identity would fail.
* Suffix ranks in one elimination.  The echelon cores scan columns left
  to right, so the pivots among the first k columns of a matrix number
  the rank of those columns.  L x with its rows reversed, then
  transposed, has the rows of (L x)[c:] as its first d - c columns, so
  its pivots give rank((L x)[c:]) for every c at once.  Every B and
  every W = B ker C of a sink t is a member of one zero-padded stack
  (split only past _BATCH members), so one elimination gives rank B,
  rank W, rank [A | B] and rank [A | W] for all the intervals with
  sink t.

The kernels of M(s1 -> t1) for one source s1 come from one stack too,
rows zero-padded.  So a 2 x n module takes one elimination per sink,
one suffix stack per sink of row 2 and one kernel stack per source of
row 1; V never enters an elimination again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from .ffmat import FFMatrix, Stack, kernel_bases, mat_mul, pivot_columns, reducing_transform
from .grid import PersistenceModule, path_map_table
from .intervals import Interval, Vertex, enumerate_intervals

# perfbench/tracer.py patches these names on this module; nothing here calls them
from .ffmat import block2x2, hstack, mat_rank, vstack  # noqa: F401

PathTable = dict[tuple[Vertex, Vertex], FFMatrix]

POINT = "point"
ARROW = "arrow"
TWO_SOURCES_ONE_SINK = "two_sources_one_sink"
ONE_SOURCE_TWO_SINKS = "one_source_two_sinks"
TWO_SOURCES_TWO_SINKS = "two_sources_two_sinks"


@dataclass(frozen=True)
class SsShape:
    """Source-sink shape of an interval in a grid of height <= 2.

    kind is one of the five tags above.  For rectangles src and dst are
    set; for the other shapes the role vertices s1, s2, t1, t2 are set
    as applicable (s1/t1 on the bottom row, s2/t2 on the top row).
    """

    kind: str
    src: Vertex | None = None
    dst: Vertex | None = None
    s1: Vertex | None = None
    s2: Vertex | None = None
    t1: Vertex | None = None
    t2: Vertex | None = None


def classify_ss(I: Interval) -> SsShape:
    """Classify an interval of a height <= 2 grid by sources and sinks.

    Degenerate coincidences (equal row spans, single rows, single
    vertices) all land in the rectangle cases POINT and ARROW.
    """
    if I.t - I.s > 1:
        raise ValueError(f"interval spans {I.t - I.s + 1} rows; compression handles at most 2")
    if I.s == I.t:
        b, d = I.span(I.s)
        src, dst = (I.s, b), (I.s, d)
        return SsShape(POINT if src == dst else ARROW, src=src, dst=dst)
    b1, d1 = I.span(I.s)
    b2, d2 = I.span(I.t)
    if b1 == b2 and d1 == d2:
        src, dst = (I.s, b1), (I.t, d2)
        return SsShape(ARROW, src=src, dst=dst)
    if b2 < b1 and d2 == d1:
        return SsShape(TWO_SOURCES_ONE_SINK, s1=(I.s, b1), s2=(I.t, b2), t2=(I.t, d2))
    if b2 == b1 and d2 < d1:
        return SsShape(ONE_SOURCE_TWO_SINKS, s1=(I.s, b1), t1=(I.s, d1), t2=(I.t, d2))
    return SsShape(
        TWO_SOURCES_TWO_SINKS, s1=(I.s, b1), s2=(I.t, b2), t1=(I.s, d1), t2=(I.t, d2)
    )


# members per suffix-rank stack; bounds the scratch of one elimination
_BATCH = 64


def _suffix_ranks(members: Iterator[tuple[object, FFMatrix]], count: int, width: int, d: int, p: int):
    """Yield (tag, s) for each of the count pairs (tag, y) of members,
    y a d x w matrix with w <= width, where s[k] = rank y[d - k:].

    y with its rows reversed, then transposed, has the rows y[d - k:] as
    its first k columns, so one elimination of a stack of such members
    gives every s at once.  A stack holds at most _BATCH members, and
    each y is dropped once it is stacked.
    """
    for lo in range(0, count, _BATCH):
        size = min(_BATCH, count - lo)
        stack = Stack(size, width, d, p)
        tags = []
        for k, (tag, y) in zip(range(size), members):
            stack[k] = y.data[::-1].T
            tags.append(tag)
        s = np.zeros((size, d + 1), dtype=np.int64)
        np.cumsum(stack.eliminate() >= 0, axis=1, out=s[:, 1:])
        yield from zip(tags, s.tolist())


class _GroupedRanks:
    """Every rank the multiplicity formulas need, grouped by role vertices.

    For a sink t = (i, j), rect[t][b] = rank M((i, b) -> t), b = 0..j,
    with rect[t][0] = 0.  For s1 = (1, b1) on row 1 and t2 on row 2,
    pair[(s1, t2)][b] = rank [M((2, b) -> t2) | B] for b = 0..b1-1, the
    b = 0 entry being rank B; triple[(s1, t1, t2)][b] is the same with
    W in place of B.
    """

    def __init__(self, module: PersistenceModule, table: PathTable):
        g, p, dims = module.grid, module.field.p, module.dims
        self.rect: dict[Vertex, list[int]] = {}
        self.pair: dict[tuple[Vertex, Vertex], list[int]] = {}
        self.triple: dict[tuple[Vertex, Vertex, Vertex], list[int]] = {}
        kernels: dict[tuple[Vertex, Vertex], FFMatrix] = {}
        for t in g.vertices():
            i, j = t
            images = FFMatrix._wrap(np.hstack([table[((i, b), t)].data for b in range(1, j + 1)]), p)
            if i == 1:
                pivots = pivot_columns(images)
            else:
                pivots, lmat = reducing_transform(images)
            ends = accumulate((dims[(i, b)] for b in range(1, j + 1)), initial=0)
            rect = self.rect[t] = [bisect_left(pivots, e) for e in ends]
            if i == 1:
                continue
            if j < g.n:
                s1 = (1, j)
                targets = [(1, d1) for d1 in range(j + 1, g.n + 1)]
                bases = kernel_bases([table[(s1, t1)] for t1 in targets])
                kernels.update(((s1, t1), k) for t1, k in zip(targets, bases))

            def members():
                # L B and L W for every B = M(s1 -> t) and W = B ker C of sink t
                for b1 in range(1, j + 1):
                    lb = mat_mul(lmat, table[((1, b1), t)])
                    yield (self.pair, ((1, b1), t), b1), lb
                    for d1 in range(j + 1, g.n + 1):
                        key = ((1, b1), (1, d1), t)
                        yield (self.triple, key, b1), mat_mul(lb, kernels[key[:2]])

            # a W = B ker C has at most as many columns as its B
            width = max(dims[(1, b1)] for b1 in range(1, j + 1))
            d = dims[t]
            for (out, key, b1), s in _suffix_ranks(members(), j * (g.n - j + 1), width, d, p):
                # rank [V_c | x] = c + rank((L x)[c:])
                out[key] = [c + s[d - c] for c in rect[:b1]]
            # sinks further right on row 2 need no kernel of a map ending at (1, j + 1)
            for b1 in range(1, j + 1):
                kernels.pop(((1, b1), (1, j + 1)), None)

    def value(self, I: Interval) -> int:
        shape = classify_ss(I)
        if shape.kind in (POINT, ARROW):
            src, dst = shape.src, shape.dst
            return self.rect[dst][src[1]] if src[0] == dst[0] else self.pair[(src, dst)][0]
        pair = self.pair[(shape.s1, shape.t2)]
        if shape.kind == TWO_SOURCES_ONE_SINK:
            b2 = shape.s2[1]
            return self.rect[shape.t2][b2] + pair[0] - pair[b2]
        triple = self.triple[(shape.s1, shape.t1, shape.t2)]
        if shape.kind == ONE_SOURCE_TWO_SINKS:
            return pair[0] - triple[0]
        b2 = shape.s2[1]
        return triple[b2] - triple[0] + pair[0] - pair[b2]


def compressed_multiplicity_function(module: PersistenceModule) -> dict[Interval, int]:
    """Compressed multiplicity of every interval, in canonical order.

    Builds the path-map table eagerly, computes the grouped ranks once
    and evaluates the formulas per interval on one thread.
    """
    g = module.grid
    if g.m > 2:
        raise ValueError(f"grid height {g.m} > 2 is not supported")
    intervals = enumerate_intervals(g.m, g.n)
    ranks = _GroupedRanks(module, path_map_table(module))
    return {I: ranks.value(I) for I in intervals}
