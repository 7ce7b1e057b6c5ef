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
  columns V_t span im M((i, b) -> t).
* Pivot prefix.  The echelon cores scan columns left to right, so the
  pivots among the first c columns of a matrix number the rank of those
  columns.  One echelon form of [B | V_t2] therefore gives rank B and
  rank [A | B] for every source s2 of row 2, and one of [W | V_t2] gives
  rank W and rank [A | W].

That is one echelon form per sink, per (s1, t2) and per (s1, t1, t2),
one kernel per (s1, t1) and one product W per (s1, t1, t2), shared by
every interval with those role vertices.

The generic Hom-dimension solver below provides an independent route to
the same numbers through almost split sequences and is kept as the test
oracle for the closed forms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .ffmat import FFMatrix, ShapeError, kernel_basis, mat_mul, mat_rank, pivot_columns
from .grid import PersistenceModule, path_map_table
from .intervals import Interval, Vertex, enumerate_intervals

# perfbench/tracer.py patches these names on this module; nothing here calls them
from .ffmat import block2x2, hstack, vstack  # noqa: F401

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


def _prefix_ranks(x: np.ndarray, v: np.ndarray, cuts: list[int], p: int) -> list[int]:
    """rank [x | v[:, :c]] for every c in cuts, from one echelon form."""
    piv = pivot_columns(FFMatrix(np.hstack([x, v[:, : cuts[-1]]]), p))
    return [bisect_left(piv, x.shape[1] + c) for c in cuts]


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
            images = FFMatrix(np.hstack([table[((i, b), t)].data for b in range(1, j + 1)]), p)
            piv = pivot_columns(images)
            ends = accumulate((dims[(i, b)] for b in range(1, j + 1)), initial=0)
            rect = self.rect[t] = [bisect_left(piv, e) for e in ends]
            if i == 1:
                continue
            v = images.data[:, piv]
            for b1 in range(1, j + 1):
                s1 = (1, b1)
                bmat = table[(s1, t)]
                self.pair[(s1, t)] = _prefix_ranks(bmat.data, v, rect[:b1], p)
                for d1 in range(j + 1, g.n + 1):
                    t1 = (1, d1)
                    ker = kernels.get((s1, t1))
                    if ker is None:
                        ker = kernels[(s1, t1)] = kernel_basis(table[(s1, t1)])
                    w = mat_mul(bmat, ker)
                    self.triple[(s1, t1, t)] = _prefix_ranks(w.data, v, rect[:b1], p)
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


# --- quiver restriction and the Hom-dimension oracle -------------------

@dataclass(frozen=True)
class QuiverRep:
    """A representation of a finite quiver over GF(p).

    Vertices are indexed 0..len(dims)-1, arrows[k] = (src, dst) carries
    the matrix mats[k] of shape dims[dst] x dims[src].  labels
    optionally remembers originating grid vertices.
    """

    p: int
    dims: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...]
    mats: tuple[FFMatrix, ...]
    labels: tuple[Vertex, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.mats) != len(self.arrows):
            raise ShapeError("arrows and matrices must be parallel")
        for (src, dst), mat in zip(self.arrows, self.mats):
            want = (self.dims[dst], self.dims[src])
            if mat.shape != want or mat.p != self.p:
                raise ShapeError(f"arrow {src}->{dst} must be {want} over GF({self.p})")


def restrict(
    module: PersistenceModule,
    table: PathTable,
    E: Sequence[Vertex],
    arrows: Sequence[tuple[Vertex, Vertex]],
) -> QuiverRep:
    """Restriction of a module to chosen vertices and path maps.

    E lists grid vertices; arrows lists comparable grid vertex pairs
    with both endpoints in E.  The arrow matrices are the composed path
    maps from the table, so the result is the compression of the module
    along that subquiver.
    """
    index = {v: k for k, v in enumerate(E)}
    if len(index) != len(E):
        raise ValueError("duplicate vertices in restriction")
    pairs = []
    for src, dst in arrows:
        if src not in index or dst not in index:
            raise ValueError(f"arrow {src}->{dst} leaves the restriction vertex set")
        if not (src[0] <= dst[0] and src[1] <= dst[1]):
            raise ValueError(f"arrow {src}->{dst} is not order-increasing")
        pairs.append((index[src], index[dst]))
    return QuiverRep(
        p=module.field.p,
        dims=tuple(module.dims[v] for v in E),
        arrows=tuple(pairs),
        mats=tuple(table[(src, dst)] for src, dst in arrows),
        labels=tuple(E),
    )


def hom_dim(A: QuiverRep, B: QuiverRep) -> int:
    """dim Hom(A, B) for representations of the same quiver.

    A morphism is a family f_v : A(v) -> B(v) with
    f_dst A(alpha) = B(alpha) f_src for every arrow.  The constraints
    are assembled as one linear system via Kronecker products and the
    dimension is unknowns minus rank.
    """
    if A.arrows != B.arrows or len(A.dims) != len(B.dims):
        raise ShapeError("hom_dim needs representations of the same quiver")
    if A.p != B.p:
        raise ShapeError("modulus mismatch")
    p = A.p
    sizes = [B.dims[v] * A.dims[v] for v in range(len(A.dims))]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rows = []
    for (src, dst), amat, bmat in zip(A.arrows, (m.data for m in A.mats), (m.data for m in B.mats)):
        height = A.dims[src] * B.dims[dst]
        if height == 0:
            continue
        block = np.zeros((height, total), dtype=np.int64)
        # vec is column-stacked: vec(f_dst A) = (A^T kron I) vec(f_dst)
        # and vec(B f_src) = (I kron B) vec(f_src).
        block[:, offsets[dst]:offsets[dst + 1]] = np.kron(amat.T, np.eye(B.dims[dst], dtype=np.int64))
        block[:, offsets[src]:offsets[src + 1]] -= np.kron(np.eye(A.dims[src], dtype=np.int64), bmat)
        rows.append(block % p)
    if not rows:
        return total
    system = FFMatrix(np.vstack(rows), p)
    return total - mat_rank(system)


# --- fixed small representations for the oracle route ------------------

_SS_ARROWS = {
    POINT: (),
    ARROW: ((0, 1),),
    TWO_SOURCES_ONE_SINK: ((0, 2), (1, 2)),  # vertices [s1, s2, t2]
    ONE_SOURCE_TWO_SINKS: ((0, 1), (0, 2)),  # vertices [s1, t1, t2]
    TWO_SOURCES_TWO_SINKS: ((1, 3), (0, 3), (0, 2)),  # vertices [s1, s2, t1, t2]
}


def ss_quiver_vertices(shape: SsShape) -> tuple[Vertex, ...]:
    """Grid vertices of the compression quiver, in the fixed order used
    throughout this module."""
    if shape.kind in (POINT,):
        return (shape.src,)
    if shape.kind == ARROW:
        return (shape.src, shape.dst)
    if shape.kind == TWO_SOURCES_ONE_SINK:
        return (shape.s1, shape.s2, shape.t2)
    if shape.kind == ONE_SOURCE_TWO_SINKS:
        return (shape.s1, shape.t1, shape.t2)
    return (shape.s1, shape.s2, shape.t1, shape.t2)


def ss_restrict(module: PersistenceModule, table: PathTable, I: Interval) -> QuiverRep:
    """Compression of the module along the source-sink quiver of I."""
    shape = classify_ss(I)
    verts = ss_quiver_vertices(shape)
    arrows = [(verts[a], verts[b]) for a, b in _SS_ARROWS[shape.kind]]
    return restrict(module, table, verts, arrows)


def ss_interval_rep(shape: SsShape, p: int) -> QuiverRep:
    """The compressed interval module: one-dimensional with identities."""
    arrows = _SS_ARROWS[shape.kind]
    nverts = len(ss_quiver_vertices(shape))
    one = FFMatrix.identity(1, p)
    return QuiverRep(p=p, dims=(1,) * nverts, arrows=arrows, mats=(one,) * len(arrows))


def almost_split_fixtures(shape: SsShape, p: int) -> tuple[QuiverRep, QuiverRep]:
    """The middle and end terms (B, C) of the almost split sequence
    starting at the compressed interval module of a two-sources,
    two-sinks interval.

    On the quiver s2 -> t2 <- s1 -> t1, B has dimension vector
    (s1: 2, s2: 1, t1: 1, t2: 1) with arrow matrices [1] to t2 from s2,
    the projection [1 0] from s1 to t2 and [0 1] from s1 to t1; C is the
    simple at s1.  Multiplicity satisfies
    hom(I', M') - hom(B, M') + hom(C, M').
    """
    if shape.kind != TWO_SOURCES_TWO_SINKS:
        raise ValueError(f"almost split fixtures are defined for {TWO_SOURCES_TWO_SINKS} only")
    arrows = _SS_ARROWS[TWO_SOURCES_TWO_SINKS]
    # vertex order [s1, s2, t1, t2]
    b = QuiverRep(
        p=p,
        dims=(2, 1, 1, 1),
        arrows=arrows,
        mats=(
            FFMatrix([[1]], p),        # s2 -> t2
            FFMatrix([[1, 0]], p),     # s1 -> t2
            FFMatrix([[0, 1]], p),     # s1 -> t1
        ),
    )
    c = QuiverRep(
        p=p,
        dims=(1, 0, 0, 0),
        arrows=arrows,
        mats=(
            FFMatrix.zeros(0, 0, p),
            FFMatrix.zeros(0, 1, p),
            FFMatrix.zeros(0, 1, p),
        ),
    )
    return b, c
