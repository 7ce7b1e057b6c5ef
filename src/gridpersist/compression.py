"""Compressed multiplicities of intervals in 2 x n persistence modules.

The source-sink compression of an interval I restricts a module to the
sources and sinks of I with the composed path maps between them.  The
compressed multiplicity of I in M is the multiplicity of the compressed
interval module inside the compressed M; for grids of height at most
two it reduces to ranks of matrices built from the arrows alone, without
a table of path maps.

Take an interval over both rows of a 2 x n grid, writing row 1 for the
bottom row and (b_i, d_i) for the column span of row i, so b_2 <= b_1
and d_2 <= d_1.  Its corners are s1 = (1, b_1), s2 = (2, b_2),
t1 = (1, d_1) and t2 = (2, d_2).  With A = M(s2 -> t2), B = M(s1 -> t2),
C = M(s1 -> t1) and W = B ker C, its compressed multiplicity is

    rank [A | W] - rank W + rank B - rank [A | B].

With two sources and two sinks this is the block form
rank [[A, B], [0, C]] + rank B - rank [B ; C] - rank [A | B], rewritten
with rank [B ; C] = rank C + rank W and
rank [[A, B], [0, C]] = rank C + rank [A | W], so every matrix
eliminated has the rows of a single vertex space.  It stays exact where
a corner is not a source or sink of its own:

* b_2 = b_1: s2 sits over s1, so im A contains im B and im W, and the
  formula is rank B - rank W;
* d_2 = d_1: t1 sits under t2, so B = M(t1 -> t2) C and W = 0, and the
  formula is rank A + rank B - rank [A | B].

Both at once leave rank B, the rectangle's one path map; an interval on
a single row (i) has rank M((i, b_i) -> (i, d_i)).

Every rank this needs comes from one narrow elimination per grid column
and one per sink of row 2, by three exact identities:

* Image chain.  For a sink t = (i, j), f = M((i, j - 1) -> t) and b < j,
  M((i, b) -> t) = f M((i, b) -> (i, j - 1)).  If the first r_b columns
  of a basis V of the previous sink span im M((i, b) -> (i, j - 1)), then
  f V[:, :r_b] spans im M((i, b) -> t).  A column of an echelon form
  holds a pivot exactly when it is outside the span of the columns before
  it, so f V has rank M((i, b) -> t) pivots among its first r_b columns.
  Let Q be its pivot columns, P their pivot rows and F the other rows.
  A forward elimination leaves f V[P, Q] invertible, so
  V_t = [f V[:, Q] | E_F], E_F the unit columns of the rows F, is a
  basis of the same kind for t: the images are nested, and E_F
  completes them.  Let T be the row operations of the walk on row 2,
  with its rows P first, in pivot-column order, then F.  Then
  T V_t = [[R, 0], [0, I]] with R upper triangular and invertible: a
  pivot row is zero in the pivot columns before its own, a free row in
  all of them, and only pivot rows are added to rows.  With V_c the
  first c columns of V_t, T V_c is zero below row c and invertible above
  it, so for every x

      rank [V_c | x] = rank [T V_c | T x] = c + rank((T x)[c:]).

  Any invertible upper triangular D in place of T V_t would do the same,
  as (D y)[c:] = D[c:, c:] y[c:], so R need not be I: a forward
  elimination leaves it as it is.  T is never formed: on row 2 the walk
  carries the vertical arrow M((1, j) -> t) after f V and stops before
  it, and the walked arrow, its rows read in that order, is
  T M((1, j) -> t).
* Rank profile.  Both echelon cores pivot on the topmost free row with a
  nonzero and change a row only by multiples of pivot rows.  A free row
  above the pivot row is zero in its column and takes nothing from it,
  so the first r rows take the pivots they would take alone, and
  rank Y[:r, :m] is the number of columns c < m whose pivot row is
  above r.
* No kernels.  Take s = (1, j), t = (2, j), V1 the basis of s,
  U = (T M(s -> t)) V1 from the walked arrow, H = M(s -> t1) V1,
  c = rank A and c1 = rank M(s1 -> s), so V1[:, :c1] spans
  im M(s1 -> s).  B has the
  image of M(s -> t) V1[:, :c1], so rank [A | B] = c + rank U[c:, :c1].
  W = B ker C has the image of M(s -> t) V1[:, :c1] ker H[:, :c1], and
  rank Y ker H = rank [H ; Y] - rank H, so rank [A | W] is
  c + rank [H ; U[c:]][:, :c1] - rank H[:, :c1].

With rev(U) the rows of U reversed, the rank profiles of rev(U) and of
[H ; rev(U)] for each t1 = (1, d1), d1 > j, give every rank [A | B] and
rank [A | W] of the sink t.  So a 2 x n module takes n image
eliminations, each a stack of the f V of both rows.  The profile members of all n sinks of
row 2 then go to one ffmat.stack_pivots call: the members of the sink
(2, j) have the dim M_(1, j) columns of V1, so on a module with equal
dimensions all sinks share stacks: n (n + 1) / 2 members in as many
eliminations as ffmat._STACK_BYTES needs for them, not n.  On GF(2) that
is one up to n = 39 at d = 100 and up to n = 178 at d = 10.  The members
are held as uint16, which holds every residue since p < 2^16.  One
cumulative sum over the pivot rows of all of them gives every profile
count, and prof[t] takes its slice of it.

Every matrix multiplied takes one arrow at a time: f is the horizontal
arrow into t, T M(s -> t) is the vertical arrow at s as the walk leaves
it, and H is chained along row 1, M(s -> (1, d1)) V1 =
h M(s -> (1, d1 - 1)) V1 with h the arrow (1, d1 - 1) -> (1, d1),
starting from V1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ffmat import FFMatrix, Stack, mat_mul, stack_pivots
from .grid import PersistenceModule
from .intervals import Interval, Vertex, enumerate_intervals

# perfbench/tracer.py patches these names on this module; nothing here calls them
from .ffmat import block2x2, hstack, mat_rank, vstack  # noqa: F401
from .grid import path_map_table  # noqa: F401

MAX_HEIGHT = 2  # the tallest grid compressed here; the CLI reads no taller one

POINT = "point"
ARROW = "arrow"
TWO_SOURCES_ONE_SINK = "two_sources_one_sink"
ONE_SOURCE_TWO_SINKS = "one_source_two_sinks"
TWO_SOURCES_TWO_SINKS = "two_sources_two_sinks"


class SsShape(NamedTuple):
    """Source-sink shape of an interval in a grid of height <= MAX_HEIGHT.

    kind is one of the five tags above.  s1 = (s, b_s) and t2 = (t, d_t)
    are always set: for a rectangle they are its source and sink.  s2 and
    t1 are set only where the interval has a second source (t, b_t) or a
    second sink (s, d_s).
    """

    kind: str
    s1: Vertex
    t2: Vertex
    s2: Vertex | None = None
    t1: Vertex | None = None


def classify_ss(I: Interval) -> SsShape:
    """Classify an interval of a height <= MAX_HEIGHT grid by sources and sinks.

    Degenerate coincidences (equal row spans, single rows, single
    vertices) all land in the rectangle cases POINT and ARROW.
    """
    s, t, rows = I
    if t - s >= MAX_HEIGHT:
        raise ValueError(f"interval spans {t - s + 1} rows; compression handles at most {MAX_HEIGHT}")
    (b1, d1), (b2, d2) = rows[0], rows[-1]
    # a staircase has b2 <= b1 and d2 <= d1
    s1, t2 = (s, b1), (t, d2)
    s2 = (t, b2) if b2 < b1 else None
    t1 = (s, d1) if d2 < d1 else None
    if s2 is None:
        kind = ONE_SOURCE_TWO_SINKS if t1 else POINT if s1 == t2 else ARROW
    else:
        kind = TWO_SOURCES_TWO_SINKS if t1 else TWO_SOURCES_ONE_SINK
    # tuple.__new__ skips the NamedTuple constructor's keyword handling
    return tuple.__new__(SsShape, (kind, s1, t2, s2, t1))


def _image_step(images: list[np.ndarray], block: np.ndarray, p: int) -> tuple[list, list, np.ndarray]:
    """One column of the image chain, from the images f V of its sinks,
    bottom row first, in one forward elimination.

    The top member is [f V | 0 | block], zero columns padding f V to the
    widest image, built before the stack: the walk stops before block,
    which only takes the top member's row operations.  Returns per sink
    the pivot flags of the columns of f V and the basis
    V_t = [f V[:, held] | E_F], F the rows without a pivot; and the
    walked block with the top member's pivot rows first, in pivot-column
    order, then F.  That is T block, T the top sink's transform.
    """
    lim = max(fv.shape[1] for fv in images)
    *members, fv = images
    pad = np.zeros((fv.shape[0], lim - fv.shape[1]), dtype=np.int64)
    members.append(np.concatenate((fv, pad, block), axis=1))
    stack = Stack(members, p, limit=lim, forward=True)
    helds, bases = [], []
    for fv, piv in zip(images, stack.eliminate()):
        held = piv[:fv.shape[1]] >= 0
        pivrows = piv[piv >= 0]
        free = np.ones(fv.shape[0], dtype=bool)
        free[pivrows] = False
        helds.append(held)
        bases.append(np.concatenate((fv[:, held], np.eye(fv.shape[0], dtype=np.int64)[:, free]), axis=1))
    return helds, bases, stack.reduced()[-1][np.concatenate((pivrows, np.flatnonzero(free))), lim:]


def _sink_members(module: PersistenceModule, j: int, tm: FFMatrix, v1: FFMatrix) -> list[np.ndarray]:
    """The profile members of the sink t = (2, j), as uint16.

    tm is T M(s -> t), the walked vertical arrow of t, and v1 the basis V
    of s = (1, j).  With U = T M(s -> t) V1 and H = M(s -> (1, d1)) V1,
    the members are rev(U) and [H ; rev(U)] for each d1 > j.
    """
    rev = mat_mul(tm, v1).data[::-1]
    members, h = [rev.astype(np.uint16)], v1
    for d1 in range(j + 1, module.grid.n + 1):
        h = mat_mul(module.hmaps[(1, d1 - 1)], h)
        members.append(np.concatenate((h.data, rev), dtype=np.uint16, casting="unsafe"))
    return members


class _GroupedRanks:
    """Every rank the multiplicity formula needs, grouped by sink.

    For a sink t = (i, j), rect[t][b] = rank M((i, b) -> t), b = 0..j,
    with rect[t][0] = 0.  For t2 = (2, j), prof[t2][k][b1 - 1][b] is
    rank [M((2, b) -> t2) | B] for k = 0, and the same with W in place of
    B for k >= 1 and t1 = (1, j + k), where s1 = (1, b1); b = 0..j, and
    the b = 0 entry is rank B or rank W.
    """

    def __init__(self, module: PersistenceModule):
        g, p, dims = module.grid, module.field.p, module.dims
        self.rect: dict[Vertex, list[int]] = {}
        self.prof: dict[Vertex, list[list[list[int]]]] = {}
        # the profile members of every row-2 sink, in column order
        members: list[np.ndarray] = []
        # per row, the basis V of the previous sink
        bases = {i: FFMatrix.zeros(0, 0, p) for i in range(1, g.m + 1)}
        for j in range(1, g.n + 1):
            sinks = [(i, j) for i in bases]
            images = [
                mat_mul(module.hmaps[(i, j - 1)], bases[i]).data if j > 1
                else np.zeros((dims[t], 0), dtype=np.int64)
                for i, t in zip(bases, sinks)
            ]
            # the top sink's vertical arrow, or no columns on a single row
            arrow = module.vmaps[(1, j)].data if g.m > 1 else np.zeros((dims[sinks[0]], 0), dtype=np.int64)
            helds, new, tm = _image_step(images, arrow, p)
            for i, t, held, v in zip(bases, sinks, helds, new):
                prefix = np.concatenate(([0], np.cumsum(held)))
                self.rect[t] = prefix[self.rect.get((i, j - 1), [0])].tolist() + [dims[t]]
                bases[i] = FFMatrix._wrap(v, p)
            if g.m > 1:
                members += _sink_members(module, j, FFMatrix._wrap(tm, p), bases[1])
        if g.m > 1:
            self._sink_ranks(module, stack_pivots(members, p))

    def _sink_ranks(self, module: PersistenceModule, pivots: list[np.ndarray]):
        """prof of every sink t = (2, j), from the rank profiles of the
        profile members, whose pivot rows pivots holds in column order.

        The n - j + 1 members rev(U) and [H ; rev(U)] of the sink (2, j)
        have the dim M_(1, j) columns of V1.  The pivot rows of all
        members, padded to the widest by a row number above every row,
        stack into one (members, cols) array.  Each member's row counts
        r, h for its H and h + dims[t] - c for each c, padded to n + 2,
        form a (members, n + 2) array, and one cumsum over the comparison
        of the two gives every rank Y[:r, :m]: the columns before m whose
        pivot row is above r.
        """
        g, dims = module.grid, module.dims
        none = np.iinfo(np.int64).max
        sizes = np.array([piv.size for piv in pivots])
        piv = np.full((len(pivots), sizes.max(initial=0)), none)
        flat = np.concatenate(pivots)
        piv[np.arange(piv.shape[1]) < sizes[:, None]] = np.where(flat >= 0, flat, none)
        rows = np.zeros((len(pivots), g.n + 2), dtype=np.int64)
        sinks, lo = [], 0
        for j in range(1, g.n + 1):
            t, k = (2, j), slice(lo, lo + g.n - j + 1)
            h = np.array([0] + [dims[(1, d1)] for d1 in range(j + 1, g.n + 1)])[:, None]
            c = np.array(self.rect[t])
            rows[k, :j + 2] = np.concatenate((h, h + dims[t] - c), axis=1)
            sinks.append((t, k, c, self.rect[(1, j)][1:]))
            lo = k.stop
        # counts[k, x, m] = rank Y_k[:rows[k, x], :m]
        counts = np.zeros((*rows.shape, piv.shape[1] + 1), dtype=np.int32)
        np.cumsum(piv[:, None, :] < rows[:, :, None], axis=2, dtype=np.int32, out=counts[:, :, 1:])
        for t, k, c, c1 in sinks:
            # c + rank [H ; U[c:]][:, :c1] - rank H[:, :c1], H empty for B;
            # row b1 - 1 of each member holds the values of s1 = (1, b1)
            ranks = c[:, None] + counts[k, 1:c.size + 1, c1] - counts[k, :1, c1]
            self.prof[t] = ranks.transpose(0, 2, 1).tolist()

    def value(self, I: Interval) -> int:
        """rect[t2][b1] for I on one row, else rank [A | W] - rank W +
        rank B - rank [A | B].  Without a second sink W = 0, so rank [A | W]
        is rect[t2][b2]; without a second source b2 = b1."""
        _, (i, b1), t2, s2, t1 = classify_ss(I)
        if i == t2[0]:
            return self.rect[t2][b1]
        prof = self.prof[t2]
        p = prof[0][b1 - 1]
        w = prof[t1[1] - t2[1]][b1 - 1] if t1 else self.rect[t2]
        b2 = s2[1] if s2 else b1
        return w[b2] - w[0] + p[0] - p[b2]


def compressed_multiplicity_function(module: PersistenceModule) -> dict[Interval, int]:
    """Compressed multiplicity of every interval, in canonical order.

    Computes the grouped ranks once, from products with single arrows
    only, and evaluates the formula per interval on one thread.
    """
    g = module.grid
    if g.m > MAX_HEIGHT:
        raise ValueError(f"grid height {g.m} > {MAX_HEIGHT} is not supported")
    intervals = enumerate_intervals(g.m, g.n)
    value = _GroupedRanks(module).value
    return {I: value(I) for I in intervals}
