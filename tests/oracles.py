"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive: textbook algorithms written
apart from the package's, so agreement is meaningful.  The
Hom-dimension route shares no code path with the package: it reads the
arrows off the module, composes path maps with naive_mul, classifies
shapes from the vertex set and ranks with naive_rank; FFMatrix only
holds its matrices.  The poset helpers are interval operations only the
tests use; the covers and their joins are walked here one subset at a
time from tagged cover candidates, apart from the package's
cover_subset_joins, which applies cover moves to row spans.  mu_prime
alone reads the package's walk, so the tests can check it against
brute_force_mobius.  block_multiplicity reads shapes off the
vertex set too.  interval_module and direct_sum build the modules whose
decomposition a test knows in advance; dual and half_turn give the
module and intervals of the duality check, which needs no oracle.
LoopedSinkRanks reads each sink's rank profiles one member at a time,
the reference for the package's one cumulative sum per sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from gridpersist.compression import (
    ARROW,
    ONE_SOURCE_TWO_SINKS,
    POINT,
    TWO_SOURCES_ONE_SINK,
    TWO_SOURCES_TWO_SINKS,
    _GroupedRanks,
)
from gridpersist import mobius
from gridpersist.ffmat import FFMatrix, FieldSpec, ShapeError, block2x2, hstack, vstack
from gridpersist.grid import Grid, PersistenceModule
from gridpersist.intervals import Interval, Vertex, enumerate_intervals


def naive_rank(rows: list[list[int]], p: int) -> int:
    """Textbook Gaussian elimination rank over GF(p), no numpy."""
    return len(naive_rref(rows, p))


def naive_rref(rows: list[list[int]], p: int) -> list[list[int]]:
    """The nonzero rows of the reduced row echelon form over GF(p), top
    to bottom, by textbook Gaussian elimination on Python ints."""
    a = [[x % p for x in row] for row in rows]
    if not a or not a[0]:
        return []
    nrows, ncols = len(a), len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][col] % p != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][col] % p != 0:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == nrows:
            break
    return a[:rank]


def naive_mul(a: list[list[int]], b: list[list[int]], p: int, bcols: int = 0) -> list[list[int]]:
    """Schoolbook matrix product over GF(p).

    bcols must be supplied when b has no rows, since the column count is
    not recoverable from an empty list.
    """
    if not a:
        return []
    inner = len(a[0])
    if b:
        bcols = len(b[0])
    return [
        [sum(a[r][k] * b[k][c] for k in range(inner)) % p for c in range(bcols)]
        for r in range(len(a))
    ]


# --- interval poset helpers ------------------------------------------

def span(I: Interval, i: int) -> tuple[int, int]:
    """Column span (b_i, d_i) of row i; the row must belong to s..t."""
    if not I.s <= i <= I.t:
        raise KeyError(f"row {i} not in {I.s}..{I.t}")
    return I.rows[i - I.s]


def fits(I: Interval, m: int, n: int) -> bool:
    """Whether I lies inside the m x n grid."""
    return I.t <= m and all(d <= n for _, d in I.rows)


def vertex_count(I: Interval) -> int:
    return sum(d - b + 1 for b, d in I.rows)


def contains_vertex(I: Interval, v: Vertex) -> bool:
    i, j = v
    if not I.s <= i <= I.t:
        return False
    b, d = span(I, i)
    return b <= j <= d


def is_rectangle(I: Interval) -> bool:
    return len(set(I.rows)) == 1


def from_vertices(vs: Iterable[Vertex]) -> Interval:
    """Build the interval with exactly this vertex set.

    Raises ValueError if the set is not a staircase (a gap inside a
    row, a missing row, or a staircase violation).
    """
    vs = set(vs)
    if not vs:
        raise ValueError("empty vertex set")
    by_row: dict[int, list[int]] = {}
    for i, j in vs:
        by_row.setdefault(i, []).append(j)
    s, t = min(by_row), max(by_row)
    spans = []
    for i in range(s, t + 1):
        if i not in by_row:
            raise ValueError(f"row {i} missing from vertex set")
        cols = sorted(by_row[i])
        if cols[-1] - cols[0] + 1 != len(cols):
            raise ValueError(f"row {i} is not contiguous")
        spans.append((cols[0], cols[-1]))
    return Interval(s, t, tuple(spans))


def rectangle_from(src: Vertex, dst: Vertex) -> Interval:
    """The rectangle with lower-left source src and upper-right sink dst."""
    (i1, j1), (i2, j2) = src, dst
    if i1 > i2 or j1 > j2:
        raise ValueError(f"{src} is not componentwise below {dst}")
    return Interval(i1, i2, tuple((j1, j2) for _ in range(i1, i2 + 1)))


def leq(I: Interval, J: Interval) -> bool:
    """Inclusion order: every vertex of I lies in J."""
    if I.s < J.s or I.t > J.t:
        return False
    for i in range(I.s, I.t + 1):
        b, d = span(I, i)
        bj, dj = span(J, i)
        if b < bj or d > dj:
            return False
    return True


def cover_candidates(I: Interval, m: int, n: int) -> list[tuple[str, Interval]]:
    """Tagged candidate covers; invalid or out-of-bounds ones are dropped.

    Tags: 'left:<row>' and 'right:<row>' extend one row by one column
    ('left' at row t and 'right' at row s are the special top-left and
    bottom-right extensions), 'above' adds the vertex (t+1, b_t), and
    'below' adds the vertex (s-1, d_s).
    """
    cands: list[tuple[str, Interval]] = []
    for k, (b, d) in enumerate(I.rows):
        for tag, grows, wider in (("left", b > 1, (b - 1, d)), ("right", d < n, (b, d + 1))):
            if grows:
                rows = I.rows[:k] + (wider,) + I.rows[k + 1:]
                try:
                    cands.append((f"{tag}:{I.s + k}", I._replace(rows=rows)))
                except ValueError:
                    pass  # the widened row breaks the staircase condition
    if I.t < m:
        b_t = span(I, I.t)[0]
        cands.append(("above", Interval(I.s, I.t + 1, I.rows + ((b_t, b_t),))))
    if I.s > 1:
        d_s = span(I, I.s)[1]
        cands.append(("below", Interval(I.s - 1, I.t, ((d_s, d_s),) + I.rows)))
    return cands


def join_cover_subset(I: Interval, tagged: Sequence[tuple[str, Interval]]) -> Interval:
    """Join of a nonempty set of covers of I, as tagged candidates.

    The join is the union of the members, completed by the top-left
    corner vertex when both the top-row left extension and the new-row-
    above cover are present, and dually by the bottom-right corner
    vertex.  No other completion is ever needed.
    """
    tags = {tag for tag, _ in tagged}
    members = [J for _, J in tagged]
    s = min(J.s for J in members)
    t = max(J.t for J in members)
    spans: list[tuple[int, int]] = []
    for i in range(s, t + 1):
        here = [span(J, i) for J in members if J.s <= i <= J.t]
        spans.append((min(b for b, _ in here), max(d for _, d in here)))
    if "above" in tags and f"left:{I.t}" in tags:
        b, d = spans[I.t + 1 - s]
        spans[I.t + 1 - s] = (span(I, I.t)[0] - 1, d)
    if "below" in tags and f"right:{I.s}" in tags:
        b, d = spans[I.s - 1 - s]
        spans[I.s - 1 - s] = (b, span(I, I.s)[1] + 1)
    return Interval(s, t, tuple(spans))


def cover_subset_joins(I: Interval, m: int, n: int) -> Iterator[tuple[int, Interval]]:
    """Yield (|S|, join(S)) over all nonempty subsets S of Cov(I), one
    subset at a time; the reference for the package's cover_subset_joins."""
    tagged = cover_candidates(I, m, n)
    for size in range(1, len(tagged) + 1):
        for subset in combinations(tagged, size):
            yield size, join_cover_subset(I, subset)


def covers(I: Interval, m: int, n: int) -> tuple[Interval, ...]:
    """The covers of I in the m x n interval poset, canonical order.

    Every cover has exactly one more vertex than I; it arises by
    extending a single row one step left or right or by starting a new
    row above the upper-left or below the lower-right corner.
    """
    if not fits(I, m, n):
        raise ValueError(f"{I.to_string()} does not fit in a {m} x {n} grid")
    return tuple(sorted(J for _, J in cover_candidates(I, m, n)))


def join_covers(I: Interval, S: Iterable[Interval], m: int, n: int) -> Interval:
    """The join of a nonempty subset S of Cov(I) above I.

    Equals the convex closure of the union of the members of S; raises
    ValueError when S is empty or contains a non-cover of I.
    """
    wanted = list(S)
    if not wanted:
        raise ValueError("join of an empty cover set")
    tagged = cover_candidates(I, m, n)
    by_interval = {J: tag for tag, J in tagged}
    chosen = []
    for J in wanted:
        if J not in by_interval:
            raise ValueError(f"{J.to_string()} is not a cover of {I.to_string()}")
        chosen.append((by_interval[J], J))
    return join_cover_subset(I, chosen)


def subset_interval_count(m: int, n: int) -> int:
    """Number of intervals by checking every nonempty vertex subset."""
    verts = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    count = 0
    for r in range(1, len(verts) + 1):
        for sub in combinations(verts, r):
            try:
                from_vertices(sub)
                count += 1
            except ValueError:
                pass
    return count


def brute_covers(I: Interval, intervals: tuple[Interval, ...]) -> list[Interval]:
    """Covers of I straight from the order relation."""
    above = [J for J in intervals if J != I and leq(I, J)]
    return sorted(
        J for J in above
        if not any(K != J and K != I and leq(I, K) and leq(K, J) for K in above)
    )


def zeta_act(g: dict[Interval, int], m: int, n: int) -> dict[Interval, int]:
    """The zeta action f(I) = sum over J >= I of g(J)."""
    intervals = enumerate_intervals(m, n)
    return {I: sum(g[J] for J in intervals if leq(I, J)) for I in intervals}


def cover_sum_inversion(f: dict[Interval, int], m: int, n: int) -> dict[Interval, int]:
    """Moebius inversion one interval at a time, by its definition.

    g(I) = f(I) + sum over nonempty cover subsets S of (-1)^|S| f(join S),
    with every join built as an Interval by cover_subset_joins.
    """
    out = {}
    for I in enumerate_intervals(m, n):
        acc = f[I]
        for size, join in cover_subset_joins(I, m, n):
            acc += -f[join] if size % 2 else f[join]
        out[I] = acc
    return out


def mu_prime(I: Interval, J: Interval, m: int, n: int) -> int:
    """Moebius function of the segment [I, J], summed over the package's
    gridpersist.mobius.cover_subset_joins.

    Equals 1 when I = J, otherwise the sum of (-1)^|S| over nonempty
    subsets S of Cov(I) whose join above I is J; 0 when no such subset
    exists (in particular whenever I is not below J).
    """
    return int(I == J) + sum(sign for sign, join in mobius.cover_subset_joins(I, m, n) if join == J)


def brute_force_mobius(m: int, n: int) -> dict[tuple[Interval, Interval], int]:
    """Moebius function on all segments by the defining recursion.

    mu([I, I]) = 1 and mu([I, J]) = - sum over I <= K < J of mu([I, K]).
    Exponential-free but cubic in the poset size; guarded to posets of
    at most 5000 intervals.
    """
    intervals = enumerate_intervals(m, n)
    N = len(intervals)
    if N > 5000:
        raise ValueError(f"poset too large for the brute-force recursion: {N} intervals")
    below = [[leq(intervals[a], intervals[b]) for b in range(N)] for a in range(N)]
    by_rank = sorted(range(N), key=lambda k: vertex_count(intervals[k]))
    out: dict[tuple[Interval, Interval], int] = {}
    for a in range(N):
        vals: dict[int, int] = {}
        for b in by_rank:
            if not below[a][b]:
                continue
            if a == b:
                vals[b] = 1
                continue
            vals[b] = -sum(v for k, v in vals.items() if below[k][b] and k != b)
        for b, v in vals.items():
            out[(intervals[a], intervals[b])] = v
    return out


def block_multiplicity(table, I: Interval) -> int:
    """Compressed multiplicity from the block closed forms of each shape.

    One interval at a time, with no kernel, no shared elimination and no
    pivot prefix: with A = M(s2->t2), B = M(s1->t2), C = M(s1->t1),

    * rectangle:               rank M(src->dst)
    * two sources, one sink:   rank A + rank B - rank [A | B]
    * one source, two sinks:   rank B + rank C - rank [B ; C]
    * two sources, two sinks:  rank [[A, B], [0, C]] + rank B
                               - rank [B ; C] - rank [A | B]

    Ranks are taken by naive_rank.
    """
    kind, verts = ss_roles(I)

    def rank(m: FFMatrix) -> int:
        return naive_rank(m.tolist(), m.p)

    if kind in (POINT, ARROW):
        return rank(table[(verts[0], verts[-1])])
    if kind == TWO_SOURCES_ONE_SINK:
        s1, s2, t2 = verts
        a, b = table[(s2, t2)], table[(s1, t2)]
        return rank(a) + rank(b) - rank(hstack(a, b))
    if kind == ONE_SOURCE_TWO_SINKS:
        s1, t1, t2 = verts
        b, c = table[(s1, t2)], table[(s1, t1)]
        return rank(b) + rank(c) - rank(vstack(b, c))
    s1, s2, t1, t2 = verts
    a, b, c = table[(s2, t2)], table[(s1, t2)], table[(s1, t1)]
    return rank(block2x2(a, b, None, c)) + rank(b) - rank(vstack(b, c)) - rank(hstack(a, b))


class LoopedSinkRanks(_GroupedRanks):
    """compression._GroupedRanks with each sink's prof read one member at
    a time: every member's rank profile from its own pivot rows, the
    per-member loop that the package's single cumsum per sink replaced."""

    def _sink_ranks(self, module: PersistenceModule, j: int, pivots: Iterator[np.ndarray]):
        g, dims = module.grid, module.dims
        s, t = (1, j), (2, j)
        heights = [0] + [dims[(1, d1)] for d1 in range(j + 1, g.n + 1)]
        c = np.array(self.rect[t])
        c1 = self.rect[s][1:]
        self.prof[t] = []
        # zip draws from heights first, so it takes only this sink's pivots
        for h, piv in zip(heights, pivots):
            counts = member_profile(piv, np.concatenate(([h], h + dims[t] - c)))
            self.prof[t].append((c[:, None] + counts[1:, c1] - counts[0, c1]).T.tolist())


def member_profile(piv: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """counts[k, m] = rank Y[:rows[k], :m] for m = 0..cols, from the pivot
    rows piv (-1 for none) of one member Y of an eliminated stack."""
    counts = np.zeros((len(rows), len(piv) + 1), dtype=np.int32)
    np.cumsum((piv >= 0) & (piv < rows[:, None]), axis=1, dtype=np.int32, out=counts[:, 1:])
    return counts


# --- modules with a known decomposition --------------------------------

def direct_sum(a: PersistenceModule, b: PersistenceModule) -> PersistenceModule:
    """Vertexwise direct sum; grids and fields must agree."""
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")
    dims = {v: a.dims[v] + b.dims[v] for v in a.grid.vertices()}
    hmaps = {v: block2x2(a.hmaps[v], None, None, b.hmaps[v]) for v in a.grid.harrows()}
    vmaps = {v: block2x2(a.vmaps[v], None, None, b.vmaps[v]) for v in a.grid.varrows()}
    return PersistenceModule(a.grid, a.field, dims, hmaps, vmaps)


def dual(module: PersistenceModule) -> PersistenceModule:
    """The dual module DM on the same grid, turned half a turn: DM at
    (m + 1 - i, n + 1 - j) is the dual of M at (i, j), and each arrow
    u -> v of M gives the transposed arrow rho v -> rho u of DM."""
    g = module.grid
    m, n = g.m, g.n

    def rho(v: Vertex) -> Vertex:
        return (m + 1 - v[0], n + 1 - v[1])

    dims = {rho(v): d for v, d in module.dims.items()}
    # the arrow u -> u + (0, 1) turns into rho u - (0, 1) -> rho u
    hmaps = {(m + 1 - i, n - j): FFMatrix(a.data.T, a.p) for (i, j), a in module.hmaps.items()}
    vmaps = {(m - i, n + 1 - j): FFMatrix(a.data.T, a.p) for (i, j), a in module.vmaps.items()}
    return PersistenceModule(g, module.field, dims, hmaps, vmaps)


def half_turn(I: Interval, m: int, n: int) -> Interval:
    """The interval rho(I) of the m x n grid, rho(i, j) = (m + 1 - i, n + 1 - j)."""
    rows = tuple((n + 1 - d, n + 1 - b) for b, d in reversed(I.rows))
    return Interval(m + 1 - I.t, m + 1 - I.s, rows)


def interval_module(grid: Grid, I: Interval, field: FieldSpec) -> PersistenceModule:
    """The interval module V_I: one-dimensional on I with identity arrows.

    Vertices outside I get the zero space and all arrows not interior to
    I the zero matrix of the forced shape.
    """
    if not fits(I, grid.m, grid.n):
        raise ValueError(f"{I.to_string()} does not fit in a {grid.m} x {grid.n} grid")
    vs = I.vertices()
    dims = {v: 1 if v in vs else 0 for v in grid.vertices()}
    one = FFMatrix.identity(1, field.p)
    hmaps = {v: one for v in grid.harrows() if v in vs and (v[0], v[1] + 1) in vs}
    vmaps = {v: one for v in grid.varrows() if v in vs and (v[0] + 1, v[1]) in vs}
    return PersistenceModule(grid, field, dims, hmaps, vmaps)


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


def path_map(module: PersistenceModule, src: Vertex, dst: Vertex) -> FFMatrix:
    """M(src -> dst) composed from the module's arrows with naive_mul:
    right along the row of src, then up the column of dst."""
    p, cols = module.field.p, module.dims[src]
    (i, j), (i2, j2) = src, dst
    mat = [[int(r == c) for c in range(cols)] for r in range(cols)]
    for b in range(j, j2):
        mat = naive_mul(module.hmaps[(i, b)].tolist(), mat, p, bcols=cols)
    for a in range(i, i2):
        mat = naive_mul(module.vmaps[(a, j2)].tolist(), mat, p, bcols=cols)
    return FFMatrix(np.array(mat, dtype=np.int64).reshape(module.dims[dst], cols), p)


def restrict(
    module: PersistenceModule,
    E: Sequence[Vertex],
    arrows: Sequence[tuple[Vertex, Vertex]],
) -> QuiverRep:
    """Restriction of a module to chosen vertices and path maps.

    E lists grid vertices; arrows lists comparable grid vertex pairs
    with both endpoints in E.  The arrow matrices are the composed path
    maps, so the result is the compression of the module along that
    subquiver.
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
        mats=tuple(path_map(module, src, dst) for src, dst in arrows),
        labels=tuple(E),
    )


def hom_dim(A: QuiverRep, B: QuiverRep) -> int:
    """dim Hom(A, B) for representations of the same quiver.

    A morphism is a family f_v : A(v) -> B(v) with
    f_dst A(alpha) = B(alpha) f_src for every arrow.  The constraints
    are assembled as one linear system via Kronecker products and the
    dimension is unknowns minus its naive_rank.
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
    return total - naive_rank(np.vstack(rows).tolist(), p)


# --- fixed small representations for the oracle route ------------------

_SS_ARROWS = {
    POINT: (),
    ARROW: ((0, 1),),
    TWO_SOURCES_ONE_SINK: ((0, 2), (1, 2)),  # vertices [s1, s2, t2]
    ONE_SOURCE_TWO_SINKS: ((0, 1), (0, 2)),  # vertices [s1, t1, t2]
    TWO_SOURCES_TWO_SINKS: ((1, 3), (0, 3), (0, 2)),  # vertices [s1, s2, t1, t2]
}

_SS_KINDS = {
    (1, 1): ARROW,
    (2, 1): TWO_SOURCES_ONE_SINK,
    (1, 2): ONE_SOURCE_TWO_SINKS,
    (2, 2): TWO_SOURCES_TWO_SINKS,
}


def ss_roles(I: Interval) -> tuple[str, tuple[Vertex, ...]]:
    """Shape of an interval of a height <= 2 grid and the grid vertices
    of its compression quiver, read off its vertex set.

    The vertices are the sources of I, bottom row first, then its
    sinks, bottom row first; a point lists its one vertex once.
    """
    sources, sinks = sources_and_sinks(I)
    if sources == sinks:
        return POINT, sources
    return _SS_KINDS[len(sources), len(sinks)], sources + sinks


def ss_restrict(module: PersistenceModule, I: Interval) -> QuiverRep:
    """Compression of the module along the source-sink quiver of I."""
    kind, verts = ss_roles(I)
    arrows = [(verts[a], verts[b]) for a, b in _SS_ARROWS[kind]]
    return restrict(module, verts, arrows)


def ss_interval_rep(I: Interval, p: int) -> QuiverRep:
    """The compressed interval module: one-dimensional with identities."""
    kind, verts = ss_roles(I)
    arrows = _SS_ARROWS[kind]
    one = FFMatrix.identity(1, p)
    return QuiverRep(p=p, dims=(1,) * len(verts), arrows=arrows, mats=(one,) * len(arrows))


def almost_split_fixtures(I: Interval, p: int) -> tuple[QuiverRep, QuiverRep]:
    """The middle and end terms (B, C) of the almost split sequence
    starting at the compressed interval module of a two-sources,
    two-sinks interval.

    On the quiver s2 -> t2 <- s1 -> t1, B has dimension vector
    (s1: 2, s2: 1, t1: 1, t2: 1) with arrow matrices [1] to t2 from s2,
    the projection [1 0] from s1 to t2 and [0 1] from s1 to t1; C is the
    simple at s1.  Multiplicity satisfies
    hom(I', M') - hom(B, M') + hom(C, M').
    """
    if ss_roles(I)[0] != TWO_SOURCES_TWO_SINKS:
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


def hom_multiplicity(module: PersistenceModule, I: Interval) -> int:
    """Compressed multiplicity through Hom-dimension computations only.

    Uses the socle-quotient identity for the injective shapes, the dual
    radical identity for the projective middle-source shape, and the
    three-term almost-split identity for the two-sources-two-sinks
    shape.  Shares no code path with the closed-form rank formulas.
    """
    kind = ss_roles(I)[0]
    p = module.field.p
    comp = ss_restrict(module, I)
    thin = ss_interval_rep(I, p)
    if kind == POINT:
        quot = QuiverRep(p, (0,), (), ())
        return hom_dim(thin, comp) - hom_dim(quot, comp)
    if kind == ARROW:
        quot = QuiverRep(p, (1, 0), thin.arrows, (FFMatrix.zeros(0, 1, p),))
        return hom_dim(thin, comp) - hom_dim(quot, comp)
    if kind == TWO_SOURCES_ONE_SINK:
        quot = QuiverRep(
            p, (1, 1, 0), thin.arrows,
            (FFMatrix.zeros(0, 1, p), FFMatrix.zeros(0, 1, p)),
        )
        return hom_dim(thin, comp) - hom_dim(quot, comp)
    if kind == ONE_SOURCE_TWO_SINKS:
        rad = QuiverRep(
            p, (0, 1, 1), thin.arrows,
            (FFMatrix.zeros(1, 0, p), FFMatrix.zeros(1, 0, p)),
        )
        return hom_dim(comp, thin) - hom_dim(comp, rad)
    assert kind == TWO_SOURCES_TWO_SINKS
    middle, end = almost_split_fixtures(I, p)
    return hom_dim(thin, comp) - hom_dim(middle, comp) + hom_dim(end, comp)


# --- interval poset tools: closures, intersections, meets, essential vertices

class NoJoinError(ValueError):
    """Raised when a vertex set has no unambiguous enclosing interval."""


def upper_set(I: Interval, m: int, n: int) -> tuple[Interval, ...]:
    """All J in the m x n interval poset with I <= J, canonical order."""
    return tuple(J for J in enumerate_intervals(m, n) if leq(I, J))


def convex_closure(vs: Iterable[Vertex]) -> Interval:
    """Smallest interval containing a connected vertex set.

    Repeatedly adds every vertex lying between two present ones until
    stable.  Raises NoJoinError when the input is not connected in the
    undirected grid graph, since the enclosing interval is then not
    unique in general.
    """
    cur = set(vs)
    if not cur:
        raise NoJoinError("empty vertex set")
    if not _is_connected(cur):
        raise NoJoinError("vertex set is disconnected; no unique enclosing interval")
    changed = True
    while changed:
        changed = False
        lo_i = min(i for i, _ in cur)
        hi_i = max(i for i, _ in cur)
        lo_j = min(j for _, j in cur)
        hi_j = max(j for _, j in cur)
        for i in range(lo_i, hi_i + 1):
            for j in range(lo_j, hi_j + 1):
                z = (i, j)
                if z in cur:
                    continue
                below = any(x <= i and y <= j for x, y in cur)
                above = any(x >= i and y >= j for x, y in cur)
                if below and above:
                    cur.add(z)
                    changed = True
    return from_vertices(cur)


def _is_connected(vs: set[Vertex]) -> bool:
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        i, j = stack.pop()
        for w in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def intersection_components(I: Interval, J: Interval) -> tuple[Interval, ...]:
    """Connected components of the vertex intersection of I and J.

    The intersection of two staircases is a disjoint union of
    staircases: per-row span intersections split exactly where
    consecutive nonempty rows fail to overlap.  Components are returned
    in canonical order.
    """
    lo = max(I.s, J.s)
    hi = min(I.t, J.t)
    runs: list[list[tuple[int, tuple[int, int]]]] = []
    current: list[tuple[int, tuple[int, int]]] = []
    for i in range(lo, hi + 1):
        b = max(span(I, i)[0], span(J, i)[0])
        d = min(span(I, i)[1], span(J, i)[1])
        if b > d:
            if current:
                runs.append(current)
                current = []
            continue
        if current:
            prev_b, prev_d = current[-1][1]
            if prev_b > d:
                runs.append(current)
                current = []
        current.append((i, (b, d)))
    if current:
        runs.append(current)
    out = [Interval(run[0][0], run[-1][0], tuple(row for _, row in run)) for run in runs]
    return tuple(sorted(out))


def meet_over(I: Interval, J1: Interval, J2: Interval) -> Interval:
    """Meet of J1 and J2 in the local lattice of intervals above I.

    Requires I <= J1 and I <= J2; the result is the unique connected
    component of the intersection that contains I.
    """
    if not (leq(I, J1) and leq(I, J2)):
        raise ValueError("meet_over needs I below both arguments")
    for comp in intersection_components(J1, J2):
        if leq(I, comp):
            return comp
    raise AssertionError("unreachable: I must lie in some component")


# --- essential vertices ------------------------------------------------

def sources_and_sinks(I: Interval) -> tuple[tuple[Vertex, ...], tuple[Vertex, ...]]:
    """Sources and sinks of I viewed as a subquiver of the grid, each sorted.

    A source has no in-arrow inside I, a sink no out-arrow.
    """
    vs = I.vertices()
    sources = tuple(sorted((i, j) for i, j in vs if (i, j - 1) not in vs and (i - 1, j) not in vs))
    sinks = tuple(sorted((i, j) for i, j in vs if (i, j + 1) not in vs and (i + 1, j) not in vs))
    return sources, sinks


def ss_essential(I: Interval) -> tuple[Vertex, ...]:
    """Sources and sinks of I, sorted; sources and sinks of a staircase
    are always distinct vertices of the form (i, b_i) and (i, d_i)."""
    sources, sinks = sources_and_sinks(I)
    return tuple(sorted(set(sources + sinks)))


def cc_essential(I: Interval) -> tuple[Vertex, ...]:
    """Vertices of I lying on both a source/sink row and column."""
    ess = ss_essential(I)
    rows = {i for i, _ in ess}
    cols = {j for _, j in ess}
    return tuple(sorted(v for v in I.vertices() if v[0] in rows and v[1] in cols))
