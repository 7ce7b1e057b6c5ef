"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive: pure-Python textbook algorithms
with no shared code with the package, so agreement is meaningful.
"""

from __future__ import annotations

from gridpersist.compression import (
    ARROW,
    ONE_SOURCE_TWO_SINKS,
    POINT,
    TWO_SOURCES_ONE_SINK,
    TWO_SOURCES_TWO_SINKS,
    QuiverRep,
    almost_split_fixtures,
    classify_ss,
    hom_dim,
    ss_interval_rep,
    ss_restrict,
)
from gridpersist.ffmat import FFMatrix, block2x2, hstack, vstack
from gridpersist.intervals import Interval, leq


def naive_rank(rows: list[list[int]], p: int) -> int:
    """Textbook Gaussian elimination rank over GF(p), no numpy."""
    a = [[x % p for x in row] for row in rows]
    if not a or not a[0]:
        return 0
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
    return rank


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


def subset_interval_count(m: int, n: int) -> int:
    """Number of intervals by checking every nonempty vertex subset."""
    from itertools import combinations

    verts = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    count = 0
    for r in range(1, len(verts) + 1):
        for sub in combinations(verts, r):
            try:
                Interval.from_vertices(sub)
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
    shape = classify_ss(I)

    def rank(m: FFMatrix) -> int:
        return naive_rank(m.tolist(), m.p)

    if shape.kind in (POINT, ARROW):
        return rank(table[(shape.src, shape.dst)])
    b = table[(shape.s1, shape.t2)]
    if shape.kind == TWO_SOURCES_ONE_SINK:
        a = table[(shape.s2, shape.t2)]
        return rank(a) + rank(b) - rank(hstack(a, b))
    c = table[(shape.s1, shape.t1)]
    if shape.kind == ONE_SOURCE_TWO_SINKS:
        return rank(b) + rank(c) - rank(vstack(b, c))
    a = table[(shape.s2, shape.t2)]
    return rank(block2x2(a, b, None, c)) + rank(b) - rank(vstack(b, c)) - rank(hstack(a, b))


def hom_multiplicity(module, table, I: Interval) -> int:
    """Compressed multiplicity through Hom-dimension computations only.

    Uses the socle-quotient identity for the injective shapes, the dual
    radical identity for the projective middle-source shape, and the
    three-term almost-split identity for the two-sources-two-sinks
    shape.  Shares no code path with the closed-form rank formulas.
    """
    shape = classify_ss(I)
    p = module.field.p
    comp = ss_restrict(module, table, I)
    thin = ss_interval_rep(shape, p)
    if shape.kind == POINT:
        quot = QuiverRep(p, (0,), (), ())
        return hom_dim(thin, comp) - hom_dim(quot, comp)
    if shape.kind == ARROW:
        quot = QuiverRep(p, (1, 0), thin.arrows, (FFMatrix.zeros(0, 1, p),))
        return hom_dim(thin, comp) - hom_dim(quot, comp)
    if shape.kind == TWO_SOURCES_ONE_SINK:
        quot = QuiverRep(
            p, (1, 1, 0), thin.arrows,
            (FFMatrix.zeros(0, 1, p), FFMatrix.zeros(0, 1, p)),
        )
        return hom_dim(thin, comp) - hom_dim(quot, comp)
    if shape.kind == ONE_SOURCE_TWO_SINKS:
        rad = QuiverRep(
            p, (0, 1, 1), thin.arrows,
            (FFMatrix.zeros(1, 0, p), FFMatrix.zeros(1, 0, p)),
        )
        return hom_dim(comp, thin) - hom_dim(comp, rad)
    assert shape.kind == TWO_SOURCES_TWO_SINKS
    middle, end = almost_split_fixtures(shape, p)
    return hom_dim(thin, comp) - hom_dim(middle, comp) + hom_dim(end, comp)
