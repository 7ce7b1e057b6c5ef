"""Signed interval-decomposable approximation of a persistence module.

Moebius inversion of the compressed multiplicity function assigns an
integer coefficient to every interval; the formal sum of interval
modules with these coefficients is the interval-decomposable
approximation of the module.  For interval-decomposable input it
recovers the exact decomposition; in general it preserves the whole
rank invariant (and with it the dimension vector), at the cost of
possibly negative coefficients.

An interval module has rank one along src <= dst exactly when the
interval holds src and dst, so the signed ranks of a sum at every pair
are one weighted Gram product of the intervals' vertex-membership
matrix (signed_rank_invariant); rank_of_sum is the per-pair definition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .compression import compressed_multiplicity_function
from .grid import Grid, PersistenceModule
from .intervals import Interval, Vertex, interval_contains_rectangle
from .mobius import mobius_invert


@dataclass(frozen=True)
class SignedIntervalSum:
    """A formal integer combination of intervals of the m x n grid.

    coeffs holds only nonzero coefficients, keyed by interval in
    canonical order.
    """

    m: int
    n: int
    coeffs: dict[Interval, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(v == 0 for v in self.coeffs.values()):
            raise ValueError("zero coefficients must be dropped")


def interval_approximation(module: PersistenceModule) -> SignedIntervalSum:
    """The signed interval-decomposable approximation of a module.

    Computes the compressed multiplicity of every interval and applies
    Moebius inversion; zero coefficients are dropped.
    """
    g = module.grid
    delta = compressed_multiplicity_function(module)
    tilde = mobius_invert(delta, g.m, g.n)
    return SignedIntervalSum(g.m, g.n, {I: c for I, c in tilde.items() if c != 0})


def positive_part(s: SignedIntervalSum) -> Counter:
    """Multiset of intervals with positive coefficient (with counts)."""
    return Counter({I: c for I, c in s.coeffs.items() if c > 0})


def negative_part(s: SignedIntervalSum) -> Counter:
    """Multiset of intervals with negative coefficient, counted by |c|."""
    return Counter({I: -c for I, c in s.coeffs.items() if c < 0})


def dimvec_of_sum(s: SignedIntervalSum) -> dict[Vertex, int]:
    """Vertexwise signed dimension count of the formal sum."""
    out = {(i, j): 0 for i in range(1, s.m + 1) for j in range(1, s.n + 1)}
    for I, c in s.coeffs.items():
        for v in I.vertices():
            out[v] += c
    return out


def rank_of_sum(s: SignedIntervalSum, src: Vertex, dst: Vertex) -> int:
    """Signed rank of the formal sum along src <= dst.

    An interval module has rank one along the pair exactly when the
    interval contains the full rectangle spanned by it, so the signed
    rank is the coefficient sum over such intervals.
    """
    return sum(c for I, c in s.coeffs.items() if interval_contains_rectangle(I, src, dst))


def signed_rank_invariant(s: SignedIntervalSum) -> dict[tuple[Vertex, Vertex], int]:
    """rank_of_sum(s, src, dst) for every comparable pair src <= dst,
    keyed in Grid(s.m, s.n).comparable_pairs() order, as rank_invariant.

    An interval is convex: with src and dst it holds every u with
    src <= u <= dst, so it contains the rectangle spanned by them exactly
    when it holds both ends.  The signed rank at (src, dst) is therefore
    sum_I c_I [src in I] [dst in I], entry (src, dst) of G = (X^T c) X,
    X the 0/1 matrix with a row per interval and a column per vertex.
    G is int64 while no sum can reach 2^62, else exact Python ints.
    """
    m, n = s.m, s.n
    coeffs = list(s.coeffs.values())
    dtype = np.int64 if len(coeffs) * max(map(abs, coeffs), default=0) < 2**62 else object
    # vertex (i, j) is column (i - 1) n + j - 1
    x = np.zeros((len(coeffs), m * n), dtype=dtype)
    for k, I in enumerate(s.coeffs):
        for i, (b, d) in enumerate(I.rows, I.s):
            x[k, (i - 1) * n + b - 1:(i - 1) * n + d] = 1
    gram = (x.T * np.array(coeffs, dtype=dtype)) @ x
    # the pairs run by src, then by dst in vertex order: the C order of the comparable cells
    row, col = np.divmod(np.arange(m * n), n)
    comparable = (row[:, None] <= row) & (col[:, None] <= col)
    return dict(zip(Grid(m, n).comparable_pairs(), gram[comparable].tolist()))


def l1_norm(f: Mapping[Interval, int]) -> int:
    """Sum of absolute coefficients of an interval function or sum."""
    return sum(abs(v) for v in f.values())
