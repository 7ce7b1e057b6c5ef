"""Deterministic generators of persistence modules over 2 x n grids.

Randomness comes exclusively from a numpy Generator (PCG64 via
numpy.random.default_rng), so every module here is reproducible from a
64-bit seed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .ffmat import (
    GF2,
    FFMatrix,
    FieldSpec,
    mat_mul,
    pullback_basis,
    random_invertible,
    random_matrix,
)
from .grid import Grid, PersistenceModule, conjugate
from .intervals import Interval, enumerate_intervals


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide deterministic generator for a 64-bit seed."""
    return np.random.default_rng(seed)


def random_module(
    n: int, d: int, field: FieldSpec = GF2, rng: np.random.Generator | None = None
) -> PersistenceModule:
    """A random commutative 2 x n module with every space of dimension d.

    The top-row horizontal maps and the rightmost vertical map are drawn
    uniformly.  Each remaining square is filled right to left: with f
    the top map and g the right vertical of the square, a basis of the
    pullback {(a, b) : f a = g b} is computed, a uniform random map
    phi3 from the d-dimensional corner into the pullback is drawn, and
    the left vertical and bottom map are the pullback projections
    composed with phi3.  Commutativity holds by construction.
    """
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    rng = make_rng(0) if rng is None else rng
    grid = Grid(2, n)
    dims = {v: d for v in grid.vertices()}
    hmaps: dict = {}
    vmaps: dict = {}
    for j in range(1, n):
        hmaps[(2, j)] = random_matrix(d, d, field, rng)
    vmaps[(1, n)] = random_matrix(d, d, field, rng)
    for j in range(n - 1, 0, -1):
        f = hmaps[(2, j)]
        g = vmaps[(1, j + 1)]
        phi1, phi2 = pullback_basis(f, g)
        phi3 = random_matrix(phi1.cols, d, field, rng)
        vmaps[(1, j)] = mat_mul(phi1, phi3)
        hmaps[(1, j)] = mat_mul(phi2, phi3)
    return PersistenceModule(grid, field, dims, hmaps, vmaps)


def random_interval_decomposable(
    m: int,
    n: int,
    k: int,
    field: FieldSpec = GF2,
    rng: np.random.Generator | None = None,
    disguise: bool = True,
) -> tuple[PersistenceModule, dict[Interval, int]]:
    """A direct sum of k uniformly chosen interval modules.

    Returns the module together with its true multiplicity function
    (total on the interval list, zero off the chosen summands).  With
    disguise=True the sum is conjugated by random invertible bases at
    every vertex, hiding the block structure without changing the
    isomorphism class.
    """
    if k < 0:
        raise ValueError("summand count must be nonnegative")
    rng = make_rng(0) if rng is None else rng
    grid = Grid(m, n)
    intervals = enumerate_intervals(m, n)
    picks = [intervals[int(rng.integers(0, len(intervals)))] for _ in range(k)]
    # a vertex has one basis vector per pick holding it, in pick order,
    # and an arrow sends each pick's vector to the same pick's vector
    held = [I.vertices() for I in picks]
    at = {v: np.array([x for x, vs in enumerate(held) if v in vs], dtype=np.int64) for v in grid.vertices()}
    hmaps = {v: FFMatrix(np.equal.outer(at[(v[0], v[1] + 1)], at[v]), field.p) for v in grid.harrows()}
    vmaps = {v: FFMatrix(np.equal.outer(at[(v[0] + 1, v[1])], at[v]), field.p) for v in grid.varrows()}
    module = PersistenceModule(grid, field, {v: len(at[v]) for v in at}, hmaps, vmaps)
    if disguise:
        bases = {v: random_invertible(module.dims[v], field, rng) for v in grid.vertices()}
        module = conjugate(module, bases)
    counts = Counter(picks)
    return module, {I: counts.get(I, 0) for I in intervals}


def staircase_family_module(l: int, field: FieldSpec = GF2) -> PersistenceModule:
    """A 2 x 5 indecomposable module of total dimension 12 l.

    Top-row dimensions (l, 2l, 2l, l, 0) and bottom-row dimensions
    (0, l, 2l, 2l, l), with E the l x l identity and J the l x l Jordan
    block with eigenvalue one:

        top:      [E;0]   id      [E 0]   0
        bottom:   0       [E;0]   id      [E 0]
        vertical: 0  [E;E]  [[E,E],[E,J]]  [E E]  0

    The module is not interval-decomposable and the l1-norm of its
    approximation grows at least linearly in l, which makes the family a
    stress test for the signed approximation.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    p = field.p
    E = np.eye(l, dtype=np.int64)
    J = np.eye(l, dtype=np.int64) + np.eye(l, k=1, dtype=np.int64)
    Z = np.zeros((l, l), dtype=np.int64)
    grid = Grid(2, 5)
    dims = {
        (2, 1): l, (2, 2): 2 * l, (2, 3): 2 * l, (2, 4): l, (2, 5): 0,
        (1, 1): 0, (1, 2): l, (1, 3): 2 * l, (1, 4): 2 * l, (1, 5): l,
    }
    tall = FFMatrix(np.vstack([E, Z]), p)        # [E; 0]
    wide = FFMatrix(np.hstack([E, Z]), p)        # [E 0]
    hmaps = {
        (2, 1): tall,
        (2, 2): FFMatrix.identity(2 * l, p),
        (2, 3): wide,
        (1, 2): tall,
        (1, 3): FFMatrix.identity(2 * l, p),
        (1, 4): wide,
    }
    vmaps = {
        (1, 2): FFMatrix(np.vstack([E, E]), p),
        (1, 3): FFMatrix(np.block([[E, E], [E, J]]), p),
        (1, 4): FFMatrix(np.hstack([E, E]), p),
    }
    return PersistenceModule(grid, field, dims, hmaps, vmaps)


def example_module(field: FieldSpec = GF2) -> PersistenceModule:
    """The small 2 x 3 worked example used across the test suite.

    Dimension vector (1 2 1 / 0 1 1), with top row
    K -[1;1]-> K^2 -[0 1]-> K, bottom row 0 -> K -id-> K and verticals
    [0;1] and id.  Its approximation has exactly one negative
    coefficient.
    """
    p = field.p
    grid = Grid(2, 3)
    dims = {(2, 1): 1, (2, 2): 2, (2, 3): 1, (1, 1): 0, (1, 2): 1, (1, 3): 1}
    hmaps = {
        (2, 1): FFMatrix([[1], [1]], p),
        (2, 2): FFMatrix([[0, 1]], p),
        (1, 2): FFMatrix([[1]], p),
    }
    vmaps = {
        (1, 2): FFMatrix([[0], [1]], p),
        (1, 3): FFMatrix([[1]], p),
    }
    return PersistenceModule(grid, field, dims, hmaps, vmaps)
