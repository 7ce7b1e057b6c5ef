"""Persistence modules over the equioriented commutative m x n grid.

A module assigns a finite-dimensional GF(p) space to every vertex
(i, j), a matrix to every horizontal arrow (i, j) -> (i, j+1) and every
vertical arrow (i, j) -> (i+1, j), subject to commutativity of every
elementary square.  Matrices act on column vectors from the left, so
the matrix of an arrow u -> v has shape dim(v) x dim(u); zero
dimensions are allowed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .ffmat import FFMatrix, FieldSpec, ShapeError, mat_inv, mat_mul, stack_pivots

# perfbench/tracer.py patches this name on this module; nothing here calls it
from .ffmat import mat_rank  # noqa: F401
from .intervals import Vertex


@dataclass(frozen=True)
class Grid:
    """The m x n grid with rows counted from the bottom."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid sizes must be positive: {self.m} x {self.n}")

    def vertices(self) -> Iterator[Vertex]:
        for i in range(1, self.m + 1):
            for j in range(1, self.n + 1):
                yield (i, j)

    def harrows(self) -> Iterator[Vertex]:
        """Feet (i, j) of horizontal arrows (i, j) -> (i, j+1)."""
        for i in range(1, self.m + 1):
            for j in range(1, self.n):
                yield (i, j)

    def varrows(self) -> Iterator[Vertex]:
        """Feet (i, j) of vertical arrows (i, j) -> (i+1, j)."""
        for i in range(1, self.m):
            for j in range(1, self.n + 1):
                yield (i, j)

    def comparable_pairs(self) -> Iterator[tuple[Vertex, Vertex]]:
        """All pairs src <= dst componentwise, src = dst included."""
        for i1, j1 in self.vertices():
            for i2 in range(i1, self.m + 1):
                for j2 in range(j1, self.n + 1):
                    yield ((i1, j1), (i2, j2))


class PersistenceModule:
    """A representation of the commutative grid over GF(p).

    dims must assign a nonnegative dimension to every vertex.  hmaps and
    vmaps give the arrow matrices; arrows absent from the mappings are
    filled in as zero matrices of the forced shape, which is the unique
    choice whenever either endpoint has dimension zero.  Shape and
    modulus consistency is enforced here; commutativity is checked
    separately by validate().
    """

    __slots__ = ("grid", "field", "dims", "hmaps", "vmaps")

    def __init__(
        self,
        grid: Grid,
        field: FieldSpec,
        dims: Mapping[Vertex, int],
        hmaps: Mapping[Vertex, FFMatrix] | None = None,
        vmaps: Mapping[Vertex, FFMatrix] | None = None,
    ):
        hmaps = dict(hmaps or {})
        vmaps = dict(vmaps or {})
        full_dims: dict[Vertex, int] = {}
        for v in grid.vertices():
            if v not in dims:
                raise ShapeError(f"missing dimension for vertex {v}")
            d = int(dims[v])
            if d < 0:
                raise ShapeError(f"negative dimension at {v}")
            full_dims[v] = d
        extra = set(dims) - set(full_dims)
        if extra:
            raise ShapeError(f"dimensions given for vertices outside the grid: {sorted(extra)}")

        def filled(given: dict, feet, step) -> dict[Vertex, FFMatrix]:
            out: dict[Vertex, FFMatrix] = {}
            feet = list(feet)
            for v in feet:
                w = step(v)
                shape = (full_dims[w], full_dims[v])
                if v in given:
                    mat = given.pop(v)
                    if not isinstance(mat, FFMatrix) or mat.p != field.p:
                        raise ShapeError(f"arrow at {v} is not an FFMatrix over GF({field.p})")
                    if mat.shape != shape:
                        raise ShapeError(f"arrow {v} -> {w} must have shape {shape}, got {mat.shape}")
                    out[v] = mat
                else:
                    out[v] = FFMatrix.zeros(*shape, field.p)
            if given:
                raise ShapeError(f"arrow matrices for non-arrows: {sorted(given)}")
            return out

        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", full_dims)
        object.__setattr__(self, "hmaps", filled(hmaps, grid.harrows(), lambda v: (v[0], v[1] + 1)))
        object.__setattr__(self, "vmaps", filled(vmaps, grid.varrows(), lambda v: (v[0] + 1, v[1])))

    def __setattr__(self, name, value):
        raise AttributeError("PersistenceModule is immutable")


def validate(module: PersistenceModule) -> tuple[int, int] | None:
    """Commutativity check: None when every square commutes.

    Otherwise returns the lower-left corner (i, j) of the first
    elementary square, scanned row-major, where going right then up
    differs from going up then right.
    """
    g = module.grid
    for i in range(1, g.m):
        for j in range(1, g.n):
            up_right = mat_mul(module.hmaps[(i + 1, j)], module.vmaps[(i, j)])
            right_up = mat_mul(module.vmaps[(i, j + 1)], module.hmaps[(i, j)])
            if up_right != right_up:
                return (i, j)
    return None


def path_map_table(module: PersistenceModule) -> dict[tuple[Vertex, Vertex], FFMatrix]:
    """Matrices of all path maps M(src -> dst) for comparable src <= dst,
    keyed in Grid.comparable_pairs() order.

    Identity entries for src = dst are included; every other entry is
    one matrix multiplication: the path's last arrow after the path to
    that arrow's foot, which the order lists first.  Commutativity makes
    the value path-independent.
    """
    table: dict[tuple[Vertex, Vertex], FFMatrix] = {}
    for src, (i2, j2) in module.grid.comparable_pairs():
        if src == (i2, j2):
            # the module's field is checked, so the eye needs no reduction
            table[(src, src)] = FFMatrix._wrap(np.eye(module.dims[src], dtype=np.int64), module.field.p)
            continue
        # the last arrow of the path, keyed by its foot
        arrows, foot = (module.hmaps, (i2, j2 - 1)) if j2 > src[1] else (module.vmaps, (i2 - 1, j2))
        table[(src, (i2, j2))] = mat_mul(arrows[foot], table[(src, foot)])
    return table


def rank_invariant(module: PersistenceModule) -> dict[tuple[Vertex, Vertex], int]:
    """rank M(src -> dst) for every comparable pair src <= dst.

    The path maps are eliminated together by stack_pivots; each rank is
    a difference of one cumulative pivot count at its path map's column
    ends, which is 0 where the map has no columns.
    """
    table = path_map_table(module)
    pivots = stack_pivots([a.data for a in table.values()], module.field.p)
    held = np.concatenate(([0], np.cumsum(np.concatenate(pivots) >= 0)))
    ends = np.cumsum([0] + [piv.size for piv in pivots])
    return dict(zip(table, np.diff(held[ends]).tolist()))


def dimension_vector(module: PersistenceModule) -> dict[Vertex, int]:
    return dict(module.dims)


def format_dimvec(dims: Mapping[Vertex, int], m: int, n: int) -> str:
    """Rows printed top to bottom, e.g. '(1 2 1 / 0 1 1)' for a 2 x 3 grid."""
    rows = []
    for i in range(m, 0, -1):
        rows.append(" ".join(str(dims[(i, j)]) for j in range(1, n + 1)))
    return "(" + " / ".join(rows) + ")"


def conjugate(module: PersistenceModule, bases: Mapping[Vertex, FFMatrix]) -> PersistenceModule:
    """Base change: each arrow matrix A(u -> v) becomes B_v A B_u^{-1}.

    bases must give an invertible dim(v) x dim(v) matrix for every
    vertex with positive dimension; zero-dimensional vertices may be
    omitted.  The result is isomorphic to the input.
    """
    g = module.grid
    full: dict[Vertex, FFMatrix] = {}
    inv: dict[Vertex, FFMatrix] = {}
    for v in g.vertices():
        d = module.dims[v]
        basis = bases.get(v, FFMatrix.identity(d, module.field.p))
        if basis.shape != (d, d):
            raise ShapeError(f"basis at {v} must be {d} x {d}, got {basis.shape}")
        try:
            inv[v] = mat_inv(basis)
        except ShapeError:
            raise ShapeError(f"basis at {v} is singular") from None
        full[v] = basis
    hmaps = {
        v: mat_mul(full[(v[0], v[1] + 1)], mat_mul(module.hmaps[v], inv[v]))
        for v in g.harrows()
    }
    vmaps = {
        v: mat_mul(full[(v[0] + 1, v[1])], mat_mul(module.vmaps[v], inv[v]))
        for v in g.varrows()
    }
    return PersistenceModule(g, module.field, dict(module.dims), hmaps, vmaps)

