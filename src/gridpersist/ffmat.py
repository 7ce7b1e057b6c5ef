"""Dense exact linear algebra over prime fields GF(p).

Matrices are immutable wrappers around numpy integer arrays with entries
reduced to [0, p).  Zero-row and zero-column matrices are first-class: a
k x 0 or 0 x k matrix is the unique linear map from or to the zero space
and participates in products, stacking and rank like any other matrix.

One echelon core per field family serves pivot columns, rank, kernel
and inverse.  For p = 2 rows are packed into 64-bit words and eliminated
with XOR; for general p a vectorised elimination with modular pivot
inverses is used.  Pivot columns and rank stop at a row echelon form;
kernel and inverse ask the same core for the reduced form.  Both cores
are exact and scan columns left to right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when matrix dimensions or moduli do not fit an operation."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p) with 2 <= p < 2**16."""

    p: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not 2 <= self.p < 2**16:
            raise ValueError(f"field modulus must be an integer in [2, 2**16): {self.p!r}")
        if not _is_prime(self.p):
            raise ValueError(f"field modulus must be prime: {self.p}")


GF2 = FieldSpec(2)


class FFMatrix:
    """An immutable rows x cols matrix over GF(p)."""

    __slots__ = ("p", "data")

    def __init__(self, data, p: int):
        if not _is_prime(p) or not 2 <= p < 2**16:
            raise ValueError(f"invalid modulus {p!r}")
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeError(f"matrix data must be two-dimensional, got shape {arr.shape}")
        arr = np.mod(arr, p)
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FFMatrix is immutable")

    @classmethod
    def _wrap(cls, arr: np.ndarray, p: int) -> "FFMatrix":
        """Internal: wrap an int64 array already reduced mod p, no copy."""
        arr.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "data", arr)
        return obj

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FFMatrix":
        return cls._wrap(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "FFMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def T(self) -> "FFMatrix":
        return FFMatrix(self.data.T, self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FFMatrix):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __matmul__(self, other: "FFMatrix") -> "FFMatrix":
        return mat_mul(self, other)

    def __repr__(self) -> str:
        return f"FFMatrix(p={self.p}, shape={self.shape})"

    def tolist(self) -> list[list[int]]:
        return self.data.tolist()


def _check_same_p(*mats: FFMatrix) -> int:
    p = mats[0].p
    for m in mats[1:]:
        if m.p != p:
            raise ShapeError(f"modulus mismatch: {m.p} != {p}")
    return p


def mat_mul(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    """Exact product a @ b over GF(p).

    The composition through a zero-dimensional space is the zero map of
    the appropriate shape, which numpy's empty matmul already yields.
    """
    p = _check_same_p(a, b)
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    inner = a.cols
    # Partial sums of nonnegative int products stay below 2**53, so the
    # BLAS float path is exact here and much faster than int64 matmul.
    if inner and (p - 1) * (p - 1) * inner < 2**53:
        prod = np.rint(a.data.astype(np.float64) @ b.data.astype(np.float64)).astype(np.int64)
    else:
        prod = a.data @ b.data
    return FFMatrix._wrap(prod % p, p)


def _echelon_gf2(arr: np.ndarray, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over GF(2) and its pivot columns.

    Rows are packed into little-endian 64-bit words and eliminated with
    XOR; the result is unpacked once at the end.  With reduced=True the
    rows above each pivot are cleared too, giving the reduced form.
    """
    rows, cols = arr.shape
    words = (cols + 63) // 64
    padded = np.zeros((rows, words * 64), dtype=np.uint8)
    padded[:, :cols] = arr
    a = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        w = c >> 6
        mask = np.uint64(1 << (c & 63))
        nz = np.nonzero(a[r:, w] & mask)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            # the swapped-out row r had a zero bit here, so the rows below
            # left to eliminate are still exactly nz[1:]
            a[[r, piv]] = a[[piv, r]]
        hit = r + nz[1:]
        if reduced:
            hit = np.concatenate((np.nonzero(a[:r, w] & mask)[0], hit))
        if hit.size:
            a[hit] ^= a[r]
        pivots.append(c)
        r += 1
    bits = np.unpackbits(a.view(np.uint8), axis=1, count=cols, bitorder="little")
    return bits.astype(np.int64), pivots


def _echelon_gfp(arr: np.ndarray, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over GF(p) with unit pivots, and its pivot columns.

    Vectorised elimination with modular pivot inverses.  With
    reduced=True the rows above each pivot are cleared too, giving the
    reduced form.
    """
    a = arr.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # row r is zero left of c, so only columns c: change
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), -1, p)) % p
        hit = r + nz[1:]
        if reduced:
            hit = np.concatenate((np.nonzero(a[:r, c])[0], hit))
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _echelon(arr: np.ndarray, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Echelon form of an array reduced mod p, by the core of its field."""
    if p == 2:
        return _echelon_gf2(arr, reduced)
    return _echelon_gfp(arr, p, reduced)


def pivot_columns(a: FFMatrix) -> list[int]:
    """Ascending pivot columns of a row echelon form of a.

    Both cores scan columns left to right, so column c is a pivot
    exactly when it is not in the span of the columns before it: the
    pivots below c number rank a[:, :c], for every c.
    """
    if a.rows == 0 or a.cols == 0:
        return []
    return _echelon(a.data, a.p, reduced=False)[1]


def mat_rank(a: FFMatrix) -> int:
    """Rank of a over GF(p); a 0 x k or k x 0 matrix has rank 0."""
    return len(pivot_columns(a))


def kernel_basis(a: FFMatrix) -> FFMatrix:
    """A cols x k matrix whose columns form a basis of ker(a).

    Columns are ordered by the free column index they correspond to, so
    the result is deterministic.  a @ kernel_basis(a) is always zero and
    k = cols - rank(a).
    """
    rref, pivots = _echelon(a.data, a.p, reduced=True)
    free = np.setdiff1d(np.arange(a.cols), pivots)
    basis = np.zeros((a.cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = (-rref[: len(pivots), free]) % a.p
    return FFMatrix._wrap(basis, a.p)


def mat_inv(a: FFMatrix) -> FFMatrix:
    """Inverse of a square invertible matrix; raises ShapeError otherwise."""
    if a.rows != a.cols:
        raise ShapeError(f"cannot invert non-square matrix {a.shape}")
    n, p = a.rows, a.p
    aug = np.hstack([a.data, np.eye(n, dtype=np.int64)])
    rref, pivots = _echelon(aug, p, reduced=True)
    if pivots[:n] != list(range(n)):
        raise ShapeError("matrix is singular")
    return FFMatrix(rref[:, n:], p)


def hstack(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    """[a | b]; row counts must agree."""
    p = _check_same_p(a, b)
    if a.rows != b.rows:
        raise ShapeError(f"hstack row mismatch: {a.shape} vs {b.shape}")
    return FFMatrix._wrap(np.hstack([a.data, b.data]), p)


def vstack(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    """[a ; b]; column counts must agree."""
    p = _check_same_p(a, b)
    if a.cols != b.cols:
        raise ShapeError(f"vstack column mismatch: {a.shape} vs {b.shape}")
    return FFMatrix._wrap(np.vstack([a.data, b.data]), p)


def block2x2(a, b, c, d) -> FFMatrix:
    """Assemble [[a, b], [c, d]] with None meaning an auto-sized zero block.

    Each None block takes its row count from its horizontal neighbour and
    its column count from its vertical neighbour; if a dimension cannot be
    inferred from any given block a ShapeError is raised.
    """
    given = [m for m in (a, b, c, d) if m is not None]
    if not given:
        raise ShapeError("block2x2 needs at least one concrete block")
    p = _check_same_p(*given)

    def dim(primary, secondary, axis):
        if primary is not None:
            return primary.shape[axis]
        if secondary is not None:
            return secondary.shape[axis]
        raise ShapeError("block2x2 cannot infer a block dimension")

    top = dim(a, b, 0)
    bottom = dim(c, d, 0)
    left = dim(a, c, 1)
    right = dim(b, d, 1)
    expected = [(a, top, left), (b, top, right), (c, bottom, left), (d, bottom, right)]
    for m, r, cc in expected:
        if m is not None and m.shape != (r, cc):
            raise ShapeError(f"block of shape {m.shape} does not fit slot {(r, cc)}")
    body = np.zeros((top + bottom, left + right), dtype=np.int64)
    if a is not None:
        body[:top, :left] = a.data
    if b is not None:
        body[:top, left:] = b.data
    if c is not None:
        body[top:, :left] = c.data
    if d is not None:
        body[top:, left:] = d.data
    return FFMatrix._wrap(body, p)


def pullback_basis(f: FFMatrix, g: FFMatrix) -> tuple[FFMatrix, FFMatrix]:
    """Projections (phi1, phi2) of a basis of the pullback of f and g.

    f and g must share a codomain.  The pullback is the subspace
    {(a, b) : f a = g b} of dom(f) x dom(g); its dimension is
    dom(f) + dom(g) - rank([f | g]).  The returned matrices satisfy
    f @ phi1 == g @ phi2 and [phi1 ; phi2] has full column rank.
    """
    p = _check_same_p(f, g)
    if f.rows != g.rows:
        raise ShapeError(f"pullback needs a common codomain: {f.shape} vs {g.shape}")
    neg_g = FFMatrix((-g.data) % p, p)
    ker = kernel_basis(hstack(f, neg_g))
    phi1 = FFMatrix(ker.data[: f.cols, :], p)
    phi2 = FFMatrix(ker.data[f.cols:, :], p)
    return phi1, phi2


def random_matrix(rows: int, cols: int, field: FieldSpec, rng: np.random.Generator) -> FFMatrix:
    """Uniform random rows x cols matrix over GF(p)."""
    return FFMatrix(rng.integers(0, field.p, size=(rows, cols), dtype=np.int64), field.p)


def random_invertible(d: int, field: FieldSpec, rng: np.random.Generator) -> FFMatrix:
    """A random invertible d x d matrix, built as P @ L @ U.

    L is unit lower triangular with random strictly lower entries, U is
    upper triangular with random nonzero diagonal, P is a random
    permutation, so the product is always invertible.  For d = 1, p = 2
    this is the unique invertible matrix [[1]].
    """
    p = field.p
    if d == 0:
        return FFMatrix.zeros(0, 0, p)
    lower = np.tril(rng.integers(0, p, size=(d, d), dtype=np.int64), -1) + np.eye(d, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(d, d), dtype=np.int64), 1)
    upper += np.diag(rng.integers(1, p, size=d, dtype=np.int64))
    perm = np.eye(d, dtype=np.int64)[rng.permutation(d)]
    return mat_mul(FFMatrix(perm, p), mat_mul(FFMatrix(lower, p), FFMatrix(upper, p)))
