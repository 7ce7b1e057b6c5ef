"""Dense exact linear algebra over prime fields GF(p).

Matrices are immutable wrappers around numpy integer arrays with entries
reduced to [0, p).  Zero-row and zero-column matrices are first-class: a
k x 0 or 0 x k matrix is the unique linear map from or to the zero space
and participates in products, stacking and rank like any other matrix.

One echelon core per field family serves pivot columns, rank, kernel
and inverse.  A core takes a Stack of matrices, zero-padded to one
shape, and brings every member to reduced row echelon form, or
eliminates it forward, up to the stack's column limit.  Rows are never
swapped; each member tracks its free rows, and the core returns the row
holding each column's pivot.

For other p than 2 entries are uint32 and the core walks the columns in
one left-to-right loop: each step is a handful of numpy calls on the
whole stack, so a stack of many small matrices costs about as many
calls as one.  Pivot rows are scaled by a table of inverses, and the
loop ends once every row of every member holds a pivot.

A GF(2) stack packs its rows into 64-bit words, and eliminate picks one
of two loops by the rows it holds in all, count x rows.  Up to
_INT_ROWS each row is read out as one Python int, bit c for column c,
and written back after the walk; a step is a few int operations on one
row, where numpy's call overhead, tens of microseconds a step, would
cost more.  Larger stacks are eliminated whole, with XOR, reading the
live bits of each word to find their pivot columns.  _INT_ROWS is
where the two cross on stacks of random square members: the int rows
win up to 256 rows in all and lose from about 320.  On the stacks of
a 2 x 12, d = 100 module the int rows take about 60 % of the numpy
loop's time for the image chain (2 members of 100 rows), but the numpy
loop takes an eighth of theirs for the 78 profile members of up to
200 x 100.

stack_pivots is the one batching policy, for mat_ranks and compression:
matrices with one column count share a stack of up to _BATCH members,
zero-padded only in rows, and on GF(2) packed in one call.  Padding in
columns too measured slower where most matrices have widths of their
own.  kernel_basis and mat_inv read a reduced form, so they eliminate a
stack of one, through _reduced.

Reduction updates every row with a nonzero in the column, forward
elimination only the free rows.  A pivot row is never chosen again, and
each update adds the new pivot row as it stood when chosen, so the free
rows see the same updates either way: both give the same pivots and
rank profile.  Only pivots are read from stack_pivots (mat_ranks,
rank_invariant, compression's profile members) and from compression's
image chain, so these eliminate forward; there the GF(p) core and the
GF(2) int rows neither update nor rescale a pivot row.  The GF(2) numpy
loop always reduces: its XOR update is one dense operation on every
row, and masking it to the free rows would add an array operation per
step.

Residues are taken in place as x - (x // p) p.  For x >= 0 this is
exactly x mod p, and (x // p) p <= x cannot overflow.  numpy divides by
a scalar through libdivide, a multiply and a shift per entry, but its %
issues a hardware division per entry: on the core's uint32 row updates
the floor division is about four times faster.

The pivot rows give the rank profile of every member Y (Dumas, Pernet
& Sultan, J. Symbolic Comput. 2017):

    rank Y[:r, :m] = #{c < m : 0 <= piv[c] < r}   for every r and m.

A core pivots on the topmost free row with a nonzero in the column and
changes rows only by adding multiples of the pivot row.  The free rows
above the pivot row are zero in its column and take nothing from it,
so the free rows among the first r take the pivots they would take in
Y[:r] alone; and there a column holds a pivot exactly when it is
outside the span of the columns before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
        FieldSpec(p)  # raises ValueError unless p is a prime in [2, 2**16)
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, FFMatrix):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and bool(np.array_equal(self.data, other.data))

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
    # BLAS float path, on C-contiguous operands, is exact and fast.
    if inner and (p - 1) * (p - 1) * inner < 2**53:
        x, y = (np.ascontiguousarray(m.data, dtype=np.float64) for m in (a, b))
        prod = np.rint(x @ y).astype(np.int64)
    else:
        prod = a.data @ b.data
    return FFMatrix._wrap(_reduce(prod, p), p)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for x >= 0, by floor division (see the module docstring)."""
    q = x.dtype.type(p)
    x -= x // q * q
    return x


# members per stack in stack_pivots; bounds the scratch of one elimination
_BATCH = 64

# rows in all, count x rows, up to which a GF(2) stack is eliminated on
# Python int rows; larger stacks take the word-parallel numpy loop
_INT_ROWS = 256


class Stack:
    """Matrices over GF(p) with entries in [0, p), zero-padded to the
    tallest and the widest of them and laid out for their field's echelon
    core: for p = 2 each row packed into little-endian 64-bit words, held
    word-major as (words, count, rows) uint64; for other p uint32 entries,
    (count, rows, cols).

    Zero rows and trailing zero columns never hold a pivot, so padding
    changes no member's pivot columns, rank or kernel.

    The core walks columns [0, limit) only, limit = cols by default, but
    its updates carry every column.  With forward set the GF(p) core and
    the int rows update only free rows, which leaves the pivots as they
    are but not a reduced form; the GF(2) numpy loop always reduces.
    """

    __slots__ = ("p", "cols", "data", "limit", "forward")

    def __init__(self, members: Sequence[np.ndarray], p: int,
                 limit: int | None = None, forward: bool = False):
        rows = max((a.shape[0] for a in members), default=0)
        self.p, self.cols = p, max((a.shape[1] for a in members), default=0)
        self.limit = self.cols if limit is None else limit
        self.forward = forward
        width = 64 * ((self.cols + 63) // 64) if p == 2 else self.cols
        block = np.zeros((len(members), rows, width), dtype=np.uint8 if p == 2 else np.uint32)
        for k, a in enumerate(members):
            block[k, :a.shape[0], :a.shape[1]] = a
        if p == 2:
            block = np.packbits(block, axis=2, bitorder="little").view(np.uint64)
            block = np.ascontiguousarray(block.transpose(2, 0, 1))
        self.data = block

    def eliminate(self) -> np.ndarray:
        """Bring every member to reduced row echelon form, or forward
        eliminate it, in place, up to the column limit.

        Returns a (count, cols) array: the row holding the pivot of each
        member's column, or -1 where the column has no pivot.
        """
        if self.p != 2:
            return _echelon_gfp(self.data, self.p, self.limit, self.forward)
        _, count, rows = self.data.shape
        if count * rows <= _INT_ROWS:
            return _echelon_ints(self.data, self.cols, self.limit, self.forward)
        return _echelon_gf2(self.data, self.cols, self.limit)

    def reduced(self) -> np.ndarray:
        """Every member after eliminate, as a (count, rows, cols) int64 array."""
        if self.p != 2:
            return self.data.astype(np.int64)
        rows = np.ascontiguousarray(self.data.transpose(1, 2, 0)).view(np.uint8)
        return np.unpackbits(rows, axis=2, count=self.cols, bitorder="little").astype(np.int64)


def _echelon_ints(a: np.ndarray, cols: int, limit: int, forward: bool) -> np.ndarray:
    """The GF(2) core on Python ints, for a (words, count, rows) stack of
    packed rows: it reads each row out as one int, bit c for column c,
    walks the columns below limit and writes the rows back.

    It is the column walk taken one row at a time, top down.  In the walk
    a free row takes, lowest column first, the pivot row of each column
    where it holds a one, and that pivot row is above it: the topmost
    free row with the one.  So each row in turn clears its lowest bit
    below limit with the pivot row held for that column, as it stood
    when chosen, until it has no such bit or no row holds that column;
    then it holds it.  Unless forward, each pivot row then clears its
    ones in the pivot columns after its own, highest first, with rows
    already reduced: the reduced form the walk leaves.
    """
    words, count, height = a.shape
    piv = np.full((count, cols), -1, dtype=np.int64)
    if not limit:  # nothing to walk, and no words at all when cols = 0
        return piv
    step = 8 * words
    body = a.transpose(1, 2, 0).tobytes()
    flat = [int.from_bytes(body[i:i + step], "little") for i in range(0, len(body), step)]
    members = [flat[k * height:(k + 1) * height] for k in range(count)]
    walked = (1 << limit) - 1
    for k, rows in enumerate(members):
        held: dict[int, int] = {}  # lowest bit of a pivot row -> the row
        for r, x in enumerate(rows):
            while (low := x & -x) & walked:
                h = held.get(low)
                if h is None:
                    held[low] = r
                    break
                x ^= rows[h]
            rows[r] = x
        if not forward:
            done: list[tuple[int, int]] = []  # reduced pivot rows, later columns first
            for low in sorted(held, reverse=True):
                x = rows[held[low]]
                for b, y in done:
                    if x & b:
                        x ^= y
                rows[held[low]] = x
                done.append((low, x))
        for low, r in held.items():
            piv[k, low.bit_length() - 1] = r
    body = b"".join(x.to_bytes(step, "little") for rows in members for x in rows)
    a[...] = np.frombuffer(body, dtype=np.uint64).reshape(count, height, words).transpose(2, 0, 1)
    return piv


def _echelon_gf2(a: np.ndarray, cols: int, limit: int) -> np.ndarray:
    """The GF(2) numpy loop on a (words, count, rows) stack of packed
    rows, walking the columns below limit.

    Word-major order keeps each update's inner loop as long as a member
    has rows.  The core visits only live columns, those where some
    member has a free row with a one.  An update adds a free row to
    other rows, so a column that is zero on every free row stays so:
    the live bits of a word, read again after each pivot, name the next
    column with a pivot.
    """
    words, count, rows = a.shape
    piv = np.full((count, cols), -1, dtype=np.int64)
    free = np.ones((count, rows), dtype=bool)
    members = np.arange(count)
    for w in range((limit + 63) // 64):
        if not free.any():
            break
        walked = (1 << min(64, limit - 64 * w)) - 1
        k = -1
        while live := (int(np.bitwise_or.reduce(a[w][free])) & walked) >> (k + 1):
            k += (live & -live).bit_length()
            hit = (a[w] & np.uint64(1 << k)) != 0
            cand = free & hit
            r = cand.argmax(axis=1)
            found = cand[members, r]
            # every other row holding column k takes the pivot row; a member
            # without a pivot here XORs a zero row
            prow = a[w:, members, r] * found
            hit[members, r] = False
            a[w:] ^= prow[:, :, None] * hit
            free[members, r] ^= found
            piv[:, 64 * w + k] = np.where(found, r, -1)
    return piv


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """x**(p - 2) mod p for every x in [0, p): each unit's inverse, and 0 for 0."""
    inv = np.ones(p, dtype=np.uint64)
    base = np.arange(p, dtype=np.uint64)
    e = p - 2
    while e:
        if e & 1:
            inv *= base
            inv %= p
        base *= base
        base %= p
        e >>= 1
    inv[0] = 0
    return inv.astype(np.uint32)


def _echelon_gfp(a: np.ndarray, p: int, limit: int, forward: bool) -> np.ndarray:
    """The GF(p) core on a (count, rows, cols) uint32 stack.

    It walks the columns below limit in order and skips one with no
    nonzero on a free row.  It reduces, or with forward set updates only
    the free rows.  Entries stay in [0, p) and p < 2**16, so an update
    adds at most p (p - 1) to an entry below p and never leaves uint32.
    """
    count, rows, cols = a.shape
    piv = np.full((count, cols), -1, dtype=np.int64)
    free = np.ones((count, rows), dtype=bool)
    members = np.arange(count)
    inverse = _inverses(p)
    for c in range(limit):
        col = a[:, :, c]
        cand = free & (col != 0)
        if not cand.any():
            continue
        r = cand.argmax(axis=1)
        found = cand[members, r]
        # the unit pivot row, or a zero row for a member without a pivot here
        prow = a[members, r, c:]
        prow = _reduce(prow * (inverse[prow[:, 0]] * found)[:, None], p)
        # a row with entry e in column c gains (p - e) times the unit row,
        # which clears it; the pivot row gains (p - e + 1) times it, which
        # leaves it equal to the unit row.  Rows with e = 0 are left alone,
        # and so are pivot rows when forward, the new one included.
        if forward:
            cand[members, r] = False
        hb, hr = np.nonzero(cand if forward else col)
        target = a[hb, hr, c:]
        gain = p - target[:, 0]
        if not forward:
            gain += hr == r[hb]
        a[hb, hr, c:] = _reduce(target + gain[:, None] * prow[hb], p)
        free[members, r] ^= found
        piv[:, c] = np.where(found, r, -1)
        if not free.any():
            break
    return piv


def stack_pivots(members: Sequence[np.ndarray], p: int) -> list[np.ndarray]:
    """Pivot rows of each matrix, with entries in [0, p), in input order.

    Matrices with one column count are eliminated _BATCH at a time,
    zero-padded to the tallest of them; each result has one entry per
    column of its matrix.
    """
    groups: dict[int, list[int]] = {}
    for k, y in enumerate(members):
        groups.setdefault(y.shape[1], []).append(k)
    pivots: list[np.ndarray] = [None] * len(members)
    for cols, ks in groups.items():
        for lo in range(0, len(ks), _BATCH):
            batch = ks[lo:lo + _BATCH]
            stack = Stack([members[k] for k in batch], p, forward=True)
            for k, piv in zip(batch, stack.eliminate()):
                pivots[k] = piv
    return pivots


def mat_rank(a: FFMatrix) -> int:
    """Rank of a over GF(p); a 0 x k or k x 0 matrix has rank 0."""
    return mat_ranks([a])[0]


def mat_ranks(mats: Sequence[FFMatrix]) -> list[int]:
    """Ranks of matrices over one field, eliminated by stack_pivots."""
    if not mats:
        return []
    pivots = stack_pivots([a.data for a in mats], _check_same_p(*mats))
    return [int(np.count_nonzero(piv >= 0)) for piv in pivots]


def _kernel(form: np.ndarray, piv: np.ndarray, p: int) -> FFMatrix:
    """Kernel basis from a reduced form and its pivot rows."""
    held = piv >= 0
    free = np.flatnonzero(~held)
    basis = np.zeros((piv.size, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[held] = (-form[piv[held]][:, free]) % p
    return FFMatrix._wrap(basis, p)


def _reduced(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced row echelon form of one matrix, and its pivot rows."""
    stack = Stack([a], p)
    piv = stack.eliminate()[0]
    return stack.reduced()[0], piv


def kernel_basis(a: FFMatrix) -> FFMatrix:
    """A cols x k matrix whose columns form a basis of ker(a).

    Columns follow the free columns they belong to, so the result is
    deterministic; a @ kernel_basis(a) is zero and k = cols - rank(a).
    """
    return _kernel(*_reduced(a.data, a.p), a.p)


def mat_inv(a: FFMatrix) -> FFMatrix:
    """Inverse of a square invertible matrix; raises ShapeError otherwise.

    One reduced elimination of [a | I] leaves L a in its left block and L
    in its right one.  For invertible a each column of L a is the unit
    vector of its pivot row, so L with those rows in column order is a^-1.
    """
    if a.rows != a.cols:
        raise ShapeError(f"cannot invert non-square matrix {a.shape}")
    n, p = a.rows, a.p
    form, piv = _reduced(np.hstack([a.data, np.eye(n, dtype=np.int64)]), p)
    if (piv[:n] < 0).any():
        raise ShapeError("matrix is singular")
    return FFMatrix._wrap(form[piv[:n], n:], p)


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
