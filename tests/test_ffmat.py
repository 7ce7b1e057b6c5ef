"""Exact linear algebra over GF(p)."""

from __future__ import annotations

import os
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpersist import ffmat
from gridpersist.ffmat import (
    GF2,
    FFMatrix,
    FieldSpec,
    ShapeError,
    Stack,
    _echelon_gfp,
    _kernel,
    _reduced,
    block2x2,
    hstack,
    mat_inv,
    mat_mul,
    mat_rank,
    pullback_basis,
    random_invertible,
    random_matrix,
    stack_pivots,
    vstack,
)
from oracles import naive_mul, naive_rank, naive_rref

PRIMES = [2, 3, 5, 251]


def rand_mat(rng, rows, cols, p):
    return FFMatrix(rng.integers(0, p, size=(rows, cols)), p)


def packed_pivots(arr):
    """Pivot rows of one 0/1 matrix by the bit-packed GF(2) core."""
    return Stack([arr], 2).eliminate()[0].tolist()


def generic_reduced(arr, p):
    """Pivot rows and reduced form of one matrix by the generic core, any p."""
    a = np.asarray(arr, dtype=np.uint32)[None].copy()
    piv = _echelon_gfp(a, p, a.shape[2], False)[0]
    return piv, a[0].astype(np.int64)


def kernel_basis(a):
    """A cols x k matrix whose columns are a basis of ker(a), from the
    reduced form that pullback_basis and mat_inv read."""
    return FFMatrix._wrap(_kernel(*_reduced(a.data, a.p), a.p), a.p)


def generic_kernel(a):
    piv, form = generic_reduced(a.data, a.p)
    return FFMatrix._wrap(_kernel(form, piv, a.p), a.p)


def generic_inverse(a):
    n = a.rows
    piv, form = generic_reduced(np.hstack([a.data, np.eye(n, dtype=np.int64)]), a.p)
    return FFMatrix(form[piv[:n], n:], a.p)


matrices = st.tuples(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
).map(lambda t: rand_mat(np.random.default_rng(t[3]), t[1], t[2], t[0]))


class TestFieldSpec:
    def test_accepts_primes(self):
        for p in PRIMES + [65521]:
            assert FieldSpec(p).p == p

    def test_rejects_composites_units_and_large(self):
        # FFMatrix takes its modulus by the same rule; a float one would give float64 entries
        for bad in [0, 1, 4, 6, 9, 2**16 + 1, 65536, 5.0]:
            with pytest.raises(ValueError):
                FieldSpec(bad)
            with pytest.raises(ValueError):
                FFMatrix([[1, 2], [3, 4]], bad)


class TestRank:
    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_elimination(self, a):
        assert mat_rank(a) == naive_rank(a.tolist(), a.p)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_transpose_invariance(self, a):
        assert mat_rank(a) == mat_rank(FFMatrix(a.data.T, a.p))

    def test_gf2_packed_equals_generic_path(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            rows = int(rng.integers(0, 65))
            cols = int(rng.integers(0, 65))
            arr = rng.integers(0, 2, size=(rows, cols))
            assert packed_pivots(arr) == generic_reduced(arr, 2)[0].tolist()

    def test_zero_dimensional(self):
        assert mat_rank(FFMatrix.zeros(0, 5, 3)) == 0
        assert mat_rank(FFMatrix.zeros(5, 0, 3)) == 0
        assert mat_rank(FFMatrix.zeros(0, 0, 2)) == 0

    def test_identity(self):
        assert mat_rank(FFMatrix.identity(7, 5)) == 7

    def test_wide_packed_boundary(self):
        # column counts straddling the 64-bit word boundary
        rng = np.random.default_rng(5)
        for cols in (63, 64, 65, 128, 129):
            arr = rng.integers(0, 2, size=(20, cols))
            assert sum(r >= 0 for r in packed_pivots(arr)) == naive_rank(arr.tolist(), 2)


def planted_pivots(rng, rows, cols, p):
    """Q @ U with Q invertible and U in echelon form, and U's pivot columns,
    which include the columns below cols where GF(2) packing splits words."""
    edges = {c for c in (0, 62, 63, 64, 65, 127, 128) if c < cols}
    extra = rng.choice(cols, size=min(cols, rows - len(edges)), replace=False)
    planted = sorted(edges | {int(c) for c in extra})
    u = np.zeros((rows, cols), dtype=np.int64)
    k = 0
    for c in range(cols):
        if c in planted:
            u[k, c] = 1
            k += 1
        else:
            u[:k, c] = rng.integers(0, p, size=k)
    q = random_invertible(rows, FieldSpec(p), rng).data
    return (q @ u) % p, planted


class TestPivotPrefix:
    """The pivots below column c number the rank of the first c columns."""

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_planted_pivots(self, p):
        # Q @ U with Q invertible and U in echelon form has U's pivots
        rng = np.random.default_rng(p)
        for cols in (1, 7, 63, 64, 65, 128, 129):
            arr, planted = planted_pivots(rng, 12, cols, p)
            a = FFMatrix(arr, p)
            pivots = np.flatnonzero(stack_pivots([a.data], a.p)[0] >= 0).tolist()
            assert pivots == planted
            body = a.tolist()
            for c in range(cols + 1):
                assert bisect_left(pivots, c) == naive_rank([r[:c] for r in body], p)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_random_matrices(self, a):
        pivots = np.flatnonzero(stack_pivots([a.data], a.p)[0] >= 0).tolist()
        assert len(pivots) == mat_rank(a)
        body = a.tolist()
        for c in range(a.cols + 1):
            assert bisect_left(pivots, c) == naive_rank([r[:c] for r in body], a.p)


def profile_ranks(piv, r, m):
    """rank Y[:r, :m] as the pivot rows piv of Y's elimination give it."""
    return sum(1 for c in range(m) if 0 <= piv[c] < r)


def sparse_low_rank(rng, rows, cols, rank, p):
    """A rank <= rank product of sparse factors: zero rows and columns and
    rows that depend on rows below them, so the profile is not a staircase."""
    x = rng.integers(0, p, size=(rows, rank)) * (rng.random((rows, rank)) < 0.3)
    y = rng.integers(0, p, size=(rank, cols)) * (rng.random((rank, cols)) < 0.3)
    return (x @ y) % p


def prefix_cuts(n):
    return sorted({c for c in (0, 1, 2, 31, 62, 63, 64, 65, 66, 127, 128, 129) if c <= n} | {n})


def walked_echelon(arr, p):
    """Pivot rows and reduced form of one matrix by a plain walk over every
    column: the topmost free row with a nonzero becomes a unit pivot row
    and clears the column in every other row."""
    form = np.array(arr, dtype=np.int64) % p
    rows, cols = form.shape
    piv, free = [-1] * cols, [True] * rows
    for c in range(cols):
        r = next((r for r in range(rows) if free[r] and form[r, c]), None)
        if r is None:
            continue
        form[r] = form[r] * pow(int(form[r, c]), -1, p) % p
        others = np.arange(rows) != r
        form[others] = (form[others] - np.outer(form[others, c], form[r])) % p
        piv[c], free[r] = r, False
    return piv, form


def dead_column_members(rng, p):
    """Matrices whose columns hold no pivot in runs across 64-column edges:
    63, 64 or 65 leading zero columns, zero columns 64..128 between
    columns with pivots, and full-rank members that run out of free rows
    at columns about 3, 68 and 110."""
    mats = []
    for lead in (63, 64, 65):
        a = np.zeros((20, lead + 70), dtype=np.int64)
        a[:, lead:] = sparse_low_rank(rng, 20, 70, 12, p)
        a[int(rng.integers(20)), lead] = 1
        mats.append(a)
    gap = np.zeros((40, 160), dtype=np.int64)
    gap[:, :64] = sparse_low_rank(rng, 40, 64, 20, p)
    gap[:, 129:] = rng.integers(0, p, size=(40, 31))
    mats.append(gap)
    for rows, lead in ((3, 0), (10, 58), (40, 70)):
        a = np.zeros((rows, 150), dtype=np.int64)
        a[:, lead:] = rng.integers(0, p, size=(rows, 150 - lead))
        mats.append(a)
    return mats


class TestRankProfile:
    """rank Y[:r, :m] = #{c < m : 0 <= piv[c] < r}: the cores pivot on the
    topmost free row, so the first r rows take the pivots they would take
    alone."""

    @given(st.sampled_from([2, 3, 65521]), st.integers(0, 9), st.integers(0, 9),
           st.integers(0, 9), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_every_top_left_submatrix(self, p, rows, cols, rank, planted, seed):
        rng = np.random.default_rng(seed)
        if planted:
            a = sparse_low_rank(rng, rows, cols, rank, p)
        else:
            a = rng.integers(0, p, size=(rows, cols))
        piv = generic_reduced(a, p)[0] if p != 2 else packed_pivots(a)
        body = a.tolist()
        for r in range(rows + 1):
            for m in range(cols + 1):
                assert profile_ranks(piv, r, m) == naive_rank([row[:m] for row in body[:r]], p)

    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize("shape", [(63, 129), (64, 65), (65, 64), (128, 63), (129, 128)])
    def test_panel_edges(self, p, shape):
        rows, cols = shape
        rng = np.random.default_rng([p, rows, cols])
        for a in (sparse_low_rank(rng, rows, cols, 12, p), rng.integers(0, p, size=(rows, 20))):
            piv = Stack([a], p).eliminate()[0].tolist()
            body = a.tolist()
            for r in prefix_cuts(a.shape[0]):
                for m in prefix_cuts(a.shape[1]):
                    assert profile_ranks(piv, r, m) == naive_rank([row[:m] for row in body[:r]], p)

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_zero_padded_mixed_shapes(self, p):
        rng = np.random.default_rng(p + 7)
        mats = [np.zeros((0, 64), dtype=np.int64), np.zeros((9, 0), dtype=np.int64)]
        for rows, cols in ((63, 65), (64, 129), (5, 128), (129, 9)):
            mats.append(sparse_low_rank(rng, rows, cols, 10, p))
        mats.append(rng.integers(0, p, size=(12, 64)))
        # a zero member pads every other one to 131 x 130
        stack = Stack(mats + [np.zeros((131, 130), dtype=np.int64)], p)
        for a, piv in zip(mats, stack.eliminate().tolist()):
            body = a.tolist()
            for r in prefix_cuts(a.shape[0]):
                for m in prefix_cuts(a.shape[1]):
                    assert profile_ranks(piv, r, m) == naive_rank([row[:m] for row in body[:r]], p)


    @pytest.mark.parametrize("p", [3, 65521])
    def test_dead_column_runs(self, p):
        mats = dead_column_members(np.random.default_rng(p), p)
        stack = Stack(mats, p)
        for a, piv, form in zip(mats, stack.eliminate(), stack.reduced()):
            rows, cols = a.shape
            want_piv, want_form = walked_echelon(a, p)
            lone_piv, lone_form = generic_reduced(a, p)
            assert piv[:cols].tolist() == lone_piv.tolist() == want_piv
            assert (piv[cols:] < 0).all()
            assert np.array_equal(form[:rows, :cols], want_form)
            assert np.array_equal(lone_form, want_form)
            body = a.tolist()
            for r in prefix_cuts(rows):
                for m in prefix_cuts(cols):
                    assert profile_ranks(piv, r, m) == naive_rank([row[:m] for row in body[:r]], p)

    @pytest.mark.parametrize("p", [3, 65521])
    def test_dead_column_runs_through_kernel_and_inverse(self, p):
        rng = np.random.default_rng(p + 3)
        for arr in dead_column_members(rng, p):
            a = FFMatrix(arr, p)
            k = kernel_basis(a)
            assert k.shape == (a.cols, a.cols - naive_rank(arr.tolist(), p))
            assert not mat_mul(a, k).data.any()
            assert naive_rank(k.tolist(), p) == k.cols
        # [a | I] runs out of free rows at column n, halfway through
        for n in (63, 64, 65, 129):
            a = random_invertible(n, FieldSpec(p), rng)
            assert mat_mul(mat_inv(a), a) == FFMatrix.identity(n, p)
            dead = a.data.copy()
            dead[:, n // 2] = 0
            with pytest.raises(ShapeError):
                mat_inv(FFMatrix(dead, p))


class TestStack:
    """Members of any shape share one elimination and keep their own results."""

    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize("cols", [63, 64, 65, 128, 129])
    def test_mixed_shapes_match_lone_and_naive(self, p, cols):
        rng = np.random.default_rng([p, cols])
        mats = [FFMatrix.zeros(0, cols, p), FFMatrix.zeros(5, 0, p), FFMatrix.zeros(0, 0, p)]
        for rows in (1, 7, 20):
            for width in (cols, cols - 1, 1 + int(rng.integers(cols))):
                rank = int(rng.integers(0, min(rows, width) + 1))
                mats.append(mat_mul(rand_mat(rng, rows, rank, p), rand_mat(rng, rank, width, p)))
        mats = [mats[k] for k in rng.permutation(len(mats))]
        # a zero member pads every other one beyond its rows and columns
        stack = Stack([a.data for a in mats] + [np.zeros((23, cols + 3), dtype=np.int64)], p)
        assert stack.cols == cols + 3
        piv = stack.eliminate()
        for k, a in enumerate(mats):
            pivots = np.flatnonzero(piv[k] >= 0).tolist()
            assert pivots == np.flatnonzero(stack_pivots([a.data], p)[0] >= 0).tolist()
            assert len(pivots) == naive_rank(a.tolist(), p)
            assert piv[k].max(initial=-1) < a.rows
        batched = stack_pivots([a.data for a in mats], p)
        assert [piv.tolist() for piv in batched] == [stack_pivots([a.data], p)[0].tolist() for a in mats]
        assert [int(np.count_nonzero(piv >= 0)) for piv in batched] == [mat_rank(a) for a in mats]

    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize("shapes", [[(0, 3), (0, 70), (0, 0)], [(5, 0), (0, 0), (2, 0)]])
    def test_members_without_rows_or_columns(self, p, shapes):
        mats = [np.zeros(shape, dtype=np.int64) for shape in shapes]
        rows, cols = (max(dims) for dims in zip(*shapes))
        stack = Stack(mats, p)
        assert stack.cols == cols
        piv = stack.eliminate()
        assert piv.shape == (len(mats), cols) and (piv < 0).all()
        form = stack.reduced()
        assert form.shape == (len(mats), rows, cols) and not form.any()
        assert [piv.tolist() for piv in stack_pivots(mats, p)] == [[-1] * c for _, c in shapes]

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_widest_and_tallest_member_set_the_layout(self, p):
        mats = [np.ones((3, 5), dtype=np.int64), np.ones((7, 2), dtype=np.int64),
                np.ones((1, 130), dtype=np.int64)]
        stack = Stack(mats, p)
        assert stack.cols == stack.limit == 130
        if p == 2:
            assert stack.data.shape == (3, 3, 7) and stack.data.dtype == np.uint64
        else:
            assert stack.data.shape == (3, 7, 130) and stack.data.dtype == np.uint32
        assert Stack(mats, p, limit=4).limit == 4

    @pytest.mark.parametrize("p", [2, 65521])
    def test_batches_split_anywhere(self, p, monkeypatch):
        rng = np.random.default_rng(p + 1)
        mats = [rand_mat(rng, int(rng.integers(0, 6)), 9, p).data for _ in range(11)]
        whole = [piv.tolist() for piv in stack_pivots(mats, p)]
        monkeypatch.setattr(ffmat, "_BATCH", 4)
        assert [piv.tolist() for piv in stack_pivots(mats, p)] == whole
        assert [sum(r >= 0 for r in piv) for piv in whole] == [naive_rank(a.tolist(), p) for a in mats]


def count_eliminations(monkeypatch):
    """A list that gains one entry, the member count, per Stack.eliminate call."""
    calls = []
    eliminate = Stack.eliminate

    def counted(stack):
        piv = eliminate(stack)
        calls.append(len(piv))
        return piv
    monkeypatch.setattr(Stack, "eliminate", counted)
    return calls


def record_loops(monkeypatch):
    """A list that gains the name of each echelon loop a stack runs."""
    ran = []
    for name in ("_echelon_ints", "_echelon_gf2", "_echelon_gfp"):
        loop = getattr(ffmat, name)
        monkeypatch.setattr(ffmat, name, lambda *args, loop=loop, name=name: ran.append(name) or loop(*args))
    return ran


class TestStackPivots:
    """stack_pivots shares a stack only among matrices with one column
    count, _BATCH at a time, and returns the pivots in input order."""

    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_mixed_shapes_match_lone(self, p, batch, monkeypatch):
        rng = np.random.default_rng([p, batch])
        mats = [rng.integers(0, p, size=(int(rng.integers(0, 7)), int(rng.integers(0, 10))))
                for _ in range(60)]
        mats += [np.full((6, 9), p - 1), np.zeros((0, 0), dtype=np.int64)]
        mats = [mats[k] for k in rng.permutation(len(mats))]
        lone = [packed_pivots(a) if p == 2 else generic_reduced(a, p)[0].tolist() for a in mats]
        monkeypatch.setattr(ffmat, "_BATCH", batch)
        calls = count_eliminations(monkeypatch)
        pivots = stack_pivots(mats, p)
        assert [piv.tolist() for piv in pivots] == lone
        groups = {}
        for a in mats:
            groups[a.shape[1]] = groups.get(a.shape[1], 0) + 1
        assert len(calls) == sum(-(-size // batch) for size in groups.values())
        assert max(calls) <= batch

    def test_no_members(self, monkeypatch):
        calls = count_eliminations(monkeypatch)
        assert stack_pivots([], 3) == [] and calls == []


class TestModulus65521:
    """The GF(65521) core at the largest residues: its row update reaches
    p (p - 1) + p - 1 = p**2 - 1 < 2**32 before reduction."""

    P = 65521

    def edge_matrices(self, rng):
        p = self.P
        ones_first = np.full((7, 12), p - 1)
        ones_first[:, 0] = 1
        mats = [np.full((r, c), p - 1) for r, c in ((1, 1), (5, 5), (9, 4), (3, 11))]
        mats += [ones_first, np.where(rng.random((10, 10)) < 0.5, 1, p - 1)]
        mats += [rng.integers(0, p, size=(int(rng.integers(1, 12)), int(rng.integers(1, 12))))
                 for _ in range(20)]
        mats += [rng.integers(p - 3, p, size=(8, 8)) for _ in range(5)]
        return mats

    def test_reduced_forms_match_naive(self):
        p = self.P
        mats = self.edge_matrices(np.random.default_rng(65521))
        stack = Stack(mats + [np.zeros((12, 12), dtype=np.int64)], p)
        for a, piv, form in zip(mats, stack.eliminate(), stack.reduced()):
            rows, cols = a.shape
            want = naive_rref(a.tolist(), p)
            held = np.flatnonzero(piv[:cols] >= 0)
            assert len(held) == len(want) == naive_rank(a.tolist(), p)
            # the pivot rows in column order are the reduced echelon form; the rest are zero
            assert form[piv[held], :cols].tolist() == want
            assert not np.delete(form[:rows, :cols], piv[held], axis=0).any()
            lone_piv, lone_form = generic_reduced(a, p)
            assert lone_piv.tolist() == piv[:cols].tolist()
            assert np.array_equal(lone_form, form[:rows, :cols])

    def test_ranks_and_kernels(self):
        p = self.P
        for a in self.edge_matrices(np.random.default_rng(1)):
            m = FFMatrix(a, p)
            assert mat_rank(m) == naive_rank(a.tolist(), p)
            k = kernel_basis(m)
            assert k.cols == m.cols - mat_rank(m) and not mat_mul(m, k).data.any()


class TestMul:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_matches_schoolbook(self, seed, p):
        rng = np.random.default_rng(seed)
        a = rand_mat(rng, int(rng.integers(0, 5)), int(rng.integers(0, 5)), p)
        b = rand_mat(rng, a.cols, int(rng.integers(0, 5)), p)
        assert mat_mul(a, b).tolist() == naive_mul(a.tolist(), b.tolist(), p, bcols=b.cols)

    def test_empty_composition_is_zero_map(self):
        a = FFMatrix.zeros(3, 0, 2)
        b = FFMatrix.zeros(0, 4, 2)
        assert mat_mul(a, b) == FFMatrix.zeros(3, 4, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(FFMatrix.zeros(2, 3, 2), FFMatrix.zeros(2, 3, 2))

    def test_modulus_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(FFMatrix.zeros(2, 2, 2), FFMatrix.zeros(2, 2, 3))

    @pytest.mark.parametrize("p", [2, 65521])
    def test_transposed_and_reversed_operands(self, p):
        # F-ordered and negative-stride data, as transposes and row reversal make
        rng = np.random.default_rng(p)
        a = rand_mat(rng, 40, 30, p)
        b = rand_mat(rng, 40, 20, p)
        for x, y in ((FFMatrix(a.data.T, p), b), (FFMatrix(a.data[::-1].T, p), b),
                     (FFMatrix._wrap(a.data.T[:, ::-1], p), FFMatrix._wrap(b.data[::-1, ::-2], p))):
            assert mat_mul(x, y).tolist() == naive_mul(x.tolist(), y.tolist(), p)

    @pytest.mark.parametrize("side", [0, 1])
    def test_float_path_at_its_bound(self, side):
        # the float path is taken while (p - 1)**2 * inner < 2**53.  Entries
        # p - 1 and one p - 2 make an odd sum, which float64 cannot hold
        # past 2**53: the product just above the bound is wrong on that path
        p = 65521
        inner = (2**53 - 1) // (p - 1) ** 2 + side
        a = np.full(inner, p - 1, dtype=np.int64)
        a[-1] = p - 2
        want = (inner - 1) * (p - 1) ** 2 + (p - 2) ** 2
        assert (want > 2**53) == bool(side)
        got = mat_mul(FFMatrix._wrap(a[None, :], p), FFMatrix._wrap(a[:, None], p))
        assert got.tolist() == [[want % p]]

    @pytest.mark.parametrize("side", [0, 1])
    def test_all_largest_entries_at_the_float_bound(self, side):
        # inner = k is the last size on the float path and k + 1 the first
        # on the int64 one; every partial sum there is a multiple of (p - 1)**2
        p = 65521
        inner = (2**53 - 1) // (p - 1) ** 2 + side
        assert ((p - 1) ** 2 * inner < 2**53) != bool(side)
        a = np.full(inner, p - 1, dtype=np.int64)
        got = mat_mul(FFMatrix._wrap(a[None, :], p), FFMatrix._wrap(a[:, None], p))
        row = a.tolist()
        assert got.tolist() == [[sum(x * y for x, y in zip(row, row)) % p]]

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_products_run_on_one_blas_thread(self, preset):
        # a fresh interpreter, as the CLI starts: importing the package first
        # leaves OpenBLAS one thread and starts no worker, unless the caller
        # chose a count
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(ffmat.__file__).resolve().parents[1])
        if preset:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import gridpersist.ffmat as f, numpy as np, os; "
                "a = f.FFMatrix._wrap(np.ones((300, 300), dtype=np.int64), 65521); f.mat_mul(a, a); "
                "t = '/proc/self/task'; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(t)) if os.path.isdir(t) else 1)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        count, threads = out.stdout.split()
        assert count == (preset or "1")
        if not preset:
            assert threads == "1"

    def test_large_entries_stay_exact(self):
        p = 65521
        rng = np.random.default_rng(0)
        a = rand_mat(rng, 30, 40, p)
        b = rand_mat(rng, 40, 20, p)
        assert mat_mul(a, b).tolist() == naive_mul(a.tolist(), b.tolist(), p)


class TestKernel:
    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_basis_spans_kernel(self, a):
        k = kernel_basis(a)
        assert k.cols == a.cols - mat_rank(a)
        assert mat_rank(k) == k.cols
        assert mat_mul(a, k) == FFMatrix.zeros(a.rows, k.cols, a.p)

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_wide_kernels_of_every_rank(self, p):
        rng = np.random.default_rng(p)
        mats = [FFMatrix.zeros(0, 70, p)]
        for rows in (1, 4, 9, 30):
            rank = int(rng.integers(0, rows + 1))
            mats.append(mat_mul(rand_mat(rng, rows, rank, p), rand_mat(rng, rank, 70, p)))
        for a in mats:
            k = kernel_basis(a)
            assert k.cols == 70 - naive_rank(a.tolist(), p)
            assert mat_mul(a, k) == FFMatrix.zeros(a.rows, k.cols, p)

    def test_full_rank_has_trivial_kernel(self):
        assert kernel_basis(FFMatrix.identity(4, 3)).cols == 0

    def test_zero_matrix_kernel_is_everything(self):
        k = kernel_basis(FFMatrix.zeros(3, 5, 2))
        assert k.cols == 5 and mat_rank(k) == 5

    def test_gf2_packed_kernel_and_inverse_equal_generic(self):
        # column counts straddling the 64-bit word boundary; the generators
        # draw from these results, so the two cores must agree exactly
        rng = np.random.default_rng(7)
        cases = []
        for cols in (63, 64, 65, 128, 129):
            low_rank = mat_mul(rand_mat(rng, 30, 12, 2), rand_mat(rng, 12, cols, 2))
            cases.append((rand_mat(rng, 40, cols, 2), low_rank, random_invertible(cols, GF2, rng)))
        packed = [(kernel_basis(a), kernel_basis(b), mat_inv(c)) for a, b, c in cases]
        generic = [(generic_kernel(a), generic_kernel(b), generic_inverse(c)) for a, b, c in cases]
        assert packed == generic


class TestReducedHelper:
    """kernel_basis and mat_inv read one reduced form, from either GF(2)
    loop: a matrix of at most _INT_ROWS rows takes the int rows."""

    @pytest.mark.parametrize("side", [0, 1])
    def test_kernel_and_inverse_on_both_sides_of_int_rows(self, side, monkeypatch):
        ran = record_loops(monkeypatch)
        want = "_echelon_gf2" if side else "_echelon_ints"
        n = ffmat._INT_ROWS + side
        rng = np.random.default_rng(n)
        low_rank = mat_mul(rand_mat(rng, n, 40, 2), rand_mat(rng, 40, 90, 2))
        for a in (rand_mat(rng, n, 300, 2), low_rank):
            ran.clear()
            k = kernel_basis(a)
            assert ran == [want]
            assert k == generic_kernel(a)
            assert k.cols == a.cols - naive_rank(a.tolist(), 2) and not mat_mul(a, k).data.any()
        a = random_invertible(n, GF2, rng)
        ran.clear()
        inv = mat_inv(a)
        assert ran == [want]
        assert inv == generic_inverse(a) and mat_mul(inv, a) == FFMatrix.identity(n, 2)
        singular = a.data.copy()
        singular[:, n // 2] = 0
        with pytest.raises(ShapeError):
            mat_inv(FFMatrix(singular, 2))


class TestStacking:
    def test_hstack_vstack_shapes(self):
        a = FFMatrix([[1, 2], [0, 1]], 3)
        b = FFMatrix([[2], [2]], 3)
        assert hstack(a, b).shape == (2, 3)
        assert vstack(a, a).shape == (4, 2)
        with pytest.raises(ShapeError):
            hstack(a, FFMatrix.zeros(3, 1, 3))
        with pytest.raises(ShapeError):
            vstack(a, FFMatrix.zeros(1, 3, 3))

    def test_block2x2_with_auto_zero(self):
        i2 = FFMatrix.identity(2, 2)
        m = block2x2(i2, None, None, i2)
        assert m == FFMatrix.identity(4, 2)

    def test_block2x2_explicit_matches_example(self):
        a = FFMatrix([[1, 1]], 2)   # 1 x 2
        c = FFMatrix([[1]], 2)      # 1 x 1
        m = block2x2(a, None, None, c)
        assert m.tolist() == [[1, 1, 0], [0, 0, 1]]

    def test_block2x2_underdetermined(self):
        with pytest.raises(ShapeError):
            block2x2(None, None, None, None)
        with pytest.raises(ShapeError):
            block2x2(FFMatrix.identity(2, 2), None, None, None)

    def test_rank_of_stack_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rand_mat(rng, 3, 4, 3)
            b = rand_mat(rng, 3, 2, 3)
            r = mat_rank(hstack(a, b))
            assert max(mat_rank(a), mat_rank(b)) <= r <= mat_rank(a) + mat_rank(b)


class TestBlock2x2:
    """block2x2 against the blocks' rows laid side by side by hand, over
    every pattern of None blocks and with blocks of zero rows or columns."""

    SLOTS = [(0, 2), (0, 3), (1, 2), (1, 3)]  # a, b, c, d: indices of their (rows, cols) in sizes

    def naive(self, blocks, sizes):
        parts = [m.tolist() if m is not None else [[0] * sizes[c]] * sizes[r]
                 for m, (r, c) in zip(blocks, self.SLOTS)]
        return [x + y for x, y in zip(parts[0], parts[1])] + [x + y for x, y in zip(parts[2], parts[3])]

    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize("sizes", [(2, 3, 1, 4), (0, 2, 3, 0), (1, 0, 0, 2), (0, 0, 0, 0)])
    @pytest.mark.parametrize("given", range(16))
    def test_every_none_pattern(self, p, sizes, given):
        # bit k of given says whether block k is given or None
        rng = np.random.default_rng([p, given, *sizes])
        blocks = [rand_mat(rng, sizes[r], sizes[c], p) if given >> k & 1 else None
                  for k, (r, c) in enumerate(self.SLOTS)]
        known = {dim for k, slot in enumerate(self.SLOTS) if given >> k & 1 for dim in slot}
        if len(known) == 4:
            m = block2x2(*blocks)
            assert m.p == p and m.shape == (sizes[0] + sizes[1], sizes[2] + sizes[3])
            assert m.tolist() == self.naive(blocks, sizes)
            return
        with pytest.raises(ShapeError) as err:
            block2x2(*blocks)
        assert str(err.value) == ("block2x2 cannot infer a block dimension" if given
                                  else "block2x2 needs at least one concrete block")

    @pytest.mark.parametrize("a,c,d,message", [
        ((2, 3), (1, 2), (1, 1), "block of shape (1, 2) does not fit slot (1, 3)"),
        ((0, 2), (1, 0), (1, 1), "block of shape (1, 0) does not fit slot (1, 2)"),
        ((2, 0), (0, 0), (3, 1), "block of shape (3, 1) does not fit slot (0, 1)"),
    ])
    def test_misfit_block_names_its_slot(self, a, c, d, message):
        with pytest.raises(ShapeError) as err:
            block2x2(FFMatrix.zeros(*a, 3), None, FFMatrix.zeros(*c, 3), FFMatrix.zeros(*d, 3))
        assert str(err.value) == message


class TestInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for p in PRIMES:
            a = random_invertible(5, FieldSpec(p), rng)
            assert mat_mul(a, mat_inv(a)) == FFMatrix.identity(5, p)

    def test_singular_rejected(self):
        with pytest.raises(ShapeError):
            mat_inv(FFMatrix.zeros(2, 2, 2))
        with pytest.raises(ShapeError):
            mat_inv(FFMatrix.zeros(2, 3, 2))


class TestPullback:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_projections_commute_and_dimension(self, seed, p):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(0, 5))
        f = rand_mat(rng, rows, int(rng.integers(0, 5)), p)
        g = rand_mat(rng, rows, int(rng.integers(0, 5)), p)
        phi1, phi2 = pullback_basis(f, g)
        assert phi1.cols == phi2.cols
        assert mat_mul(f, phi1) == mat_mul(g, phi2)
        assert phi1.cols == f.cols + g.cols - mat_rank(hstack(f, g))
        stacked = vstack(phi1, phi2)
        assert mat_rank(stacked) == stacked.cols

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 65521]))
    @settings(max_examples=120, deadline=None)
    def test_basis_is_the_kernel_read_off_naive_rref(self, seed, p):
        # the basis is one column per free column of [f | -g], in order:
        # the free unit vector less its column of the reduced form on the pivots
        rng = np.random.default_rng(seed)
        rows, rank = (int(x) for x in rng.integers(0, 5, size=2))
        f, g = (mat_mul(rand_mat(rng, rows, rank, p), rand_mat(rng, rank, int(rng.integers(0, 5)), p))
                for _ in range(2))
        phi1, phi2 = pullback_basis(f, g)
        cols = f.cols + g.cols
        form = naive_rref([x + [-y % p for y in z] for x, z in zip(f.tolist(), g.tolist())], p)
        pivots = [next(c for c, x in enumerate(row) if x) for row in form]
        basis = []
        for j in (c for c in range(cols) if c not in pivots):
            v = [int(c == j) for c in range(cols)]
            for row, c in zip(form, pivots):
                v[c] = -row[j] % p
            basis.append(v)
        assert (phi1.rows, phi2.rows, phi1.cols, phi2.cols) == (f.cols, g.cols, len(basis), len(basis))
        assert np.vstack([phi1.data, phi2.data]).T.tolist() == basis

    def test_codomain_mismatch(self):
        with pytest.raises(ShapeError):
            pullback_basis(FFMatrix.zeros(2, 2, 2), FFMatrix.zeros(3, 2, 2))


class TestRandom:
    def test_random_invertible_has_full_rank(self):
        rng = np.random.default_rng(17)
        for p in [2, 3, 251]:
            for d in [0, 1, 2, 5, 9]:
                m = random_invertible(d, FieldSpec(p), rng)
                assert m.shape == (d, d) and mat_rank(m) == d

    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 9])
    def test_random_invertible_is_p_l_u(self, p, d):
        # P @ L @ U, rebuilt from the same draws in the same order
        got = random_invertible(d, FieldSpec(p), np.random.default_rng([p, d]))
        assert got.shape == (d, d)
        if d:
            rng = np.random.default_rng([p, d])
            lower = np.tril(rng.integers(0, p, size=(d, d)), -1) + np.eye(d, dtype=np.int64)
            upper = np.triu(rng.integers(0, p, size=(d, d)), 1) + np.diag(rng.integers(1, p, size=d))
            perm = np.eye(d, dtype=np.int64)[rng.permutation(d)]
            assert got.tolist() == naive_mul(perm.tolist(), naive_mul(lower.tolist(), upper.tolist(), p), p)

    def test_unique_invertible_1x1_gf2(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            assert random_invertible(1, GF2, rng).tolist() == [[1]]

    def test_random_matrix_reproducible(self):
        a = random_matrix(4, 4, GF2, np.random.default_rng(5))
        b = random_matrix(4, 4, GF2, np.random.default_rng(5))
        assert a == b


class TestImmutability:
    def test_data_is_read_only(self):
        a = FFMatrix([[1, 0], [0, 1]], 2)
        with pytest.raises(ValueError):
            a.data[0, 0] = 0
        with pytest.raises(AttributeError):
            a.p = 3

    def test_entries_reduced(self):
        assert FFMatrix([[5, -1]], 3).tolist() == [[2, 2]]


def one_stack(mats, p, **kwargs):
    """The matrices in one stack, eliminated: their pivot rows and the stack."""
    stack = Stack(mats, p, **kwargs)
    return stack.eliminate(), stack


def forward_members(rng, p, count):
    """Members with mixed row counts, zero rows and columns and all-(p - 1) blocks."""
    mats = [np.zeros((0, 7), dtype=np.int64), np.zeros((6, 0), dtype=np.int64),
            np.zeros((5, 9), dtype=np.int64), np.full((6, 9), p - 1), np.full((1, 1), p - 1)]
    for _ in range(count):
        rows, cols = (int(x) for x in rng.integers(0, 12, size=2))
        if rng.random() < 0.5:
            a = sparse_low_rank(rng, rows, cols, int(rng.integers(0, 8)), p)
        else:
            a = rng.integers(0, p, size=(rows, cols))
        a[rng.random(rows) < 0.2] = 0
        a[:, rng.random(cols) < 0.2] = 0
        mats.append(a)
    return [mats[k] for k in rng.permutation(len(mats))]


class TestForward:
    """Forward elimination updates only the free rows; a free row sees the
    updates a reduction would give it, so the pivots are the same."""

    def check(self, mats, p):
        fwd, fstack = one_stack(mats, p, forward=True)
        red, rstack = one_stack(mats, p)
        assert np.array_equal(fwd, red)
        for a, piv, fform, rform in zip(mats, fwd, fstack.reduced(), rstack.reduced()):
            rows, cols = a.shape
            assert np.count_nonzero(piv >= 0) == naive_rank(a.tolist(), p)
            assert piv.max(initial=-1) < rows
            free = np.setdiff1d(np.arange(rows), piv[piv >= 0])
            assert np.array_equal(fform[free], rform[free])
            body = a.tolist()
            for r in prefix_cuts(rows):
                for m in prefix_cuts(cols):
                    assert profile_ranks(piv, r, m) == naive_rank([row[:m] for row in body[:r]], p)

    # on GF(2) this stack, 42 members of up to 40 rows, takes the numpy loop
    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_mixed_stack_and_dead_column_runs(self, p):
        rng = np.random.default_rng([p, 16])
        mats = forward_members(rng, p, 30) + dead_column_members(rng, p)
        assert len(mats) * max(a.shape[0] for a in mats) > ffmat._INT_ROWS
        self.check(mats, p)

    # on GF(2) these stacks, at most 13 members of up to 11 rows, take the int rows
    @given(st.sampled_from([2, 3, 65521]), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_stacks(self, p, count, seed):
        mats = forward_members(np.random.default_rng(seed), p, count)
        assert len(mats) * max(a.shape[0] for a in mats) <= ffmat._INT_ROWS
        self.check(mats, p)

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_callers(self, p, monkeypatch):
        # stack_pivots eliminates forward; kernel_basis and mat_inv reduce
        modes = []
        eliminate = Stack.eliminate
        monkeypatch.setattr(Stack, "eliminate", lambda stack: modes.append(stack.forward) or eliminate(stack))
        a = FFMatrix.identity(3, p)
        stack_pivots([a.data], p)
        mat_rank(a)
        assert modes == [True, True]
        kernel_basis(a)
        mat_inv(a)
        assert modes == [True, True, False, False]


class TestColumnLimit:
    """The walk stops at the stack's column limit, and every column takes
    its row operations: walking [a | I] to a column limit leaves [E a | E]
    with E invertible."""

    def check(self, mats, limit, p, forward=False):
        rows, cols = mats[0].shape
        stack = Stack([np.hstack([a, np.eye(rows, dtype=np.int64)]) for a in mats], p,
                      limit=limit, forward=forward)
        for a, piv, walked in zip(mats, stack.eliminate(), stack.reduced()):
            e = walked[:, cols:]
            assert piv[:limit].tolist() == walked_echelon(a[:, :limit], p)[0]
            assert (piv[limit:] < 0).all()
            assert np.array_equal(e @ a % p, walked[:, :cols])
            assert naive_rank(e.tolist(), p) == rows
            if not forward:
                assert np.array_equal(walked[:, :limit], walked_echelon(a[:, :limit], p)[1])
            # a full walk has pivots past the limit, so the limit stopped it
            assert (one_stack([a], p)[0][0, limit:] >= 0).any()

    @pytest.mark.parametrize("p", [3, 65521])
    @pytest.mark.parametrize("forward", [False, True])
    def test_gfp(self, p, forward):
        rng = np.random.default_rng([p, 17])
        for rows, cols, limit in ((8, 12, 3), (20, 30, 10), (12, 70, 64), (5, 9, 0)):
            a = sparse_low_rank(rng, rows, cols, rows // 2, p)
            a[:, limit:] = rng.integers(0, p, size=(rows, cols - limit))
            self.check([a], limit, p, forward)

    @pytest.mark.parametrize("limit", [63, 64, 65])
    def test_gf2_word_edges(self, limit):
        # 100 columns of a and rows of I: a stack of at least 130 columns,
        # three words; one member of 30 rows takes the int rows, two of just
        # over half the constant the numpy loop
        rng = np.random.default_rng(limit)
        for count, rows in ((1, 30), (2, ffmat._INT_ROWS // 2 + 1)):
            mats = []
            for _ in range(count):
                a = np.zeros((rows, 100), dtype=np.int64)
                a[:, :60] = sparse_low_rank(rng, rows, 60, 6, 2)
                a[:, 60:] = rng.integers(0, 2, size=(rows, 40))
                mats.append(a)
            for forward in (False, True):
                self.check(mats, limit, 2, forward)


def forward_walk(arr, limit):
    """The GF(2) column walk to limit, free rows only: the topmost free row
    with a one in the column becomes its pivot row, as it stands, and is
    added to the later free rows with a one there."""
    form = np.array(arr, dtype=np.int64) % 2
    free = np.ones(form.shape[0], dtype=bool)
    for c in range(limit):
        hit = np.flatnonzero(free & (form[:, c] == 1))
        if hit.size:
            form[hit[1:]] ^= form[hit[0]]
            free[hit[0]] = False
    return form


def gf2_members(rng, cols):
    """0/1 members of at most cols columns: planted pivots at the word
    edges, low rank, dense, zero, and [a | I] walked past a's columns."""
    mats = [planted_pivots(rng, 12, cols, 2)[0], planted_pivots(rng, 40, cols, 2)[0],
            sparse_low_rank(rng, 30, cols, 8, 2), rng.integers(0, 2, size=(20, cols)),
            rng.integers(0, 2, size=(7, cols - 5)), np.zeros((9, cols), dtype=np.int64)]
    width = cols // 3
    mats.append(np.hstack([rng.integers(0, 2, size=(cols - width, width)),
                           np.eye(cols - width, dtype=np.int64)]))
    return [mats[k] for k in rng.permutation(len(mats))]


class TestGf2Loops:
    """The int rows and the numpy loop give one stack the same pivots, and
    the same reduced form when they reduce; eliminating forward, the int
    rows leave the free rows as the numpy loop's reduction does."""

    @staticmethod
    def both(mats, limit, forward):
        # each loop on its own copy of one packed block
        stack = Stack(mats, 2, limit=limit, forward=forward)
        block = stack.data.copy()
        ipiv = ffmat._echelon_ints(stack.data, stack.cols, limit, forward)
        iform = stack.reduced()
        stack.data = block
        wpiv = ffmat._echelon_gf2(block, stack.cols, limit)
        wform = stack.reduced()
        assert np.array_equal(ipiv, wpiv)
        if not forward:
            assert np.array_equal(iform, wform)
        for a, piv, form, word_form in zip(mats, ipiv, iform, wform):
            free = np.setdiff1d(np.arange(form.shape[0]), piv[piv >= 0])
            assert np.array_equal(form[free], word_form[free])
            if forward:
                # the int rows leave every pivot row as it stood when chosen
                rows, width = a.shape
                assert np.array_equal(form[:rows, :width], forward_walk(a, min(limit, width)))
        return ipiv

    def test_eliminate_picks_the_loop_by_rows_in_all(self, monkeypatch):
        # a GF(2) stack of at most _INT_ROWS rows in all takes the int rows,
        # a larger one the numpy loop; both hold the one packed layout
        ran = record_loops(monkeypatch)
        half = ffmat._INT_ROWS // 2
        for count, rows, want in ((1, ffmat._INT_ROWS, "_echelon_ints"), (1, ffmat._INT_ROWS + 1, "_echelon_gf2"),
                                  (2, half, "_echelon_ints"), (2, half + 1, "_echelon_gf2"),
                                  (ffmat._INT_ROWS, 1, "_echelon_ints"), (ffmat._INT_ROWS + 1, 1, "_echelon_gf2")):
            rng = np.random.default_rng([count, rows])
            mats = [rng.integers(0, 2, size=(rows, 70)) for _ in range(count)]
            stack = Stack(mats, 2)
            assert stack.data.shape == (2, count, rows) and stack.data.dtype == np.uint64
            ran.clear()
            piv = stack.eliminate()
            assert ran == [want]
            assert [row.tolist() for row in piv] == [packed_pivots(a) for a in mats]
            ran.clear()
            Stack(mats, 3).eliminate()
            assert ran == ["_echelon_gfp"]

    @pytest.mark.parametrize("cols", [63, 64, 65, 128])
    @pytest.mark.parametrize("forward", [False, True])
    def test_planted_stacks(self, cols, forward):
        rng = np.random.default_rng([cols, forward])
        mats = gf2_members(rng, cols)
        for limit in sorted(c for c in {0, 1, 62, 63, 64, 65, cols // 2, cols - 1, cols} if c <= cols):
            piv = self.both(mats, limit, forward)
            assert (piv[:, limit:] < 0).all()
            for a, member in zip(mats, piv):
                want = walked_echelon(a[:, :limit], 2)[0]
                assert member[:len(want)].tolist() == want
                assert (member[a.shape[1]:] < 0).all()

    @given(st.integers(1, 2), st.integers(0, 40), st.integers(0, 140), st.integers(0, 140),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_stacks(self, count, rows, cols, limit, forward, seed):
        rng = np.random.default_rng(seed)
        mats = [sparse_low_rank(rng, rows, cols, int(rng.integers(0, 20)), 2) if k % 2
                else rng.integers(0, 2, size=(rows, cols)) for k in range(count)]
        self.both(mats, min(limit, cols), forward)
