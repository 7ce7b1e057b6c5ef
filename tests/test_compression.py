"""Compressed multiplicities: closed forms, Hom oracle, structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpersist import compression, ffmat, grid
from gridpersist.compression import (
    ARROW,
    ONE_SOURCE_TWO_SINKS,
    POINT,
    TWO_SOURCES_ONE_SINK,
    TWO_SOURCES_TWO_SINKS,
    classify_ss,
    compressed_multiplicity_function,
)
from gridpersist.ffmat import GF2, FFMatrix, FieldSpec, ShapeError, Stack, hstack, mat_mul, random_invertible
from gridpersist.generators import (
    example_module,
    make_rng,
    random_interval_decomposable,
    random_module,
    staircase_family_module,
)
from gridpersist.grid import (
    Grid,
    PersistenceModule,
    conjugate,
    path_map_table,
    rank_invariant,
)
from gridpersist.intervals import Interval, enumerate_intervals
from oracles import (
    LoopedSinkRanks,
    QuiverRep,
    almost_split_fixtures,
    block_multiplicity,
    direct_sum,
    hom_dim,
    hom_multiplicity,
    interval_module,
    is_rectangle,
    leq,
    naive_rank,
    restrict,
    span,
    ss_interval_rep,
    ss_restrict,
    zeta_act,
)

iv = Interval.from_string


class TestClassify:
    def test_point(self):
        s = classify_ss(iv("1..1:[2,2]"))
        assert s.kind == POINT and s.s1 == s.t2 == (1, 2)

    def test_single_row_arrow(self):
        s = classify_ss(iv("2..2:[1,3]"))
        assert s.kind == ARROW and s.s1 == (2, 1) and s.t2 == (2, 3)

    def test_tall_rectangle_arrow(self):
        s = classify_ss(iv("1..2:[2,3];[2,3]"))
        assert s.kind == ARROW and s.s1 == (1, 2) and s.t2 == (2, 3)

    def test_two_sources_one_sink(self):
        s = classify_ss(iv("1..2:[2,3];[1,3]"))
        assert s.kind == TWO_SOURCES_ONE_SINK
        assert (s.s1, s.s2, s.t2) == ((1, 2), (2, 1), (2, 3))
        assert s.t1 is None

    def test_one_source_two_sinks(self):
        s = classify_ss(iv("1..2:[1,3];[1,2]"))
        assert s.kind == ONE_SOURCE_TWO_SINKS
        assert (s.s1, s.t1, s.t2) == ((1, 1), (1, 3), (2, 2))
        assert s.s2 is None

    def test_two_sources_two_sinks(self):
        s = classify_ss(iv("1..2:[2,3];[1,2]"))
        assert s.kind == TWO_SOURCES_TWO_SINKS
        assert (s.s1, s.s2, s.t1, s.t2) == ((1, 2), (2, 1), (1, 3), (2, 2))

    def test_three_rows_rejected(self):
        with pytest.raises(ValueError):
            classify_ss(Interval(1, 3, ((2, 2), (1, 2), (1, 1))))

    @pytest.mark.parametrize("m", [1, 2])
    def test_s1_and_t2_are_the_corners(self, m):
        for I in enumerate_intervals(m, 6):
            shape = classify_ss(I)
            assert (shape.s1, shape.t2) == ((I.s, I.rows[0][0]), (I.t, I.rows[-1][1]))


# Nonzero compressed multiplicities of the worked 2 x 3 example, frozen
# from the independent Hom-dimension computation.  All other intervals
# give 0; note in particular 1..2:[2,3];[1,2] gives 0.
EXAMPLE_NONZERO = {
    "1..1:[2,2]": 1,
    "1..1:[2,3]": 1,
    "1..1:[3,3]": 1,
    "1..2:[2,2];[2,2]": 1,
    "1..2:[2,3];[1,3]": 1,
    "1..2:[2,3];[2,2]": 1,
    "1..2:[2,3];[2,3]": 1,
    "1..2:[3,3];[1,3]": 1,
    "1..2:[3,3];[2,3]": 1,
    "1..2:[3,3];[3,3]": 1,
    "2..2:[1,1]": 1,
    "2..2:[1,2]": 1,
    "2..2:[1,3]": 1,
    "2..2:[2,2]": 2,
    "2..2:[2,3]": 1,
    "2..2:[3,3]": 1,
}


class TestWorkedExample:
    def test_all_values(self):
        f = compressed_multiplicity_function(example_module())
        got = {I.to_string(): v for I, v in f.items() if v}
        assert got == EXAMPLE_NONZERO

    def test_single_interval_entry_point(self):
        m = example_module()
        f = compressed_multiplicity_function(m)
        table = path_map_table(m)
        for text, want in (("2..2:[2,2]", 2), ("1..2:[2,3];[1,2]", 0)):
            assert f[iv(text)] == block_multiplicity(table, iv(text)) == want


class TestAgainstHomOracle:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_modules(self, p):
        rng = make_rng(200 + p)
        for _ in range(6):
            m = random_module(4, 3, FieldSpec(p), rng)
            f = compressed_multiplicity_function(m)
            for I in enumerate_intervals(2, 4):
                assert f[I] == hom_multiplicity(m, I), I.to_string()

    def test_each_shape_covered(self):
        kinds = {classify_ss(I).kind for I in enumerate_intervals(2, 4)}
        assert kinds == {POINT, ARROW, TWO_SOURCES_ONE_SINK, ONE_SOURCE_TWO_SINKS, TWO_SOURCES_TWO_SINKS}


def assert_matches_block_forms(m):
    f = compressed_multiplicity_function(m)
    table = path_map_table(m)
    assert tuple(f) == enumerate_intervals(m.grid.m, m.grid.n)
    for I, value in f.items():
        assert value == block_multiplicity(table, I), I.to_string()


class TestAgainstBlockForms:
    """The grouped ranks against the per-interval block closed forms."""

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_random_modules(self, p):
        rng = make_rng(400 + p)
        for n in range(1, 8):
            for d in (0, 1, 2, 4):
                assert_matches_block_forms(random_module(n, d, FieldSpec(p), rng))

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_disguised_sums_with_mixed_dimensions(self, p):
        # height-1 grids have row-1 sinks only; sums leave some vertices at 0
        rng = make_rng(500 + p)
        for m in (1, 2):
            for n in range(1, 8):
                for k in (0, 3, 8):
                    module, _ = random_interval_decomposable(m, n, k, FieldSpec(p), rng)
                    assert_matches_block_forms(module)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_staircase_family(self, l):
        assert_matches_block_forms(staircase_family_module(l, FieldSpec(3)))

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_suffix_stacks_split_anywhere(self, batch, monkeypatch):
        rng = make_rng(600)
        modules = [random_module(5, 3, FieldSpec(p), rng) for p in (2, 3, 65521)]
        whole = [compressed_multiplicity_function(m) for m in modules]
        monkeypatch.setattr(ffmat, "_BATCH", batch)
        assert [compressed_multiplicity_function(m) for m in modules] == whole


def reduce_with_identity(images, p):
    """Pivot columns of images, and the reduced I block of [images | I]
    with its rows in pivot-column order: the L with L V = [I ; 0]."""
    d, w = images.shape
    stack = Stack([np.hstack([images, np.eye(d, dtype=np.int64)])], p)
    piv = stack.eliminate()[0, :w + d]
    return np.flatnonzero(piv[:w] >= 0).tolist(), FFMatrix(stack.reduced()[0][piv[piv >= 0], w:], p)


class TestCoordinateChange:
    """rank [x | V_c] = c + rank((L x)[c:]) for V the pivot columns of the
    images and L from one elimination of [images | I]."""

    @given(st.sampled_from([2, 3, 65521]), st.integers(0, 6), st.integers(0, 6),
           st.integers(0, 12), st.integers(0, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_suffix_rank_identity(self, p, d, rank, width, w, seed):
        rng = np.random.default_rng(seed)
        # low rank, so the pivot rows are not simply the first rows
        rank = min(rank, d, width)
        images = (rng.integers(0, p, size=(d, rank)) @ rng.integers(0, p, size=(rank, width))) % p
        x = FFMatrix(rng.integers(0, p, size=(d, w)), p)
        pivots, lmat = reduce_with_identity(images, p)
        assert lmat.shape == (d, d) and naive_rank(lmat.tolist(), p) == d
        assert len(pivots) == naive_rank(images.tolist(), p)
        v = FFMatrix(images[:, pivots], p)
        y = mat_mul(lmat, x).tolist()
        for c in range(len(pivots) + 1):
            lhs = naive_rank(hstack(x, FFMatrix(v.data[:, :c], p)).tolist(), p)
            assert lhs == c + naive_rank(y[c:], p)


def module_with_gaps(n, k, gaps, field, rng):
    """A disguised sum of k intervals, none of them meeting the vertices
    in gaps, so those vertices have dimension zero."""
    grid = Grid(2, n)
    allowed = [I for I in enumerate_intervals(2, n)
               if not any(I.s <= i <= I.t and span(I, i)[0] <= j <= span(I, i)[1] for i, j in gaps)]
    module = PersistenceModule(grid, field, {v: 0 for v in grid.vertices()})
    for _ in range(k):
        module = direct_sum(module, interval_module(grid, allowed[int(rng.integers(len(allowed)))], field))
    return conjugate(module, {v: random_invertible(module.dims[v], field, rng) for v in grid.vertices()})


class TestImageChain:
    """rect[t][b] = rank M((i, b) -> t), from one elimination of [f V | I]
    per sink, V the basis of the sink before it."""

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_rect_is_every_path_rank(self, p):
        rng = make_rng(700 + p)
        field = FieldSpec(p)
        modules = [random_module(6, d, field, rng) for d in (1, 3, 5)]
        # a zero space mid-row: its basis is 0 x 0 and the next X is all I
        modules += [module_with_gaps(6, 9, gaps, field, rng)
                    for gaps in ([(1, 3)], [(2, 4)], [(1, 2), (2, 2), (1, 5)], [(2, 1), (2, 6)])]
        for m in modules:
            table = path_map_table(m)
            rect = compression._GroupedRanks(m).rect
            for (i, j) in m.grid.vertices():
                want = [0] + [naive_rank(table[((i, b), (i, j))].tolist(), p) for b in range(1, j + 1)]
                assert rect[(i, j)] == want, (i, j)
        # the case of interest occurs: a zero space between nonzero ones on a row
        assert any(m.dims[(i, j)] == 0 and m.dims[(i, j - 1)] and m.dims[(i, j + 1)]
                   for m in modules for i in (1, 2) for j in range(2, 6))


class TestProfileRows:
    """The single formula reads rank A of s1 = (1, b1) off every profile
    row at b = b1: im W and im B lie in im M((2, b1) -> t2)."""

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_entry_at_b1_is_rank_a(self, p):
        rng = make_rng(1100 + p)
        field = FieldSpec(p)
        modules = [random_module(6, d, field, rng) for d in (0, 1, 3, 5)]
        modules += [module_with_gaps(6, 7, gaps, field, rng) for gaps in ([(1, 3)], [(2, 4)], [(1, 1), (2, 6)])]
        for m in modules:
            ranks = compression._GroupedRanks(m)
            for j in range(1, 7):
                t2 = (2, j)
                assert len(ranks.prof[t2]) == 7 - j
                for rows in ranks.prof[t2]:
                    assert [r[b1] for b1, r in enumerate(rows, 1)] == ranks.rect[t2][1:]


class TestSinkProfiles:
    """prof from one cumsum per sink equals the per-member profile loop."""

    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_against_per_member_loop(self, p, n):
        rng = make_rng(2700 + 10 * n + p % 7)
        field = FieldSpec(p)
        modules = [random_module(n, d, field, rng) for d in (0, 1, 3)]
        # zero spaces mid-row and at the ends of a row
        mid = (n + 1) // 2
        gaps = [[(1, mid)], [(2, mid)]] + ([[(1, 1), (2, n)], [(2, 1), (1, n)]] if n > 1 else [])
        modules += [module_with_gaps(n, 2 * n + 1, g, field, rng) for g in gaps]
        # disguised sums, their dimensions unequal
        modules += [random_interval_decomposable(2, n, k, field, rng)[0] for k in (n, 3 * n)]
        for m in modules:
            assert compression._GroupedRanks(m).prof == LoopedSinkRanks(m).prof
        assert any(len(set(m.dims.values())) > 1 for m in modules[-2:])


class TestArrowsOnly:
    """The grouped ranks multiply by single arrows: no path-map table."""

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_builds_no_path_map_table(self, p, monkeypatch):
        rng = make_rng(900 + p)
        field = FieldSpec(p)
        modules = [random_module(5, d, field, rng) for d in (0, 2, 4)]
        # zero spaces mid-row and at the ends of a row
        modules += [module_with_gaps(6, 8, gaps, field, rng)
                    for gaps in ([(1, 3)], [(2, 4)], [(1, 1), (2, 6)], [(2, 1), (1, 6)])]
        want = [{I: block_multiplicity(path_map_table(m), I) for I in enumerate_intervals(2, m.grid.n)}
                for m in modules]

        def refuse(module):
            raise AssertionError("compression built a path-map table")

        monkeypatch.setattr(grid, "path_map_table", refuse)
        monkeypatch.setattr(compression, "path_map_table", refuse)
        assert [compressed_multiplicity_function(m) for m in modules] == want


class TestEliminationCount:
    """One image elimination per grid column, then the profile members of
    every row-2 sink in shared stacks: the n - j + 1 members of the sink
    (2, j) have dim M_(1, j) columns, so equal dimensions share them all."""

    @pytest.mark.parametrize("n, d, want", [(12, 100, 12 + 2), (18, 10, 18 + 3)])
    def test_stacks_per_module(self, n, d, want, monkeypatch):
        module = random_module(n, d, GF2, make_rng(n))
        calls = []
        eliminate = Stack.eliminate
        monkeypatch.setattr(Stack, "eliminate", lambda stack: calls.append(stack) or eliminate(stack))
        compressed_multiplicity_function(module)
        assert len(calls) == want


class TestStructuralProperties:
    def test_indicator_on_interval_modules(self):
        # multiplicity of I in the module of J is 1 exactly when I <= J
        grid = Grid(2, 3)
        intervals = enumerate_intervals(2, 3)
        for J in intervals:
            f = compressed_multiplicity_function(interval_module(grid, J, FieldSpec(3)))
            for I in intervals:
                assert f[I] == (1 if leq(I, J) else 0)

    def test_additive_under_direct_sum(self):
        rng = make_rng(77)
        a = random_module(5, 2, GF2, rng)
        b = random_module(5, 3, GF2, rng)
        fa = compressed_multiplicity_function(a)
        fb = compressed_multiplicity_function(b)
        fs = compressed_multiplicity_function(direct_sum(a, b))
        assert all(fs[I] == fa[I] + fb[I] for I in fs)

    def test_counts_weakly_larger_intervals(self):
        # on a decomposable module the value at I is the number of
        # summands J with I <= J; zeta_act turns multiplicities into that
        rng = make_rng(31)
        for trial in range(10):
            m, mult = random_interval_decomposable(2, 4, 4, FieldSpec(3), rng)
            f = compressed_multiplicity_function(m)
            assert f == zeta_act(mult, 2, 4)

    def test_rectangles_match_rank_invariant(self):
        rng = make_rng(13)
        m = random_module(5, 3, FieldSpec(5), rng)
        ranks = rank_invariant(m)
        f = compressed_multiplicity_function(m)
        for I in enumerate_intervals(2, 5):
            if is_rectangle(I):
                shape = classify_ss(I)
                assert f[I] == ranks[(shape.s1, shape.t2)]

    def test_height_three_rejected(self):
        tall = PersistenceModule(Grid(3, 1), GF2, {(1, 1): 0, (2, 1): 0, (3, 1): 0})
        with pytest.raises(ValueError):
            compressed_multiplicity_function(tall)


class TestRestriction:
    def test_uses_path_maps(self):
        m = example_module()
        table = path_map_table(m)
        rep = restrict(m, [(1, 2), (2, 3)], [((1, 2), (2, 3))])
        assert rep.dims == (1, 1)
        assert rep.mats[0] == table[((1, 2), (2, 3))]
        assert rep.labels == ((1, 2), (2, 3))

    def test_duplicate_vertex_rejected(self):
        m = example_module()
        with pytest.raises(ValueError):
            restrict(m, [(1, 1), (1, 1)], [])

    def test_arrow_outside_vertex_set_rejected(self):
        m = example_module()
        with pytest.raises(ValueError):
            restrict(m, [(1, 1)], [((1, 1), (1, 2))])

    def test_decreasing_arrow_rejected(self):
        m = example_module()
        with pytest.raises(ValueError):
            restrict(m, [(1, 1), (1, 2)], [((1, 2), (1, 1))])

    def test_ss_restrict_orders_roles(self):
        m = example_module()
        I = iv("1..2:[2,3];[1,2]")
        rep = ss_restrict(m, I)
        assert rep.labels == ((1, 2), (2, 1), (1, 3), (2, 2))
        assert rep.dims == (1, 1, 1, 2)


class TestHomDim:
    def test_interval_rep_endomorphisms(self):
        for text in ["1..1:[1,1]", "1..1:[1,2]", "1..2:[1,2];[1,2]",
                     "1..2:[2,3];[1,3]", "1..2:[1,3];[1,2]", "1..2:[2,3];[1,2]"]:
            rep = ss_interval_rep(iv(text), 2)
            assert hom_dim(rep, rep) == 1

    def test_arrow_quiver_known_values(self):
        # reps of . -> . : the full rep surjects onto the simple at the
        # source and the simple at the sink embeds into it, never the
        # other way around
        p = 3
        one = FFMatrix.identity(1, p)
        full = QuiverRep(p, (1, 1), ((0, 1),), (one,))
        left = QuiverRep(p, (1, 0), ((0, 1),), (FFMatrix.zeros(0, 1, p),))
        right = QuiverRep(p, (0, 1), ((0, 1),), (FFMatrix.zeros(1, 0, p),))
        assert hom_dim(full, full) == 1
        assert hom_dim(full, left) == 1
        assert hom_dim(left, full) == 0
        assert hom_dim(right, left) == 0
        assert hom_dim(full, right) == 0
        assert hom_dim(right, full) == 1

    def test_quiver_mismatch_rejected(self):
        p = 2
        one = FFMatrix.identity(1, p)
        a = QuiverRep(p, (1, 1), ((0, 1),), (one,))
        b = QuiverRep(p, (1, 1), (), ())
        with pytest.raises(ShapeError):
            hom_dim(a, b)

    def test_modulus_mismatch_rejected(self):
        a = QuiverRep(2, (1,), (), ())
        b = QuiverRep(3, (1,), (), ())
        with pytest.raises(ShapeError):
            hom_dim(a, b)


class TestAlmostSplitFixtures:
    def test_shapes(self):
        I = iv("1..2:[2,3];[1,2]")
        B, C = almost_split_fixtures(I, 5)
        assert B.dims == (2, 1, 1, 1)
        assert C.dims == (1, 0, 0, 0)
        assert [m.tolist() for m in B.mats] == [[[1]], [[1, 0]], [[0, 1]]]

    def test_only_for_two_sources_two_sinks(self):
        with pytest.raises(ValueError):
            almost_split_fixtures(iv("1..1:[1,1]"), 2)

    def test_sequence_dimensions_balance(self):
        # middle term dims = interval dims + end term dims, vertexwise
        I = iv("1..2:[2,3];[1,2]")
        B, C = almost_split_fixtures(I, 2)
        Ip = ss_interval_rep(I, 2)
        assert B.dims == tuple(i + c for i, c in zip(Ip.dims, C.dims))

    def test_interval_maps_into_middle_term(self):
        # the inclusion plus the factoring of the corner give a
        # 2-dimensional hom space; nothing maps back onto the interval
        I = iv("1..2:[2,3];[1,2]")
        B, C = almost_split_fixtures(I, 2)
        Ip = ss_interval_rep(I, 2)
        assert hom_dim(Ip, B) == 2
        assert hom_dim(B, Ip) == 0
        assert hom_dim(C, Ip) == 0
