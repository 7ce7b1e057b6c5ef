"""Persistence module data model: validation, path maps, invariants."""

from __future__ import annotations

import numpy as np
import pytest

from gridpersist.ffmat import GF2, FFMatrix, FieldSpec, ShapeError, mat_mul, random_invertible
from gridpersist.generators import example_module, make_rng, random_module
from gridpersist.grid import (
    Grid,
    PersistenceModule,
    conjugate,
    dimension_vector,
    format_dimvec,
    path_map_table,
    rank_invariant,
    validate,
)
from gridpersist.intervals import Interval, enumerate_intervals
from oracles import contains_vertex, direct_sum, interval_module, naive_mul


def two_by_two(p=2, **maps):
    """A 2 x 2 module with one-dimensional spaces and given arrow entries."""
    entries = {"h1": 1, "h2": 1, "v1": 1, "v2": 1}
    entries.update(maps)
    dims = {v: 1 for v in Grid(2, 2).vertices()}
    return PersistenceModule(
        Grid(2, 2), FieldSpec(p), dims,
        hmaps={(1, 1): FFMatrix([[entries["h1"]]], p), (2, 1): FFMatrix([[entries["h2"]]], p)},
        vmaps={(1, 1): FFMatrix([[entries["v1"]]], p), (1, 2): FFMatrix([[entries["v2"]]], p)},
    )


class TestConstruction:
    def test_missing_dimension_rejected(self):
        with pytest.raises(ShapeError):
            PersistenceModule(Grid(1, 2), GF2, {(1, 1): 1})

    def test_wrong_shape_rejected(self):
        dims = {(1, 1): 2, (1, 2): 1}
        with pytest.raises(ShapeError):
            PersistenceModule(Grid(1, 2), GF2, dims, hmaps={(1, 1): FFMatrix([[1]], 2)})

    def test_zero_dim_arrows_filled(self):
        m = PersistenceModule(Grid(1, 3), GF2, {(1, 1): 0, (1, 2): 2, (1, 3): 0})
        assert m.hmaps[(1, 1)].shape == (2, 0)
        assert m.hmaps[(1, 2)].shape == (0, 2)

    def test_stray_arrow_rejected(self):
        with pytest.raises(ShapeError):
            PersistenceModule(Grid(1, 2), GF2, {(1, 1): 1, (1, 2): 1},
                              hmaps={(1, 2): FFMatrix([[1]], 2)})

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            PersistenceModule(Grid(1, 2), FieldSpec(3), {(1, 1): 1, (1, 2): 1},
                              hmaps={(1, 1): FFMatrix([[1]], 2)})


class TestValidate:
    def test_commuting_passes(self):
        assert validate(two_by_two()) is None
        assert validate(example_module()) is None

    def test_violation_reports_square(self):
        # right-then-up is 1, up-then-right is 0
        bad = two_by_two(h2=0)
        assert validate(bad) == (1, 1)

    def test_first_violation_row_major(self):
        rng = make_rng(4)
        m = random_module(4, 2, GF2, rng)
        broken = PersistenceModule(
            m.grid, m.field, m.dims,
            hmaps={**m.hmaps, (2, 3): FFMatrix((m.hmaps[(2, 3)].data + np.eye(2, dtype=np.int64)) % 2, 2)},
            vmaps=m.vmaps,
        )
        result = validate(broken)
        assert result == (1, 3) or result is None  # perturbation may cancel over GF(2)

    def test_zero_dimensional_squares_commute(self):
        m = PersistenceModule(Grid(2, 2), GF2, {(1, 1): 0, (1, 2): 0, (2, 1): 3, (2, 2): 3},
                              hmaps={(2, 1): FFMatrix.identity(3, 2)})
        assert validate(m) is None


class TestPathMaps:
    def test_identity_on_diagonal(self):
        m = example_module()
        table = path_map_table(m)
        for v in m.grid.vertices():
            assert table[(v, v)] == FFMatrix.identity(m.dims[v], 2)

    def test_path_independence_on_example(self):
        m = example_module()
        table = path_map_table(m)
        up_then_right = mat_mul(m.hmaps[(2, 2)], m.vmaps[(1, 2)])
        right_then_up = mat_mul(m.vmaps[(1, 3)], m.hmaps[(1, 2)])
        assert table[((1, 2), (2, 3))] == up_then_right == right_then_up
        assert table[((1, 2), (2, 3))].tolist() == [[1]]

    def test_matches_naive_composition(self):
        rng = make_rng(8)
        m = random_module(4, 3, FieldSpec(5), rng)
        table = path_map_table(m)
        for (src, dst), mat in table.items():
            # compose naively along the lower-right staircase path
            cur = [[1 if r == c else 0 for c in range(m.dims[src])] for r in range(m.dims[src])]
            v = src
            while v[1] < dst[1]:
                step = m.hmaps[v].tolist()
                cur = naive_mul(step, cur, 5, bcols=m.dims[src])
                v = (v[0], v[1] + 1)
            while v[0] < dst[0]:
                step = m.vmaps[v].tolist()
                cur = naive_mul(step, cur, 5, bcols=m.dims[src])
                v = (v[0] + 1, v[1])
            assert mat.tolist() == cur or m.dims[src] == 0

    def test_covers_exactly_comparable_pairs(self):
        m = random_module(3, 1, GF2, make_rng(1))
        table = path_map_table(m)
        assert set(table) == set(m.grid.comparable_pairs())


class TestRankInvariant:
    def test_interval_module_ranks_are_indicators(self):
        grid = Grid(2, 4)
        for I in enumerate_intervals(2, 4):
            m = interval_module(grid, I, GF2)
            ranks = rank_invariant(m)
            for (src, dst), r in ranks.items():
                from gridpersist.intervals import interval_contains_rectangle
                assert r == (1 if interval_contains_rectangle(I, src, dst) else 0)

    def test_additive_under_direct_sum(self):
        rng = make_rng(3)
        a = random_module(3, 2, GF2, rng)
        b = random_module(3, 3, GF2, rng)
        ra, rb, rs = rank_invariant(a), rank_invariant(b), rank_invariant(direct_sum(a, b))
        assert all(rs[k] == ra[k] + rb[k] for k in rs)


class TestDirectSumAndConjugation:
    def test_direct_sum_dims(self):
        a = example_module()
        s = direct_sum(a, a)
        assert dimension_vector(s) == {v: 2 * d for v, d in a.dims.items()}
        assert validate(s) is None

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            direct_sum(example_module(), random_module(4, 1, GF2, make_rng(0)))

    def test_conjugation_preserves_ranks(self):
        rng = make_rng(9)
        m = random_module(4, 3, FieldSpec(3), rng)
        bases = {v: random_invertible(m.dims[v], m.field, rng) for v in m.grid.vertices()}
        c = conjugate(m, bases)
        assert validate(c) is None
        assert rank_invariant(c) == rank_invariant(m)

    def test_singular_basis_rejected(self):
        m = example_module()
        with pytest.raises(ShapeError):
            conjugate(m, {(2, 2): FFMatrix.zeros(2, 2, 2)})


class TestIntervalModule:
    def test_dims_are_indicator(self):
        grid = Grid(2, 3)
        I = Interval(1, 2, ((2, 3), (1, 2)))
        m = interval_module(grid, I, GF2)
        assert validate(m) is None
        assert dimension_vector(m) == {v: (1 if contains_vertex(I, v) else 0) for v in grid.vertices()}

    def test_internal_arrows_are_identities(self):
        grid = Grid(2, 3)
        I = Interval(1, 2, ((2, 3), (1, 2)))
        m = interval_module(grid, I, GF2)
        table = path_map_table(m)
        assert table[((1, 2), (2, 2))].tolist() == [[1]]
        assert table[((2, 1), (2, 2))].tolist() == [[1]]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            interval_module(Grid(2, 2), Interval(1, 1, ((1, 3),)), GF2)


class TestFormatting:
    def test_dimvec_rows_top_down(self):
        m = example_module()
        assert format_dimvec(dimension_vector(m), 2, 3) == "(1 2 1 / 0 1 1)"
