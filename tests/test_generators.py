"""Module generators: validity, determinism, advertised structure."""

from __future__ import annotations

import pytest

from gridpersist.approximation import interval_approximation
from gridpersist.compression import compressed_multiplicity_function
from gridpersist.ffmat import GF2, FieldSpec, random_invertible
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
    dimension_vector,
    format_dimvec,
    rank_invariant,
    validate,
)
from gridpersist.intervals import enumerate_intervals
from gridpersist.pmod import print_pmod
from oracles import contains_vertex, direct_sum, interval_module


class TestRandomModule:
    @pytest.mark.parametrize("p", [2, 13])
    def test_commutes(self, p):
        rng = make_rng(11)
        for n, d in [(1, 3), (2, 2), (4, 3), (6, 1), (3, 0)]:
            m = random_module(n, d, FieldSpec(p), rng)
            assert validate(m) is None
            assert all(v == d for v in m.dims.values())

    def test_reproducible_from_seed(self):
        a = random_module(5, 3, GF2, make_rng(123))
        b = random_module(5, 3, GF2, make_rng(123))
        assert a.hmaps == b.hmaps and a.vmaps == b.vmaps

    def test_different_seeds_differ(self):
        a = random_module(5, 3, GF2, make_rng(1))
        b = random_module(5, 3, GF2, make_rng(2))
        assert a.hmaps != b.hmaps or a.vmaps != b.vmaps

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_module(0, 1)
        with pytest.raises(ValueError):
            random_module(2, -1)


class TestRandomIntervalDecomposable:
    def test_multiplicities_sum_to_k(self):
        m, mult = random_interval_decomposable(2, 4, 7, GF2, make_rng(5))
        assert sum(mult.values()) == 7
        assert validate(m) is None

    def test_disguise_preserves_isomorphism_class(self):
        rng1 = make_rng(21)
        plain, mult1 = random_interval_decomposable(2, 3, 4, FieldSpec(5), rng1, disguise=False)
        rng2 = make_rng(21)
        hidden, mult2 = random_interval_decomposable(2, 3, 4, FieldSpec(5), rng2, disguise=True)
        assert mult1 == mult2
        assert rank_invariant(plain) == rank_invariant(hidden)
        assert compressed_multiplicity_function(plain) == compressed_multiplicity_function(hidden)

    def test_plain_sum_has_block_maps(self):
        m, mult = random_interval_decomposable(2, 3, 3, GF2, make_rng(9), disguise=False)
        assert dimension_vector(m) == {
            v: sum(c for I, c in mult.items() if contains_vertex(I, v)) for v in m.grid.vertices()
        }

    def test_zero_summands_give_zero_module(self):
        m, mult = random_interval_decomposable(2, 3, 0)
        assert all(d == 0 for d in m.dims.values())
        assert all(c == 0 for c in mult.values())
        assert not interval_approximation(m).coeffs

    @pytest.mark.parametrize("p", [2, 3, 5, 65521])
    @pytest.mark.parametrize("disguise", [False, True])
    def test_equals_fold_of_direct_sums(self, p, disguise):
        # the same picks and bases as the generator, from the same stream
        field = FieldSpec(p)
        for m, n, k in [(1, 4, 0), (2, 3, 6), (3, 3, 10), (2, 6, 40), (1, 1, 3)]:
            module, mult = random_interval_decomposable(m, n, k, field, make_rng(k + p), disguise)
            rng = make_rng(k + p)
            grid, intervals = Grid(m, n), enumerate_intervals(m, n)
            folded = PersistenceModule(grid, field, {v: 0 for v in grid.vertices()})
            for _ in range(k):
                I = intervals[int(rng.integers(0, len(intervals)))]
                folded = direct_sum(folded, interval_module(grid, I, field))
            if disguise:
                folded = conjugate(folded, {v: random_invertible(folded.dims[v], field, rng)
                                            for v in grid.vertices()})
            assert print_pmod(module) == print_pmod(folded)
            assert module.hmaps == folded.hmaps and module.vmaps == folded.vmaps
            assert sum(mult.values()) == k

    def test_negative_summands_rejected(self):
        with pytest.raises(ValueError):
            random_interval_decomposable(2, 3, -1)


class TestStaircaseFamily:
    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_dimensions_and_commutativity(self, l):
        m = staircase_family_module(l)
        assert validate(m) is None
        assert format_dimvec(dimension_vector(m), 2, 5) == (
            f"({l} {2 * l} {2 * l} {l} 0 / 0 {l} {2 * l} {2 * l} {l})"
        )
        assert sum(m.dims.values()) == 12 * l

    def test_other_field(self):
        m = staircase_family_module(2, FieldSpec(7))
        assert validate(m) is None

    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            staircase_family_module(0)


class TestExampleModule:
    def test_shape(self):
        m = example_module()
        assert validate(m) is None
        assert format_dimvec(dimension_vector(m), 2, 3) == "(1 2 1 / 0 1 1)"

    def test_other_field(self):
        m = example_module(FieldSpec(3))
        assert validate(m) is None
        assert m.field.p == 3
