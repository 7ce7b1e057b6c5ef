"""Signed interval approximation: exactness, invariants, witnesses."""

from __future__ import annotations

import pytest

from gridpersist.approximation import (
    SignedIntervalSum,
    dimvec_of_sum,
    interval_approximation,
    l1_norm,
    negative_part,
    positive_part,
    rank_of_sum,
    signed_rank_invariant,
)
from gridpersist.compression import compressed_multiplicity_function
from gridpersist.ffmat import GF2, FieldSpec
from gridpersist.generators import (
    example_module,
    make_rng,
    random_interval_decomposable,
    random_module,
    staircase_family_module,
)
from gridpersist.grid import (
    Grid,
    dimension_vector,
    format_dimvec,
    rank_invariant,
)
from gridpersist.intervals import Interval, enumerate_intervals, interval_contains_rectangle
from gridpersist.mobius import mobius_invert
from oracles import direct_sum, interval_module

iv = Interval.from_string

# Approximation of the worked 2 x 3 example, frozen: three intervals
# with coefficient +1 and one with coefficient -1.
EXAMPLE_COEFFS = {
    "1..2:[2,3];[1,2]": -1,
    "1..2:[2,3];[1,3]": 1,
    "1..2:[2,3];[2,2]": 1,
    "2..2:[1,2]": 1,
}


class TestWorkedExample:
    def test_coefficients(self):
        approx = interval_approximation(example_module())
        assert {I.to_string(): c for I, c in approx.coeffs.items()} == EXAMPLE_COEFFS

    def test_parts(self):
        approx = interval_approximation(example_module())
        assert positive_part(approx) == {
            iv("1..2:[2,3];[1,3]"): 1,
            iv("1..2:[2,3];[2,2]"): 1,
            iv("2..2:[1,2]"): 1,
        }
        assert negative_part(approx) == {iv("1..2:[2,3];[1,2]"): 1}

    def test_l1_norm(self):
        approx = interval_approximation(example_module())
        assert l1_norm(approx.coeffs) == 4

    def test_dimension_vector_matches(self):
        m = example_module()
        approx = interval_approximation(m)
        assert dimvec_of_sum(approx) == dimension_vector(m)
        assert format_dimvec(dimvec_of_sum(approx), 2, 3) == "(1 2 1 / 0 1 1)"


class TestSignedIntervalSum:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            SignedIntervalSum(2, 3, {iv("1..1:[1,1]"): 0})

    def test_empty_sum(self):
        s = SignedIntervalSum(2, 3)
        assert dimvec_of_sum(s) == {v: 0 for v in Grid(2, 3).vertices()}
        assert l1_norm(s.coeffs) == 0


class TestRankPreservation:
    @pytest.mark.parametrize("p", [2, 3])
    def test_random_modules(self, p):
        rng = make_rng(500 + p)
        for _ in range(8):
            m = random_module(5, 3, FieldSpec(p), rng)
            approx = interval_approximation(m)
            ranks = rank_invariant(m)
            for (src, dst), r in ranks.items():
                assert rank_of_sum(approx, src, dst) == r
            assert dimvec_of_sum(approx) == dimension_vector(m)


class TestExactOnDecomposables:
    def test_recovers_multiplicities(self):
        rng = make_rng(99)
        for _ in range(10):
            m, mult = random_interval_decomposable(2, 4, 5, FieldSpec(3), rng)
            approx = interval_approximation(m)
            assert approx.coeffs == {I: c for I, c in mult.items() if c}
            assert not negative_part(approx)

    def test_single_interval_module(self):
        grid = Grid(2, 4)
        for text in ["1..1:[2,3]", "1..2:[2,3];[1,2]", "2..2:[1,4]"]:
            m = interval_module(grid, iv(text), GF2)
            approx = interval_approximation(m)
            assert approx.coeffs == {iv(text): 1}

    def test_mobius_invert_of_compressed_function(self):
        m = example_module()
        f = compressed_multiplicity_function(m)
        g = mobius_invert(f, 2, 3)
        approx = interval_approximation(m)
        assert {I: c for I, c in g.items() if c} == approx.coeffs


class TestNonnegativityIsNotCertificate:
    def test_direct_sum_hides_negative_part(self):
        # M has a -1 coefficient; adding a disjoint interval summand
        # with a bigger coefficient makes every coefficient nonnegative
        # without making the module interval-decomposable
        m = example_module()
        neg_interval = iv("1..2:[2,3];[1,2]")
        patched = direct_sum(m, interval_module(m.grid, neg_interval, GF2))
        approx = interval_approximation(patched)
        assert all(c > 0 for c in approx.coeffs.values())
        # yet the original approximation is signed, so patched is not a
        # sum of intervals matching its own approximation minus the patch
        original = interval_approximation(m)
        assert negative_part(original) == {neg_interval: 1}

    def test_patched_module_keeps_rank_invariant(self):
        m = example_module()
        neg_interval = iv("1..2:[2,3];[1,2]")
        patched = direct_sum(m, interval_module(m.grid, neg_interval, GF2))
        approx = interval_approximation(patched)
        ranks = rank_invariant(patched)
        for (src, dst), r in ranks.items():
            assert rank_of_sum(approx, src, dst) == r


class TestStaircaseFamily:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_negative_mass_grows(self, l):
        m = staircase_family_module(l)
        approx = interval_approximation(m)
        assert sum(negative_part(approx).values()) >= l

    def test_l1_norm_lower_bound(self):
        for l in (1, 2, 3):
            approx = interval_approximation(staircase_family_module(l))
            assert l1_norm(approx.coeffs) >= l


class TestRankOfSum:
    def test_incomparable_pair_rejected(self):
        s = SignedIntervalSum(2, 3, {iv("1..1:[1,1]"): 1})
        with pytest.raises(ValueError):
            rank_of_sum(s, (2, 1), (1, 2))

    def test_counts_containing_intervals(self):
        s = SignedIntervalSum(2, 3, {iv("1..2:[2,3];[1,3]"): 2, iv("2..2:[1,2]"): -1})
        assert rank_of_sum(s, (2, 1), (2, 2)) == 1
        assert rank_of_sum(s, (1, 2), (2, 3)) == 2
        assert rank_of_sum(s, (1, 1), (1, 1)) == 0


def random_signed_sum(m, n, terms, rng, big=1):
    """A formal sum of up to `terms` random intervals of the m x n grid,
    coefficients drawn from +-1..3 and scaled by big."""
    intervals = enumerate_intervals(m, n)
    coeffs = {}
    for _ in range(terms):
        I = intervals[int(rng.integers(len(intervals)))]
        coeffs[I] = int(rng.choice([-3, -2, -1, 1, 2, 3])) * big
    return SignedIntervalSum(m, n, coeffs)


class TestSignedRankInvariant:
    """signed_rank_invariant is rank_of_sum at every pair, from one product."""

    @staticmethod
    def per_pair(s):
        return {(src, dst): rank_of_sum(s, src, dst) for src, dst in Grid(s.m, s.n).comparable_pairs()}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_sums(self, m):
        # on 3 x n a rectangle spans a middle row the pair does not touch
        rng = make_rng(2700 + m)
        for n in (1, 2, 4, 7):
            for terms in (1, 5, 20):
                s = random_signed_sum(m, n, terms, rng)
                got = signed_rank_invariant(s)
                assert list(got.items()) == list(self.per_pair(s).items())

    def test_empty_sum(self):
        s = SignedIntervalSum(2, 3)
        assert signed_rank_invariant(s) == dict.fromkeys(Grid(2, 3).comparable_pairs(), 0)

    def test_beyond_int64_stays_exact(self):
        s = random_signed_sum(2, 4, 12, make_rng(2710), big=2**70)
        got = signed_rank_invariant(s)
        assert got == self.per_pair(s)
        assert all(type(r) is int for r in got.values())
        assert max(map(abs, got.values())) >= 2**70

    def test_equals_rank_invariant_in_its_order(self):
        m = random_module(4, 2, FieldSpec(3), make_rng(2720))
        got = signed_rank_invariant(interval_approximation(m))
        assert list(got.items()) == list(rank_invariant(m).items())


class TestContainmentIsConvexity:
    """An interval holds the rectangle of src <= dst exactly when it holds
    src and dst, which is what lets signed_rank_invariant read membership."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_interval_and_pair(self, m, n):
        pairs = list(Grid(m, n).comparable_pairs())
        for I in enumerate_intervals(m, n):
            vs = I.vertices()
            for src, dst in pairs:
                assert interval_contains_rectangle(I, src, dst) == (src in vs and dst in vs), (I, src, dst)
