"""Moebius function and inversion on the interval poset."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from gridpersist import mobius
from gridpersist.intervals import Interval, enumerate_intervals
from gridpersist.mobius import mobius_invert
from oracles import (
    brute_force_mobius,
    cover_subset_joins,
    cover_sum_inversion,
    covers,
    join_covers,
    leq,
    mu_prime,
    zeta_act,
)

iv = Interval.from_string


class TestMuPrime:
    def test_reflexive(self):
        for I in enumerate_intervals(2, 3):
            assert mu_prime(I, I, 2, 3) == 1

    def test_cover_is_minus_one(self):
        for I in enumerate_intervals(2, 3):
            for J in covers(I, 2, 3):
                assert mu_prime(I, J, 2, 3) == -1

    def test_incomparable_is_zero(self):
        assert mu_prime(iv("1..2:[2,3];[1,2]"), iv("1..1:[1,1]"), 2, 4) == 0

    def test_above_but_unreachable_is_zero(self):
        # far above I, not a join of covers: mu vanishes
        I = iv("1..2:[2,3];[1,2]")
        J = iv("1..2:[1,4];[1,4]")
        assert leq(I, J)
        assert mu_prime(I, J, 2, 4) == 0

    def test_worked_segment(self):
        # the three covers contribute -1 each, the three pairwise joins
        # +1 each, and the full join of all three covers -1
        I = iv("1..2:[2,3];[1,2]")
        cs = covers(I, 2, 4)
        assert {c.to_string() for c in cs} == {
            "1..2:[1,3];[1,2]",
            "1..2:[2,3];[1,3]",
            "1..2:[2,4];[1,2]",
        }
        pair_joins = {
            ("1..2:[1,3];[1,2]", "1..2:[2,3];[1,3]"): "1..2:[1,3];[1,3]",
            ("1..2:[1,3];[1,2]", "1..2:[2,4];[1,2]"): "1..2:[1,4];[1,2]",
            ("1..2:[2,3];[1,3]", "1..2:[2,4];[1,2]"): "1..2:[2,4];[1,3]",
        }
        for (a, b), j in pair_joins.items():
            assert join_covers(I, [iv(a), iv(b)], 2, 4) == iv(j)
            assert mu_prime(I, iv(j), 2, 4) == 1
        assert join_covers(I, cs, 2, 4) == iv("1..2:[1,4];[1,3]")
        assert mu_prime(I, iv("1..2:[1,4];[1,3]"), 2, 4) == -1

    @pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (2, 4), (3, 3)])
    def test_matches_recursive_definition(self, m, n):
        table = brute_force_mobius(m, n)
        intervals = enumerate_intervals(m, n)
        for I in intervals:
            for J in intervals:
                assert mu_prime(I, J, m, n) == table.get((I, J), 0)

    def test_rows_sum_to_zero(self):
        # sum of mu over a nontrivial closed segment vanishes
        intervals = enumerate_intervals(2, 4)
        for I in intervals:
            for J in intervals:
                if I == J or not leq(I, J):
                    continue
                seg = [K for K in intervals if leq(I, K) and leq(K, J)]
                assert sum(mu_prime(I, K, 2, 4) for K in seg) == 0


class TestInversion:
    def _random_function(self, rng, m, n):
        return {I: rng.randint(-5, 5) for I in enumerate_intervals(m, n)}

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (2, 4)])
    def test_round_trip_both_ways(self, m, n):
        rng = random.Random(42)
        for _ in range(50):
            g = self._random_function(rng, m, n)
            assert mobius_invert(zeta_act(g, m, n), m, n) == g
            f = self._random_function(rng, m, n)
            assert zeta_act(mobius_invert(f, m, n), m, n) == f

    def test_zeta_sums_upward(self):
        g = {I: 0 for I in enumerate_intervals(2, 3)}
        J = iv("1..2:[2,3];[1,2]")
        g[J] = 1
        f = zeta_act(g, 2, 3)
        for I in f:
            assert f[I] == (1 if leq(I, J) else 0)

    def test_inversion_of_indicator(self):
        # f = indicator of the down-set of J inverts to the delta at J
        J = iv("1..2:[2,3];[1,2]")
        f = {I: (1 if leq(I, J) else 0) for I in enumerate_intervals(2, 3)}
        g = mobius_invert(f, 2, 3)
        assert g == {I: (1 if I == J else 0) for I in enumerate_intervals(2, 3)}

    def test_missing_keys_rejected(self):
        with pytest.raises(KeyError):
            mobius_invert({iv("1..1:[1,1]"): 1}, 2, 3)

    def test_inversion_is_linear(self):
        rng = random.Random(7)
        a = self._random_function(rng, 2, 3)
        b = self._random_function(rng, 2, 3)
        summed = {I: a[I] + b[I] for I in a}
        ga, gb = mobius_invert(a, 2, 3), mobius_invert(b, 2, 3)
        assert mobius_invert(summed, 2, 3) == {I: ga[I] + gb[I] for I in ga}


class TestBruteForce:
    def test_small_grid_values(self):
        table = brute_force_mobius(1, 3)
        one = iv("1..1:[1,1]")
        two = iv("1..1:[1,2]")
        three = iv("1..1:[1,3]")
        assert table[(one, one)] == 1
        assert table[(one, two)] == -1
        # [1,1] has covers [1,2] alone among supersets of size 2 starting
        # at column 1, and the segment up to [1,3] telescopes to zero
        assert table[(one, three)] == 0

    def test_size_gate(self):
        with pytest.raises(ValueError):
            brute_force_mobius(3, 9)


SMALL_GRIDS = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


class TestOperator:
    # 16 x 2 is the tallest grid here, walked through cover_subset_joins
    @pytest.mark.parametrize("m,n", SMALL_GRIDS + [(2, 12), (2, 18), (3, 5), (16, 2)])
    def test_equals_cover_sum_definition(self, m, n):
        # values near +-2^40 make any float rounding or int32 wrap visible
        rng = random.Random(1000 * m + n)
        f = {I: rng.choice((-1, 1)) * (2**40 + rng.randint(-2**20, 2**20))
             for I in enumerate_intervals(m, n)}
        g = mobius_invert(f, m, n)
        assert g == cover_sum_inversion(f, m, n)
        assert all(type(v) is int for v in g.values())

    # 16 max|f| on each side of the int8, int16, int32 and int64 bounds, and far past them
    @pytest.mark.parametrize("top", [0, 7, 8, 2**11 - 1, 2**11, 2**27 - 1, 2**27,
                                     2**59 - 1, 2**59, 2**70])
    @pytest.mark.parametrize("m,n", [(1, 9), (2, 1), (2, 6), (2, 12), (3, 4)])
    def test_exact_at_the_dtype_edges(self, m, n, top):
        # every value +-max|f|, the largest partial differences the bound allows
        rng = random.Random(top + 100 * m + n)
        f = {I: rng.choice((-top, top)) for I in enumerate_intervals(m, n)}
        g = mobius_invert(f, m, n)
        assert g == cover_sum_inversion(f, m, n)
        assert all(type(v) is int for v in g.values())

    # 2 x 12 and 2 x 18 are the widths the benchmark inverts on
    @pytest.mark.parametrize("m,n", SMALL_GRIDS + [(2, 12), (2, 18), (3, 5), (16, 2)])
    def test_entries_equal_the_cover_walk(self, m, n):
        # unlike the inversion test, a wrong join fails here even where the signs cancel
        intervals = enumerate_intervals(m, n)
        want = Counter((I, join, (-1) ** size)
                       for I in intervals for size, join in cover_subset_joins(I, m, n))
        assert Counter((I, join, s) for I in intervals
                       for s, join in mobius.cover_subset_joins(I, m, n)) == want

    @pytest.mark.parametrize("text", ["1..1:[1,4]", "3..3:[1,1]", "1..2:[3,4];[1,3]"])
    def test_interval_outside_the_grid_rejected(self, text):
        I = iv(text)
        with pytest.raises(ValueError, match="does not fit in a 2 x 3 grid"):
            mu_prime(I, I, 2, 3)
        with pytest.raises(ValueError, match="does not fit in a 2 x 3 grid"):
            next(mobius.cover_subset_joins(I, 2, 3))

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    def test_exact_beyond_int64(self, m, n):
        rng = random.Random(5)
        f = {I: rng.randint(-2**70, 2**70) for I in enumerate_intervals(m, n)}
        assert mobius_invert(f, m, n) == cover_sum_inversion(f, m, n)

    def test_one_by_one_grid_has_no_covers(self):
        assert list(mobius.cover_subset_joins(iv("1..1:[1,1]"), 1, 1)) == []
        assert mobius_invert({iv("1..1:[1,1]"): 7}, 1, 1) == {iv("1..1:[1,1]"): 7}
