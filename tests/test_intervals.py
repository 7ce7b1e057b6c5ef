"""Interval poset: staircases, covers, joins, meets, essential vertices."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from gridpersist.intervals import Interval, count_intervals, enumerate_intervals, interval_contains_rectangle
from oracles import (
    NoJoinError,
    brute_covers,
    cc_essential,
    convex_closure,
    covers,
    fits,
    from_vertices,
    intersection_components,
    is_rectangle,
    join_covers,
    leq,
    meet_over,
    rectangle_from,
    span,
    ss_essential,
    subset_interval_count,
    upper_set,
    vertex_count,
)


def iv(text: str) -> Interval:
    return Interval.from_string(text)


class TestIntervalType:
    def test_valid_staircase(self):
        I = Interval(1, 2, ((2, 3), (1, 2)))
        assert span(I, 1) == (2, 3) and span(I, 2) == (1, 2)
        with pytest.raises(KeyError):
            span(I, 3)
        assert vertex_count(I) == 4

    def test_staircase_violations_rejected(self):
        # upper row must reach weakly left and end weakly left
        with pytest.raises(ValueError):
            Interval(1, 2, ((1, 2), (3, 3)))    # no overlap
        with pytest.raises(ValueError):
            Interval(1, 2, ((1, 2), (1, 3)))    # upper row ends right of lower
        with pytest.raises(ValueError):
            Interval(1, 2, ((1, 2), (2, 2), (1, 1)))  # wrong row count
        with pytest.raises(ValueError):
            Interval(1, 1, ((3, 2),))
        with pytest.raises(ValueError):
            Interval(2, 1, ())

    def test_string_round_trip(self):
        for text in ["1..2:[2,3];[1,2]", "1..1:[4,4]", "2..3:[5,7];[2,5]"]:
            assert iv(text).to_string() == text
        with pytest.raises(ValueError):
            iv("1..2:[2,3]")
        with pytest.raises(ValueError):
            iv("nonsense")
        for I in enumerate_intervals(2, 6) + enumerate_intervals(3, 4):
            assert iv(I.to_string()) == I

    @pytest.mark.parametrize("text", [
        "1..1:[1,2];",                     # trailing separator
        "1..2:[2,3][1,2]",                 # no separator
        "\u0661..\u0661:[1,1]",            # Arabic-Indic digits
        " 1..1:[1,1]",                     # surrounding space
    ])
    def test_from_string_accepts_only_what_to_string_writes(self, text):
        with pytest.raises(ValueError, match="malformed interval string"):
            iv(text)

    def test_from_vertices_round_trip(self):
        for I in enumerate_intervals(2, 4):
            assert from_vertices(I.vertices()) == I

    def test_from_vertices_rejects_non_intervals(self):
        with pytest.raises(ValueError):
            from_vertices({(1, 1), (1, 3)})          # gap in a row
        with pytest.raises(ValueError):
            from_vertices({(1, 1), (3, 1)})          # missing row
        with pytest.raises(ValueError):
            from_vertices({(1, 2), (2, 1)})          # not convex-closed

    def test_rectangles(self):
        R = rectangle_from((1, 2), (2, 3))
        assert R == iv("1..2:[2,3];[2,3]") and is_rectangle(R)
        assert vertex_count(rectangle_from((2, 2), (2, 2))) == 1
        with pytest.raises(ValueError):
            rectangle_from((2, 2), (1, 3))


    def test_order_equality_and_hash_follow_the_field_tuple(self):
        intervals = enumerate_intervals(2, 4) + enumerate_intervals(3, 3)
        key = {I: (I.s, I.t, I.rows) for I in intervals}
        for I, J in itertools.product(intervals, repeat=2):
            assert (I < J) == (key[I] < key[J])
            assert (I == J) == (key[I] == key[J])
        for I in intervals:
            twin = Interval(I.s, I.t, I.rows)
            assert hash(I) == hash(twin) == hash(key[I])

    def test_pickle_and_deepcopy_keep_type_and_value(self):
        for I in enumerate_intervals(2, 3):
            for twin in (pickle.loads(pickle.dumps(I)), copy.deepcopy(I)):
                assert type(twin) is Interval and twin == I and twin.to_string() == I.to_string()

    def test_replace_and_make_validate(self):
        I = Interval(1, 2, ((2, 3), (1, 2)))
        assert I._replace(rows=((2, 3), (2, 3))) == Interval(1, 2, ((2, 3), (2, 3)))
        with pytest.raises(ValueError, match="violate the staircase condition"):
            I._replace(rows=((1, 2), (1, 3)))
        with pytest.raises(ValueError, match="expected 1 row spans, got 2"):
            I._replace(s=2)
        with pytest.raises(ValueError, match="bad row range 2..1"):
            Interval._make((2, 1, ()))
        with pytest.raises(ValueError, match=r"bad column span \[3,2\]"):
            Interval._make((1, 1, ((3, 2),)))
        assert repr(I) == "Interval(s=1, t=2, rows=((2, 3), (1, 2)))"


class TestEnumeration:
    def test_closed_form_count_2xn(self):
        for n in range(1, 9):
            expect = n * (n + 1) * (n * n + 5 * n + 30) // 24
            assert len(enumerate_intervals(2, n)) == expect

    def test_count_matches_subset_enumeration(self):
        for m, n in [(1, 4), (2, 2), (2, 3), (3, 3)]:
            assert len(enumerate_intervals(m, n)) == subset_interval_count(m, n)

    def test_row_by_row_count_matches_enumeration(self):
        for m in range(1, 31):
            for n in range(1, 30 // m + 1):
                assert count_intervals(m, n) == len(enumerate_intervals(m, n)), (m, n)

    def test_row_by_row_count_closed_forms(self):
        # one row: n (n + 1) / 2 spans; one column: m (m + 1) / 2 row ranges
        assert count_intervals(1, 40) == count_intervals(40, 1) == 820
        assert count_intervals(2, 40) == 40 * 41 * (40 * 40 + 5 * 40 + 30) // 24

    def test_row_by_row_count_rejects_empty_grids(self):
        for m, n in [(0, 3), (3, 0), (-1, 2)]:
            with pytest.raises(ValueError, match="positive"):
                count_intervals(m, n)

    def test_single_row_grid(self):
        assert len(enumerate_intervals(1, 3)) == 6
        assert all(I.s == I.t == 1 for I in enumerate_intervals(1, 5))

    def test_canonical_order_and_uniqueness(self):
        for m, n in [(2, 5), (1, 6), (3, 4), (4, 3), (6, 2), (2, 12)]:
            intervals = enumerate_intervals(m, n)
            assert list(intervals) == sorted(intervals)
            assert len(set(intervals)) == len(intervals)

    def test_all_fit(self):
        assert all(fits(I, 2, 4) for I in enumerate_intervals(2, 4))


class TestOrder:
    def test_leq_is_vertex_containment(self):
        intervals = enumerate_intervals(2, 3)
        for I, J in itertools.product(intervals, repeat=2):
            assert leq(I, J) == (I.vertices() <= J.vertices())

    def test_upper_set(self):
        I = iv("1..1:[2,2]")
        ups = upper_set(I, 2, 2)
        assert all(leq(I, J) for J in ups)
        assert iv("1..2:[2,2];[1,2]") in ups

    def test_rectangle_containment(self):
        I = iv("1..2:[2,3];[1,2]")
        assert interval_contains_rectangle(I, (1, 2), (1, 3))
        assert interval_contains_rectangle(I, (1, 2), (2, 2))
        assert not interval_contains_rectangle(I, (1, 1), (1, 2))
        assert not interval_contains_rectangle(I, (1, 2), (2, 3))

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3)])
    def test_rectangle_containment_equals_leq(self, m, n):
        vertices = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        pairs = [(a, b) for a in vertices for b in vertices if a[0] <= b[0] and a[1] <= b[1]]
        for I in enumerate_intervals(m, n):
            for src, dst in pairs:
                expect = leq(rectangle_from(src, dst), I)
                assert interval_contains_rectangle(I, src, dst) == expect, (I, src, dst)

    def test_rectangle_containment_needs_comparable_pair(self):
        I = iv("1..2:[1,3];[1,3]")
        for src, dst in [((2, 2), (1, 3)), ((1, 3), (2, 2))]:
            with pytest.raises(ValueError, match="is not componentwise below"):
                interval_contains_rectangle(I, src, dst)


class TestCovers:
    def test_worked_4x4_example(self):
        # staircase [3,3]_2 + [2,3]_3 inside a 4 x 4 grid
        I = Interval(2, 3, ((3, 3), (2, 3)))
        got = covers(I, 4, 4)
        expect = sorted([
            Interval(2, 3, ((3, 3), (1, 3))),            # top row left
            Interval(2, 4, ((3, 3), (2, 3), (2, 2))),    # new row above
            Interval(2, 3, ((3, 4), (2, 3))),            # bottom row right
            Interval(1, 3, ((3, 3), (3, 3), (2, 3))),    # new row below
            Interval(2, 3, ((2, 3), (2, 3))),            # bottom row left
        ])
        assert list(got) == expect

    def test_graded_by_one_vertex(self):
        for m, n in [(2, 5), (3, 3)]:
            for I in enumerate_intervals(m, n):
                for J in covers(I, m, n):
                    assert leq(I, J)
                    assert vertex_count(J) == vertex_count(I) + 1

    def test_matches_brute_force(self):
        for m, n in [(2, 4), (3, 3), (1, 5)]:
            intervals = enumerate_intervals(m, n)
            for I in intervals:
                assert list(covers(I, m, n)) == brute_covers(I, intervals)

    def test_at_most_four_in_height_two(self):
        for n in range(1, 7):
            for I in enumerate_intervals(2, n):
                assert len(covers(I, 2, n)) <= 4

    def test_full_grid_has_no_covers(self):
        full = Interval(1, 2, ((1, 4), (1, 4)))
        assert covers(full, 2, 4) == ()

    def test_bounds_respected(self):
        with pytest.raises(ValueError):
            covers(iv("1..1:[5,5]"), 2, 4)


class TestJoins:
    def test_worked_4x4_joins(self):
        I = Interval(2, 3, ((3, 3), (2, 3)))
        c_tl = Interval(2, 3, ((3, 3), (1, 3)))
        c_t = Interval(2, 4, ((3, 3), (2, 3), (2, 2)))
        c_br = Interval(2, 3, ((3, 4), (2, 3)))
        c = Interval(2, 3, ((2, 3), (2, 3)))
        # plain union when no corner pair is present
        j1 = join_covers(I, [c_br, c_t, c], 4, 4)
        assert j1 == Interval(2, 4, ((2, 4), (2, 3), (2, 2)))
        # top-left corner completion when both c_tl and c_t are chosen
        j2 = join_covers(I, [c_tl, c_t, c_br], 4, 4)
        assert j2 == Interval(2, 4, ((3, 4), (1, 3), (1, 2)))

    def test_bottom_right_corner_completion(self):
        I = iv("2..2:[1,2]")
        c_br = iv("2..2:[1,3]")
        c_b = iv("1..2:[2,2];[1,2]")
        assert join_covers(I, [c_br, c_b], 2, 3) == iv("1..2:[2,3];[1,3]")

    def test_join_equals_convex_closure_of_union(self):
        for m, n in [(2, 5), (3, 3)]:
            for I in enumerate_intervals(m, n):
                cov = covers(I, m, n)
                for r in range(1, len(cov) + 1):
                    for S in itertools.combinations(cov, r):
                        union = set().union(*[J.vertices() for J in S])
                        assert join_covers(I, S, m, n) == convex_closure(union)

    def test_rejects_non_covers(self):
        I = iv("1..1:[1,1]")
        with pytest.raises(ValueError):
            join_covers(I, [iv("1..1:[1,3]")], 2, 3)
        with pytest.raises(ValueError):
            join_covers(I, [], 2, 3)


class TestClosure:
    def test_connected_set_closes_to_interval(self):
        # the staircase {(1,1),(1,2),(2,2),(2,3)} pulls in (2,1) and (1,3)
        got = convex_closure({(1, 1), (1, 2), (2, 2), (2, 3)})
        assert got == Interval(1, 2, ((1, 3), (1, 3)))

    def test_adds_between_vertices(self):
        # an L shape closes to the full rectangle
        got = convex_closure({(1, 1), (1, 2), (2, 2)})
        assert got == Interval(1, 2, ((1, 2), (1, 2)))

    def test_disconnected_rejected(self):
        # two incomparable singletons admit two minimal upper bounds
        with pytest.raises(NoJoinError):
            convex_closure({(2, 1), (1, 3)})
        with pytest.raises(NoJoinError):
            convex_closure(set())

    def test_fixed_point_on_intervals(self):
        for I in enumerate_intervals(2, 4):
            assert convex_closure(I.vertices()) == I


class TestMeets:
    def test_intersection_splits_into_staircases(self):
        # the two minimal upper bounds of {(2,1)} and {(1,3)} in the
        # 2 x 3 poset; their intersection is disconnected, which is why
        # the poset has no global joins or meets
        J1 = iv("1..2:[3,3];[1,3]")
        J2 = iv("1..2:[1,3];[1,1]")
        comps = intersection_components(J1, J2)
        assert comps == (iv("1..1:[3,3]"), iv("2..2:[1,1]"))

    def test_empty_intersection(self):
        assert intersection_components(iv("1..1:[1,1]"), iv("2..2:[3,3]")) == ()

    def test_meet_over_picks_component_containing_base(self):
        # the poset is not locally distributive; this is the 2 x 4 witness
        I = iv("2..2:[2,2]")
        i1 = iv("1..2:[1,3];[1,2]")
        i2 = iv("1..2:[2,4];[2,2]")
        i3 = iv("1..2:[4,4];[2,4]")
        assert meet_over(I, i2, i3) == I
        join12 = convex_closure(i1.vertices() | i2.vertices())
        join13 = convex_closure(i1.vertices() | i3.vertices())
        assert join12 == iv("1..2:[1,4];[1,2]")
        assert join13 == Interval(1, 2, ((1, 4), (1, 4)))
        assert meet_over(I, join12, join13) == iv("1..2:[1,4];[1,2]")
        assert meet_over(I, join12, join13) != i1

    def test_meet_requires_lower_bound(self):
        with pytest.raises(ValueError):
            meet_over(iv("1..1:[1,1]"), iv("1..1:[2,2]"), iv("1..1:[2,3]"))


class TestEssentialVertices:
    def test_staircase_sources_and_sinks(self):
        I = iv("1..2:[2,3];[1,2]")
        assert ss_essential(I) == ((1, 2), (1, 3), (2, 1), (2, 2))

    def test_rectangle_has_two(self):
        R = rectangle_from((1, 1), (2, 3))
        assert ss_essential(R) == ((1, 1), (2, 3))
        assert cc_essential(R) == ((1, 1), (1, 3), (2, 1), (2, 3))

    def test_point(self):
        P = iv("1..1:[2,2]")
        assert ss_essential(P) == ((1, 2),)
        assert cc_essential(P) == ((1, 2),)

    def test_nesting(self):
        for I in enumerate_intervals(2, 5):
            ss = set(ss_essential(I))
            cc = set(cc_essential(I))
            assert ss <= cc <= I.vertices()

    def test_ss_containment_forces_order(self):
        intervals = enumerate_intervals(2, 4)
        for I, J in itertools.product(intervals, repeat=2):
            if set(ss_essential(I)) <= J.vertices():
                assert leq(I, J)
