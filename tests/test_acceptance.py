"""Acceptance suite: one test and one report line per criterion.

Each test exercises a contract of the package end to end and records a
PASS/FAIL line through the conftest reporter.  Timed criteria measure
wall-clock time and include it in the line.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations

import pytest

from conftest import record_criterion
from gridpersist.approximation import (
    dimvec_of_sum,
    interval_approximation,
    l1_norm,
    negative_part,
    rank_of_sum,
)
from gridpersist.cli import _bench_cell
from gridpersist.compression import classify_ss, compressed_multiplicity_function
from gridpersist.ffmat import GF2, FieldSpec
from gridpersist.generators import (
    example_module,
    make_rng,
    random_interval_decomposable,
    random_module,
    staircase_family_module,
)
from gridpersist.grid import (
    dimension_vector,
    format_dimvec,
    rank_invariant,
)
from gridpersist.intervals import Interval, enumerate_intervals
from gridpersist.mobius import mobius_invert
from oracles import (
    brute_force_mobius,
    convex_closure,
    covers,
    direct_sum,
    hom_multiplicity,
    interval_module,
    join_covers,
    mu_prime,
    vertex_count,
    zeta_act,
)

iv = Interval.from_string

# The worked 2 x 3 module and its frozen approximation coefficients.
FIXTURE_COEFFS = {
    "1..2:[2,3];[1,2]": -1,
    "1..2:[2,3];[1,3]": 1,
    "1..2:[2,3];[2,2]": 1,
    "2..2:[1,2]": 1,
}
NEGATIVE_INTERVAL = "1..2:[2,3];[1,2]"

# Spot intervals for the compressed multiplicity of the same fixture:
# the negative interval, its two covers, and the join of the covers.
SPOT_VALUES = {
    "1..2:[2,3];[1,2]": 0,
    "1..2:[2,3];[1,3]": 1,
    "1..2:[1,3];[1,2]": 0,
    "1..2:[1,3];[1,3]": 0,
}


def test_criterion_1_worked_example_exactness():
    t0 = time.perf_counter()
    approx = interval_approximation(example_module())
    elapsed = time.perf_counter() - t0
    got = {I.to_string(): c for I, c in approx.coeffs.items()}
    ok = got == FIXTURE_COEFFS and elapsed < 1.0
    record_criterion(1, ok, f"worked example approximation exact in {elapsed:.3f}s")
    assert got == FIXTURE_COEFFS
    assert elapsed < 1.0


def test_criterion_2_compressed_spot_values():
    f = compressed_multiplicity_function(example_module())
    got = {text: f[iv(text)] for text in SPOT_VALUES}
    ok = got == SPOT_VALUES
    record_criterion(2, ok, f"compressed multiplicity spot values {tuple(got.values())}")
    assert got == SPOT_VALUES


def test_criterion_3_dimension_vector_identity():
    m = example_module()
    approx = interval_approximation(m)
    lhs = dimvec_of_sum(approx)
    rhs = dimension_vector(m)
    shown = format_dimvec(lhs, 2, 3)
    ok = lhs == rhs and shown == "(1 2 1 / 0 1 1)"
    record_criterion(3, ok, f"approximation dimension vector {shown} matches the module")
    assert lhs == rhs
    assert shown == "(1 2 1 / 0 1 1)"


def test_criterion_4_interval_counts():
    t0 = time.perf_counter()
    got = [len(enumerate_intervals(2, n)) for n in range(1, 9)]
    elapsed = time.perf_counter() - t0
    want = [n * (n + 1) * (n * n + 5 * n + 30) // 24 for n in range(1, 9)]
    ok = got == want and elapsed < 5.0
    record_criterion(4, ok, f"interval counts {got} match the closed form in {elapsed:.2f}s")
    assert got == want == [3, 11, 27, 55, 100, 168, 266, 402]
    assert elapsed < 5.0


def test_criterion_5_mobius_matches_brute_force():
    t0 = time.perf_counter()
    checked = 0
    for m, n in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        table = brute_force_mobius(m, n)
        intervals = enumerate_intervals(m, n)
        for I in intervals:
            for J in intervals:
                assert mu_prime(I, J, m, n) == table.get((I, J), 0), (I, J)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    record_criterion(5, ok, f"closed-form Moebius equals recursion on {checked} segments in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_6_inversion_round_trip():
    rng = random.Random(2024)
    intervals = enumerate_intervals(2, 4)
    for _ in range(50):
        g = {I: rng.randint(-9, 9) for I in intervals}
        assert mobius_invert(zeta_act(g, 2, 4), 2, 4) == g
        f = {I: rng.randint(-9, 9) for I in intervals}
        assert zeta_act(mobius_invert(f, 2, 4), 2, 4) == f
    record_criterion(6, True, "inversion and summation invert each other on 50 random functions")


@pytest.fixture(scope="module")
def rank_corpus():
    t0 = time.perf_counter()
    pairs = []
    for i in range(200):
        n = 2 + i % 7
        d = 1 + i % 6
        p = 2 if i % 2 == 0 else 3
        m = random_module(n, d, FieldSpec(p), make_rng(1000 + i))
        pairs.append((m, interval_approximation(m)))
    return pairs, time.perf_counter() - t0


def test_criterion_7_rank_invariant_preserved(rank_corpus):
    pairs, build = rank_corpus
    t0 = time.perf_counter()
    bad = 0
    for m, approx in pairs:
        ranks = rank_invariant(m)
        for (src, dst), r in ranks.items():
            if rank_of_sum(approx, src, dst) != r:
                bad += 1
    elapsed = build + time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120.0
    record_criterion(7, ok, f"rank invariant preserved on 200 random modules in {elapsed:.1f}s")
    assert bad == 0
    assert elapsed < 120.0


def test_criterion_8_dimension_vectors_preserved(rank_corpus):
    pairs, _ = rank_corpus
    bad = sum(1 for m, approx in pairs if dimvec_of_sum(approx) != dimension_vector(m))
    record_criterion(8, bad == 0, "dimension vectors preserved on the same corpus")
    assert bad == 0


@pytest.fixture(scope="module")
def decomposable_corpus():
    out = []
    for i in range(100):
        m = 1 + i % 2
        n = 2 + i % 5
        k = 1 + i % 10
        p = (2, 3, 5)[i % 3]
        out.append(random_interval_decomposable(m, n, k, FieldSpec(p), make_rng(7000 + i)))
    return out


def test_criterion_9_decomposable_fixpoint(decomposable_corpus):
    bad = 0
    for module, mult in decomposable_corpus:
        approx = interval_approximation(module)
        if approx.coeffs != {I: c for I, c in mult.items() if c} or negative_part(approx):
            bad += 1
    ok = bad == 0
    record_criterion(9, ok, "100 disguised interval-decomposable modules recovered exactly")
    assert bad == 0


def test_criterion_10_multiplicity_summation(decomposable_corpus):
    bad = 0
    for module, mult in decomposable_corpus:
        g = module.grid
        if compressed_multiplicity_function(module) != zeta_act(mult, g.m, g.n):
            bad += 1
    ok = bad == 0
    record_criterion(10, ok, "compressed multiplicity sums true multiplicities upward on the corpus")
    assert bad == 0


def test_criterion_11_hom_oracle_equivalence():
    per_shape: Counter = Counter()
    mismatches = 0
    intervals = enumerate_intervals(2, 4)
    for i in range(20):
        d = 1 + i % 3
        p = (2, 3, 5)[i % 3]
        module = random_module(4, d, FieldSpec(p), make_rng(3000 + i))
        f = compressed_multiplicity_function(module)
        for I in intervals:
            closed = f[I]
            oracle = hom_multiplicity(module, I)
            per_shape[classify_ss(I).kind] += 1
            if closed != oracle:
                mismatches += 1
    counts = dict(sorted(per_shape.items()))
    ok = mismatches == 0 and len(per_shape) == 5 and all(v >= 100 for v in per_shape.values())
    record_criterion(11, ok, f"closed forms equal Hom-dimension route on {sum(per_shape.values())} pairs {counts}")
    assert mismatches == 0
    assert len(per_shape) == 5
    assert all(v >= 100 for v in per_shape.values())


def test_criterion_12_nonnegativity_is_no_certificate():
    m = example_module()
    patched = direct_sum(m, interval_module(m.grid, iv(NEGATIVE_INTERVAL), GF2))
    approx = interval_approximation(patched)
    base = interval_approximation(m)
    value_at_negative = approx.coeffs.get(iv(NEGATIVE_INTERVAL), 0)
    additive = all(
        approx.coeffs.get(I, 0) == base.coeffs.get(I, 0) + (1 if I == iv(NEGATIVE_INTERVAL) else 0)
        for I in enumerate_intervals(2, 3)
    )
    ok = not negative_part(approx) and value_at_negative == 0 and additive
    record_criterion(
        12, ok,
        "adding one interval summand hides the negative part without making the module decomposable",
    )
    assert not negative_part(approx)
    assert value_at_negative == 0
    assert additive


def test_criterion_13_staircase_family_diagnostic():
    norms = []
    ok = True
    for l in (1, 2, 3):
        module = staircase_family_module(l)
        approx = interval_approximation(module)
        norms.append(l1_norm(approx.coeffs))
        if norms[-1] < l:
            ok = False
        ranks = rank_invariant(module)
        if any(rank_of_sum(approx, src, dst) != r for (src, dst), r in ranks.items()):
            ok = False
        if dimvec_of_sum(approx) != dimension_vector(module):
            ok = False
    record_criterion(13, ok, f"staircase family l1 norms {norms} >= (1, 2, 3) with ranks preserved")
    assert ok


def test_criterion_14_poset_structure():
    for n in range(1, 7):
        for I in enumerate_intervals(2, n):
            cs = covers(I, 2, n)
            assert len(cs) <= 4, I.to_string()
            assert all(vertex_count(J) == vertex_count(I) + 1 for J in cs)
    joins = 0
    for I in enumerate_intervals(2, 5):
        cs = covers(I, 2, 5)
        for size in range(1, len(cs) + 1):
            for subset in combinations(cs, size):
                union = set(I.vertices())
                for J in subset:
                    union.update(J.vertices())
                assert join_covers(I, subset, 2, 5) == convex_closure(union)
                joins += 1
    record_criterion(
        14, True,
        f"covers bounded by 4 and graded up to width 6; {joins} cover-subset joins equal convex closures",
    )


def test_criterion_15_scaling_report():
    t0 = time.perf_counter()
    small = _bench_cell(8, 100, 5, 0)
    mid = time.perf_counter()
    large = _bench_cell(16, 100, 5, 0)
    large_wall = time.perf_counter() - mid
    # A cell's cost is a sum of terms, each with a nonnegative weight: per
    # column (n image eliminations), per column pair (the n (n + 1) / 2
    # profile members, their stacks and the products chaining them), per
    # interval (402 -> 4148) and per Moebius entry (2291 -> 36 817).  So
    # doubling n multiplies it by between the least and the greatest of
    # their growths, 2 and 16.1.
    ratio = large["median_ms"] / small["median_ms"]
    under_limit = large_wall < 60.0
    in_band = 2.0 <= ratio <= 16.1
    record_criterion(
        15,
        under_limit and in_band,
        f"bench d=100: n=8 median {small['median_ms']:.0f}ms, n=16 median {large['median_ms']:.0f}ms, "
        f"n=16 cell wall {large_wall:.1f}s (< 60s: {'yes' if under_limit else 'NO'}), "
        f"ratio {ratio:.1f} in [2, 16.1]: {'yes' if in_band else 'NO'} (report only)",
    )
    # reported, not gated: only well-formedness is asserted
    assert small["reps"] >= 5 and large["reps"] >= 5
    assert small["mean_ms"] > 0 and large["mean_ms"] > 0
    assert small["intervals"] == 402
    assert large["intervals"] == 4148
