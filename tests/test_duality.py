"""Duality: a check of compression and the rank invariant that needs no
oracle.

The dual DM of a module M, turned half a turn, holds the dual of M at
rho(i, j) = (m + 1 - i, n + 1 - j) and the transposed arrows.  Dualising
swaps the sources and sinks of a compression and leaves every interval
module's compression self-dual, so c_DM(rho I) = c_M(I) for every
interval I; and rank DM(rho t -> rho s) = rank M(s -> t).  Both sides
come from the package, on modules whose bases differ.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpersist.compression import compressed_multiplicity_function
from gridpersist.ffmat import FieldSpec
from gridpersist.generators import random_interval_decomposable, random_module
from gridpersist.grid import rank_invariant, validate
from gridpersist.intervals import enumerate_intervals
from oracles import dual, half_turn


def rho(v, m, n):
    return (m + 1 - v[0], n + 1 - v[1])


def module_of(p, n, kind, size, seed):
    """A random module (dimension size at every vertex) or a disguised sum
    of size intervals, whose arrows are rank-deficient."""
    field, rng = FieldSpec(p), np.random.default_rng(seed)
    if kind == "random":
        return random_module(n, size, field, rng)
    return random_interval_decomposable(2, n, size, field, rng, disguise=True)[0]


modules = st.builds(
    module_of,
    st.sampled_from([2, 3, 65521]),
    st.integers(1, 6),
    st.sampled_from(["random", "sums"]),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)


def assert_self_dual(module):
    g = module.grid
    d = dual(module)
    assert validate(d) is None
    f, fd = compressed_multiplicity_function(module), compressed_multiplicity_function(d)
    assert all(fd[half_turn(I, g.m, g.n)] == c for I, c in f.items())


class TestDual:
    @given(modules)
    @settings(max_examples=60, deadline=None)
    def test_compressed_multiplicity(self, module):
        assert_self_dual(module)

    @given(modules)
    @settings(max_examples=60, deadline=None)
    def test_rank_invariant(self, module):
        g = module.grid
        ranks, dual_ranks = rank_invariant(module), rank_invariant(dual(module))
        assert len(ranks) == len(dual_ranks)
        for (s, t), r in ranks.items():
            assert dual_ranks[(rho(t, g.m, g.n), rho(s, g.m, g.n))] == r

    @given(modules)
    @settings(max_examples=20, deadline=None)
    def test_involution(self, module):
        twice = dual(dual(module))
        assert twice.dims == module.dims
        assert twice.hmaps == module.hmaps and twice.vmaps == module.vmaps

    def test_half_turn_permutes_the_intervals(self):
        for m, n in ((1, 1), (1, 4), (2, 1), (2, 5), (3, 3)):
            intervals = enumerate_intervals(m, n)
            turned = [half_turn(I, m, n) for I in intervals]
            assert set(turned) == set(intervals)
            assert [half_turn(I, m, n) for I in turned] == list(intervals)
            for I, J in zip(intervals, turned):
                assert J.vertices() == {rho(v, m, n) for v in I.vertices()}

    def test_benchmark_shape(self):
        # the sums_p65521 generator: 150 disguised intervals on the 2 x 12 grid
        module, _ = random_interval_decomposable(2, 12, 150, FieldSpec(65521),
                                                 np.random.default_rng([0, 0]), disguise=True)
        assert_self_dual(module)
