"""The image chain: one forward elimination per grid column walks only the
columns of f V, and the basis V_t is read off it, V_t = [f V[:, held] | E_F],
F the rows without a pivot.  The top member carries a block past f V that
takes its row operations: walked with its pivot rows first, an I block
gives the transform T, which makes T V_t upper triangular, and any block
X gives T X.  The pipeline carries the vertical arrow M((1, j) -> (2, j))."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpersist import compression, ffmat
from gridpersist.compression import compressed_multiplicity_function
from gridpersist.ffmat import FieldSpec, random_invertible
from gridpersist.generators import make_rng, random_interval_decomposable, random_module
from gridpersist.grid import conjugate
from gridpersist.pmod import format_interval_function
from oracles import direct_sum, naive_rank, path_map, zeta_act


def rank(a, p):
    return naive_rank(np.asarray(a).tolist(), p)


def low_rank(rng, rows, cols, r, p):
    return (rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, cols))) % p


def assert_basis_of_images(fv, held, v, p):
    """v is invertible, and for every prefix f V[:, :c] its first
    #held[:c] columns span the image of that prefix."""
    d = fv.shape[0]
    assert v.shape == (d, d) and rank(v, p) == d
    assert np.array_equal(v[:, :held.sum()], fv[:, held])
    for c in range(fv.shape[1] + 1):
        k = int(held[:c].sum())
        assert rank(v[:, :k], p) == k == rank(fv[:, :c], p)
        assert rank(np.hstack([v[:, :k], fv[:, :c]]), p) == k


def assert_upper_triangular(t, v, p):
    """t v is upper triangular with a nonzero diagonal."""
    y = (t @ v) % p
    assert not np.tril(y, -1).any()
    assert np.diagonal(y).all()


def assert_carries_transform(out, images, block, p):
    """out is the step on images with block carried.  Carrying the
    identity instead gives the same bases and the top sink's T, with
    T V_t upper triangular; the walked block is T block."""
    helds, bases, tmat = compression._image_step(images, np.eye(images[-1].shape[0], dtype=np.int64), p)
    for a, b in zip(out[0] + out[1], helds + bases):
        assert np.array_equal(a, b)
    assert tmat.shape == (images[-1].shape[0],) * 2
    assert_upper_triangular(tmat, bases[-1], p)
    assert out[2].shape == block.shape
    assert np.array_equal(out[2], (tmat @ block) % p)


class TestImageStep:
    """One column of the chain on random images of two sinks, of any
    widths, ranks and heights, zero included."""

    @given(st.sampled_from([2, 3, 65521]), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8),
                                                               st.integers(0, 6)), min_size=1, max_size=2),
           st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bases_and_transform(self, p, shapes, width, seed):
        rng = np.random.default_rng(seed)
        images = [low_rank(rng, d, w, r, p) for d, w, r in shapes]
        block = rng.integers(0, p, size=(images[-1].shape[0], width))
        out = compression._image_step(images, block, p)
        for fv, held, v in zip(images, *out[:2]):
            assert held.shape == (fv.shape[1],)
            assert_basis_of_images(fv, held, v, p)
        assert_carries_transform(out, images, block, p)

    @pytest.mark.parametrize("p, shapes, width, loop", [
        (2, [(12, 10, 6), (9, 11, 4)], 7, "_echelon_ints"),
        (2, [(130, 100, 90), (140, 120, 70)], 130, "_echelon_gf2"),
        (3, [(8, 9, 5), (10, 7, 6)], 6, "_echelon_gfp"),
        (65521, [(8, 9, 5), (10, 7, 6)], 6, "_echelon_gfp"),
        (2, [(5, 4, 2), (0, 3, 0)], 5, "_echelon_ints"),
        (3, [(5, 4, 2), (6, 3, 2)], 0, "_echelon_gfp"),
        (65521, [(0, 0, 0), (0, 0, 0)], 0, "_echelon_gfp"),
        (2, [(140, 9, 9), (140, 0, 0)], 0, "_echelon_gf2"),
    ])
    def test_carried_block_in_each_loop(self, p, shapes, width, loop, monkeypatch):
        # arrows with no rows or no columns, and the GF(2) word loop on two
        # members of more than 128 rows
        rng = np.random.default_rng(width + len(shapes))
        images = [low_rank(rng, d, w, r, p) for d, w, r in shapes]
        block = rng.integers(0, p, size=(images[-1].shape[0], width))
        taken = []
        core = getattr(ffmat, loop)
        monkeypatch.setattr(ffmat, loop, lambda *args: taken.append(loop) or core(*args))
        assert_carries_transform(compression._image_step(images, block, p), images, block, p)
        assert taken


def module_of(p, n, kind, size, seed):
    field, rng = FieldSpec(p), np.random.default_rng(seed)
    if kind == "random":
        return random_module(n, size, field, rng)
    # zero spaces where no summand reaches, rank-deficient arrows elsewhere
    return random_interval_decomposable(2, n, size, field, rng, disguise=True)[0]


def walk_chain(module):
    """The rect of a compression, and per column the step's output with
    the block it carried."""
    steps = []
    step = compression._image_step

    def record(images, block, p):
        out = step(images, block, p)
        steps.append((out, images, block))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compression, "_image_step", record)
        rect = compression._GroupedRanks(module).rect
    return rect, steps


def assert_carries_arrows(module, steps):
    """Column j carries the vertical arrow M((1, j) -> (2, j)), and its
    walked block is T times it, with T V_t upper triangular."""
    p = module.field.p
    for j, (out, images, block) in enumerate(steps, 1):
        assert np.array_equal(block, module.vmaps[(1, j)].data)
        assert_carries_transform(out, images, block, p)


class TestChain:
    """Through a compression: every V_t spans the images of every source
    of its row in its first rect[t][b] columns, T V_t is upper
    triangular, and the walked block is T M((1, j) -> (2, j))."""

    @given(st.sampled_from([2, 3, 65521]), st.integers(1, 6), st.sampled_from(["random", "sums"]),
           st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_prefix(self, p, n, kind, size, seed):
        module = module_of(p, n, kind, size, seed)
        rect, steps = walk_chain(module)
        assert len(steps) == n
        for j, ((helds, bases, _), _, _) in enumerate(steps, 1):
            for i, v in enumerate(bases, 1):
                t = (i, j)
                assert v.shape == (module.dims[t],) * 2 and rank(v, p) == module.dims[t]
                for b in range(1, j + 1):
                    image = path_map(module, (i, b), t).data
                    c = rect[t][b]
                    assert rank(v[:, :c], p) == c == rank(image, p)
                    assert rank(np.hstack([v[:, :c], image]), p) == c
        assert_carries_arrows(module, steps)

    @pytest.mark.parametrize("p, size", [(2, 130), (2, 20), (3, 20), (65521, 20)])
    def test_carried_arrows(self, p, size):
        # at d = 130 the image stacks hold 260 rows and take the GF(2) word loop
        module = random_module(3, size, FieldSpec(p), np.random.default_rng(size + p))
        assert_carries_arrows(module, walk_chain(module)[1])


# sha256 of format_interval_function of each module, as the Gauss-Jordan
# image chain that walked all of [f V | I] computed it
PINNED = {
    "random_d100": "51e108b0b99505785cf7899763c92d1fa5d1bcd238d4665826c7a0b89466e609",
    "random_d70_plus_sums": "bfc371e7d3a2dc46fd23e9bffe22e2dc79703031945e6e6bf9f78ce31f87ee63",
}


def digest(f):
    return hashlib.sha256(format_interval_function(f).encode()).hexdigest()


class TestPinnedValues:
    """Compressed multiplicities on the 2 x 12 grid at dimensions about
    100 over GF(65521) are unchanged."""

    FIELD = FieldSpec(65521)

    def test_random_module(self):
        module = random_module(12, 100, self.FIELD, make_rng(1612))
        assert digest(compressed_multiplicity_function(module)) == PINNED["random_d100"]

    def test_random_plus_disguised_sums(self):
        rng = make_rng(1613)
        sums, mult = random_interval_decomposable(2, 12, 60, self.FIELD, rng, disguise=False)
        generic = random_module(12, 70, self.FIELD, rng)
        module = direct_sum(generic, sums)
        module = conjugate(module, {v: random_invertible(module.dims[v], self.FIELD, rng)
                                    for v in module.grid.vertices()})
        f = compressed_multiplicity_function(module)
        assert digest(f) == PINNED["random_d70_plus_sums"]
        # additive: the generic part plus, for the sums, the number of summands above I
        g, z = compressed_multiplicity_function(generic), zeta_act(mult, 2, 12)
        assert all(f[I] == g[I] + z[I] for I in f)
