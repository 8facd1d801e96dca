"""Differential and metamorphic tests for the dense upsweep.

The differential half compares the shipped upsweep bit for bit against the
frozen per-mask reference in ``reference_upsweep.py``: the weight, the
closing destination, every bridge (weight and jump edge) and the work
counters.  The metamorphic half checks properties that hold on any input:
relabelling the nodes, scaling the plane, and the DT tour never losing to the
depth-first shortcut of the same tree.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubletree import (
    RootedTree,
    degree_increase,
    depth_first_shortcut,
    downsweep,
    generate_clustered,
    generate_uniform,
)
from doubletree.upsweep import _LEAF, PreorderLayout, _build, _heights, _Pass, _reach, upsweep

import reference_upsweep
from conftest import make_instance, mst_tree


def _rounded_with_ties(n, seed):
    rng = np.random.default_rng(seed)
    return make_instance(rng.integers(0, 40, size=(n, 2)).astype(float), rounded=True)


def _duplicates(n, seed):
    base = generate_uniform(n // 2, seed, 1e6).coords
    return make_instance(np.concatenate([base, base[::-1]]))


def _collinear(n, seed):
    t = np.random.default_rng(seed).permutation(n).astype(float)
    return make_instance(np.stack([3.0 * t, 2.0 * t], axis=1))


def _lattice(side):
    return make_instance([(float(i), float(j)) for i in range(side) for j in range(side)])


INSTANCES = {
    "uniform-8": lambda: generate_uniform(8, 1, 1e6),
    "uniform-57": lambda: generate_uniform(57, 2, 1e6),
    "uniform-200": lambda: generate_uniform(200, 3, 1e6),
    "clustered-120": lambda: generate_clustered(120, 4, 1e6),
    "rounded-ties-90": lambda: _rounded_with_ties(90, 5),
    "duplicates-50": lambda: _duplicates(50, 6),
    "collinear-30": lambda: _collinear(30, 7),
    "lattice-64": lambda: _lattice(8),
}


@pytest.fixture(scope="module")
def cases():
    out = {}
    for name, build in INSTANCES.items():
        inst = build()
        mst = mst_tree(inst)
        for d in (1, 3, 4, 5):
            out[name, d] = (inst, degree_increase(mst, d) if d >= 3 else mst)
    return out


# hand-built trees (parent links, root 0) for the batched step over leaf children
HAND_TREES = {
    # a hub whose six children are all leaves
    "leaf-hub-6": [None, 0, 0, 0, 0, 0, 0],
    # a hub with four leaves and two subtrees (children 2 and 5) between them
    "leaves-and-subtrees": [None, 0, 0, 0, 0, 0, 0, 2, 2, 5, 9, 9],
    # a single leaf child takes the batched step too: node 1 has exactly one
    # leaf child, and so has the root (child 2) among two subtrees; node 3 has
    # one leaf child and one subtree
    "lone-leaf": [None, 0, 0, 0, 1, 3, 3, 6],
    # one node per height: each empty-mask batch holds one child
    "path": [None, *range(29)],
    # a four-child root over a leaf and three paths of unequal length (3, 7
    # and 17 nodes with their side branches): many nodes per height,
    # children of width 1, 2, 4 and 8, and leaves next to non-leaf children
    # (nodes 6, 14 and 19)
    "broom": [None, 0, 0, 2, 3, 0, 5, 6, 7, 8, 9, 6, 0, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
              14, 17, 24, 25, 19, 19],
    # two paths that end in three-leaf forks: built height by height, both
    # forks' tables are live at once, which a postorder pass never holds
    "twin-forks": [None, 0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 8, 8, 8],
    # a complete binary tree of 15 nodes, three of whose leaves get one child:
    # every height is full of two-child nodes, whose children are leaves and
    # nodes with one and two children (tables of widths 1, 2 and 4), side by
    # side in one batch
    "binary": [None, *((i - 1) // 2 for i in range(1, 15)), 7, 8, 11],
    # three two-child nodes of one height below the root: node 1 over two
    # paths of 19 and 18 nodes, whose layer 1 has 342 (x, y) sums at k = inf,
    # and nodes 2 and 3 over a leaf and a path of 19 nodes, 19 sums each
    "over-the-cap": [None, 0, 0, 0, 1, *range(4, 22), 1, *range(23, 40), 2, 2, *range(42, 60),
                     3, 3, *range(62, 80)],
}

HAND_POINTS = {
    "uniform": lambda n: generate_uniform(n, 8, 1e6).coords,
    "lattice": lambda n: _lattice(max(4, math.isqrt(n - 1) + 1)).coords[:n],
}


def _assert_bit_identical(inst, tree, k):
    want = reference_upsweep.upsweep(inst, tree, k=k, keep_bipartitions=True)
    got = upsweep(inst, tree, k=k)
    assert got.weight.hex() == want.weight.hex()
    assert got.best_a == want.best_a
    for key, (w, x, y) in want.bipartitions._data.items():
        gw, gx, gy = got.bridge(*key)
        assert (gw.hex(), gx, gy) == (w.hex(), x, y), key
    for counter in ("extension_evals", "max_live_entries", "bip_entries"):
        assert getattr(got.stats, counter) == getattr(want.stats, counter), counter
    assert got.stats.quad_evals <= want.stats.quad_evals


def _assert_height_tables(inst, tree, k):
    """Every table, built a height at a time as the upsweep builds it (the
    two-child nodes' layer 1 in batches of several nodes), against the
    reference's rows, bit for bit."""
    want = reference_upsweep.UpsweepRun(inst, tree, k=k, keep_sweep_tables=True)
    for u in tree.postorder:
        want.process_node(u)
    layout = PreorderLayout.of(tree)
    tables = {u: _LEAF for u, cu in enumerate(tree.children) if not cu}
    run = _Pass(inst, layout, k, [None] * tree.n, tables, *_reach(tree, k))
    for nodes in _heights(tree):
        for u, (table, _, _) in zip(nodes, _build(run, nodes)):
            tables[u] = table
    for u, cu in enumerate(tree.children):
        for mask in range(1, 1 << len(cu)):
            row = tables[u][mask]
            cols = np.flatnonzero(row < np.inf)
            ids = layout.order[layout.pre[u] + cols]
            o = np.argsort(ids)
            wids, ww = want.dests(u, mask)
            w = np.argsort(wids)
            assert ids[o].tolist() == wids[w].tolist(), (u, mask)
            assert row[cols[o]].tobytes() == np.asarray(ww)[w].tobytes(), (u, mask)


class TestHeightTables:
    """The tables themselves, not only the weights and bridges they lead to."""

    @pytest.mark.parametrize("k", [1, 2, 16, None])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_mst(self, cases, name, k):
        _assert_height_tables(*cases[name, 1], k)

    @pytest.mark.parametrize("k", [1, 2, None])
    @pytest.mark.parametrize("shape", ["binary", "over-the-cap", "broom", "twin-forks"])
    def test_hand_built(self, shape, k):
        parent = HAND_TREES[shape]
        inst = make_instance(HAND_POINTS["uniform"](len(parent)))
        _assert_height_tables(inst, RootedTree.from_parents(parent), k)


class TestFrozenReference:
    @pytest.mark.parametrize("k", [1, 2, 4, 16, None])
    @pytest.mark.parametrize("d", [1, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_bit_identical(self, cases, name, d, k):
        _assert_bit_identical(*cases[name, d], k)

    @pytest.mark.parametrize("k", [1, None])
    @pytest.mark.parametrize("name", ["rounded-ties-90", "lattice-64"])
    def test_bit_identical_degree_7(self, name, k):
        # ties and many leaf siblings
        inst = INSTANCES[name]()
        _assert_bit_identical(inst, degree_increase(mst_tree(inst), 7), k)

    @pytest.mark.parametrize("k", [1, 2, None])
    @pytest.mark.parametrize("points", sorted(HAND_POINTS))
    @pytest.mark.parametrize("shape", sorted(HAND_TREES))
    def test_bit_identical_hand_built(self, shape, points, k):
        parent = HAND_TREES[shape]
        inst = make_instance(HAND_POINTS[points](len(parent)))
        _assert_bit_identical(inst, RootedTree.from_parents(parent), k)


# every block taken per mask in one-row tiles; small held blocks, and per-mask
# tiles of several rows with a ragged last tile; every block of a node with
# three or more children held, and every per-mask block in one tile
CAPS = {"per-mask": 0, "tiled": 300, "all-held": 1 << 40}
DEFAULT_CAP = importlib.import_module("doubletree.upsweep").HELD_BLOCK_ENTRIES


class TestHeldBlockCap:
    """Both sides of ``HELD_BLOCK_ENTRIES`` against the frozen reference."""

    @pytest.fixture(params=sorted(CAPS), autouse=True)
    def cap(self, request, monkeypatch):
        module = importlib.import_module("doubletree.upsweep")
        monkeypatch.setattr(module, "HELD_BLOCK_ENTRIES", CAPS[request.param])

    @pytest.mark.parametrize("k", [1, 2, 16, None])
    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_bit_identical(self, cases, name, d, k):
        _assert_bit_identical(*cases[name, d], k)

    @pytest.mark.parametrize("k", [1, None])
    @pytest.mark.parametrize("name", ["rounded-ties-90", "lattice-64"])
    def test_bit_identical_degree_7(self, name, k):
        inst = INSTANCES[name]()
        _assert_bit_identical(inst, degree_increase(mst_tree(inst), 7), k)

    @pytest.mark.parametrize("k", [1, 2, 16, None])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_bit_identical_mst(self, cases, name, k):
        # D = 1: every step but those of three-child nodes is a batch
        _assert_bit_identical(*cases[name, 1], k)

    @pytest.mark.parametrize("k", [1, 2, 16, None])
    @pytest.mark.parametrize("points", sorted(HAND_POINTS))
    @pytest.mark.parametrize("shape", sorted(HAND_TREES))
    def test_bit_identical_hand_built(self, shape, points, k):
        parent = HAND_TREES[shape]
        inst = make_instance(HAND_POINTS[points](len(parent)))
        _assert_bit_identical(inst, RootedTree.from_parents(parent), k)

    @pytest.mark.parametrize("k", [1, 16, None])
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_quad_evals_do_not_depend_on_the_cap(self, cases, name, d, k, monkeypatch):
        # a held block's chunk holds inf for the x outside each mask's
        # subtrees, a per-mask block only the row's finite x: both count the
        # finite x alone
        inst, tree = cases[name, d]
        got = upsweep(inst, tree, k=k).stats.quad_evals
        monkeypatch.setattr(importlib.import_module("doubletree.upsweep"), "HELD_BLOCK_ENTRIES", DEFAULT_CAP)
        assert got == upsweep(inst, tree, k=k).stats.quad_evals

    @pytest.mark.parametrize("shape", ["broom", "leaf-hub-6", "leaves-and-subtrees"])
    def test_quad_evals_do_not_depend_on_the_cap_hand_built(self, shape, monkeypatch):
        parent = HAND_TREES[shape]
        inst = make_instance(HAND_POINTS["uniform"](len(parent)))
        tree = RootedTree.from_parents(parent)
        got = upsweep(inst, tree).stats.quad_evals
        monkeypatch.setattr(importlib.import_module("doubletree.upsweep"), "HELD_BLOCK_ENTRIES", DEFAULT_CAP)
        assert got == upsweep(inst, tree).stats.quad_evals


class TestCounterPin:
    """Work counters for n=200, seed 1.  Extension, live and bridge counts are
    those of the per-mask reference; quad_evals counts the (x, y) pairs of the
    factored inner minimum and must stay below the reference's figure (54 165
    for uniform dt, 3 206 329 for uniform 5x16)."""

    @pytest.mark.parametrize(
        "d, k, counters",
        [
            (1, None, (48_608, 12_355, 796, 664)),
            (5, 16, (275_016, 392_672, 5_649, 17_160)),
        ],
    )
    def test_counters(self, d, k, counters):
        assert _counters(generate_uniform, d, k) == counters

    @pytest.mark.parametrize(
        "generate, d, k, counters",
        [
            (generate_uniform, 5, None, (279_340, 406_464, 6_241, 17_160)),
            (generate_clustered, 5, 16, (275_639, 256_320, 6_256, 16_908)),
        ],
    )
    def test_counters_more(self, generate, d, k, counters):
        assert _counters(generate, d, k) == counters


def _counters(generate, d, k):
    inst = generate(200, 1, 1e6)
    mst = mst_tree(inst)
    tree = degree_increase(mst, d) if d >= 3 else mst
    s = upsweep(inst, tree, k=k).stats
    return (s.quad_evals, s.extension_evals, s.max_live_entries, s.bip_entries)


def _coords(n_min=4, n_max=30):
    point = st.tuples(
        st.floats(0, 1000, allow_nan=False, allow_infinity=False),
        st.floats(0, 1000, allow_nan=False, allow_infinity=False),
    )
    return st.lists(point, min_size=n_min, max_size=n_max, unique=True)


class TestMetamorphic:
    @settings(max_examples=40, deadline=None)
    @given(coords=_coords(), seed=st.integers(0, 2**16), d=st.sampled_from([1, 3, 5]),
           k=st.sampled_from([1, 2, None]))
    def test_relabelling_keeps_the_weight(self, coords, seed, d, k):
        inst = make_instance(coords)
        mst = mst_tree(inst)
        tree = degree_increase(mst, d) if d >= 3 else mst
        n = inst.n
        perm = np.random.default_rng(seed).permutation(n)  # old id -> new id
        moved = make_instance(np.asarray(coords)[np.argsort(perm)])
        parent = [None] * n
        for v in range(n):
            if tree.parent[v] is not None:
                parent[perm[v]] = int(perm[tree.parent[v]])
        relabelled = RootedTree.from_parents(parent)
        a = upsweep(inst, tree, k=k).weight
        b = upsweep(moved, relabelled, k=k).weight
        assert b == pytest.approx(a, rel=1e-12, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(coords=_coords(), scale=st.floats(1e-3, 1e3), d=st.sampled_from([1, 3, 5]),
           k=st.sampled_from([1, 2, None]))
    def test_scaling_scales_the_weight(self, coords, scale, d, k):
        inst = make_instance(coords)
        mst = mst_tree(inst)
        tree = degree_increase(mst, d) if d >= 3 else mst
        scaled = make_instance(np.asarray(coords) * scale)
        # the same tree: scaling can reorder MST ties, not the tree's admissible tours
        a = upsweep(inst, tree, k=k).weight
        b = upsweep(scaled, tree, k=k).weight
        assert b == pytest.approx(scale * a, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(coords=_coords(), d=st.sampled_from([1, 3, 5]))
    def test_never_heavier_than_the_depth_first_shortcut(self, coords, d):
        # exact search only: a depth limit can cut the preorder tour's sweeps
        inst = make_instance(coords)
        mst = mst_tree(inst)
        tree = degree_increase(mst, d) if d >= 3 else mst
        tour = downsweep(inst, tree, upsweep(inst, tree))
        assert tour.weight <= depth_first_shortcut(inst, tree).weight + 1e-9
