import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from doubletree import (
    GuardError,
    InternalInvariantError,
    RootedTree,
    degree_increase,
    enumerate_conforming_min,
    generate_uniform,
    minimum_spanning_tree,
    root_tree,
)
from doubletree.upsweep import (
    HELD_BLOCK_ENTRIES,
    PreorderLayout,
    _build,
    _heights,
    _Pass,
    _leaf_masks,
    _masks,
    _reach,
    predicted_entries,
    upsweep,
)

from conftest import (
    STAR5_BEST,
    SweepTables,
    distance,
    make_instance,
    mst_tree,
    node_table,
    random_instance,
    subtree_nodes,
)


# --- independent brute-force oracles for sweep values -----------------------


def _contiguity_sets(tree, roots):
    """Node sets that must be consecutive inside a sweep of the given subtrees."""
    sets = []
    for v in roots:
        for w in subtree_nodes(tree, v):
            sub = subtree_nodes(tree, w)
            if len(sub) >= 2:
                sets.append(frozenset(sub))
    return sets


def _blocks_ok(seq, sets):
    pos = {node: i for i, node in enumerate(seq)}
    for s in sets:
        ps = [pos[x] for x in s]
        if max(ps) - min(ps) + 1 != len(s):
            return False
    return True


def _seq_weight(inst, seq):
    return sum(distance(inst, seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def sweep_min_oracle(inst, tree, u, v_nodes, a):
    """Cheapest sequence over {u} + selected subtrees, from u to a, with every
    inner subtree consecutive.  Pure enumeration."""
    nodes = {u}
    for v in v_nodes:
        nodes.update(subtree_nodes(tree, v))
    sets = _contiguity_sets(tree, v_nodes)
    middle = sorted(nodes - {u, a})
    best = math.inf
    for perm in itertools.permutations(middle):
        seq = (u,) + perm + (a,)
        if _blocks_ok(seq, sets):
            best = min(best, _seq_weight(inst, seq))
    return best


def bipartition_min_oracle(inst, tree, u, v_nodes, v, w_nodes):
    """Cheapest sequence sweeping {u}+T(V) first, then T(W)+{v}, u to v."""
    part1 = {u}
    for x in v_nodes:
        part1.update(subtree_nodes(tree, x))
    part2 = {v}
    for x in w_nodes:
        part2.update(subtree_nodes(tree, x))
    sets = _contiguity_sets(tree, v_nodes) + _contiguity_sets(tree, w_nodes)
    best = math.inf
    for p1 in itertools.permutations(sorted(part1 - {u})):
        for p2 in itertools.permutations(sorted(part2 - {v})):
            seq = (u,) + p1 + p2 + (v,)
            if _blocks_ok(seq, sets):
                best = min(best, _seq_weight(inst, seq))
    return best


def _mask_of(tree, u, v_nodes):
    return sum(1 << tree.children[u].index(v) for v in v_nodes)


def _nodes_of(tree, u, mask):
    return [v for i, v in enumerate(tree.children[u]) if mask >> i & 1]


# --- bridge-sweep values -----------------------------------------------------


class TestBipartitionPathWeight:
    def test_both_masks_empty_is_plain_edge(self, unit_square):
        tree = RootedTree.from_parents([None, 0, 1, 2])
        res = upsweep(unit_square, tree)
        assert res.bridge(1, 0, 0) == (distance(unit_square, 0, 1), 0, 1)

    def test_collinear_enter_through_grandchild(self, collinear3):
        tree = mst_tree(collinear3)
        res = upsweep(collinear3, tree)
        # sweep {1,2} entered at its far end: d(0,2) + d(1,2) = 2 + 1
        w, x, y = res.bridge(1, 0, 1)
        assert w == pytest.approx(3.0)
        assert (x, y) == (0, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_masks_match_enumeration(self, seed):
        inst = random_instance(7, 400 + seed)
        tree = mst_tree(inst)
        res = upsweep(inst, tree)
        for u in range(7):
            cu = tree.children[u]
            for v in cu:
                cv = tree.children[v]
                others = [c for c in cu if c != v]
                for r in range(len(others) + 1):
                    for v_nodes in itertools.combinations(others, r):
                        for s in range(len(cv) + 1):
                            for w_nodes in itertools.combinations(cv, s):
                                got = res.bridge(
                                    v,
                                    _mask_of(tree, u, v_nodes),
                                    _mask_of(tree, v, w_nodes),
                                )[0]
                                want = bipartition_min_oracle(
                                    inst, tree, u, v_nodes, v, w_nodes
                                )
                                assert got == pytest.approx(want, abs=1e-9)

    def test_absent_marker_for_empty_range(self, collinear3):
        tree = mst_tree(collinear3)
        res = upsweep(collinear3, tree)
        # a parent-side mask holding v itself is never computed
        _, xy = res.bridges[1]
        assert xy[1].tolist() == [-1, -1]
        for V, W in ((1, 0), (1, 1), (0, 2), (2, 0)):
            with pytest.raises(InternalInvariantError):
                res.bridge(1, V, W)
        with pytest.raises(InternalInvariantError):
            res.bridge(0, 0, 0)  # the root has no parent

    def test_batched_leaf_bridges(self, star5):
        # the centre's four leaf children are extended in one step per mask
        tree = RootedTree.from_parents([None, 0, 0, 0, 0])
        res = upsweep(star5, tree)
        for i, v in enumerate(tree.children[0]):
            w, xy = res.bridges[v]
            assert w.shape == (16, 1) and xy.shape == (16, 1)
            for V in range(16):
                if V >> i & 1:  # a row holding v itself is never computed
                    with pytest.raises(InternalInvariantError):
                        res.bridge(v, V, 0)
                else:
                    got = res.bridge(v, V, 0)
                    assert got[0] == pytest.approx(
                        bipartition_min_oracle(star5, tree, 0, _nodes_of(tree, 0, V), v, [])
                    )
                    assert got[2] == v
        _, bridges = predicted_entries(tree)
        assert bridges == sum(b[0].size for b in res.bridges if b is not None)


class TestBridgeStore:
    @pytest.mark.parametrize("case", ["star5", "deg5"])
    def test_one_store_per_node(self, case, star5):
        if case == "star5":
            inst, tree = star5, RootedTree.from_parents([None, 0, 0, 0, 0])
        else:
            inst = random_instance(300, 9)
            tree = degree_increase(mst_tree(inst), 5)
            assert tree.max_children == 5
        res = upsweep(inst, tree, k=4)
        assert res.bridges[tree.root] is None
        stores = {}
        for cu in tree.children:
            if not cu:
                continue
            # every child's weights and jump edges are column blocks of one
            # pair of arrays, which hold the stores of a height end to end
            bw, bxy = res.bridges[cu[0]][0].base, res.bridges[cu[0]][1].base
            assert bw.dtype == np.float64 and bxy.dtype == np.intp
            assert all(res.bridges[v][0].base is bw and res.bridges[v][1].base is bxy for v in cu)
            stores[id(bw)] = bw.nbytes + bxy.nbytes
        assert sum(stores.values()) == 16 * predicted_entries(tree)[1]


class TestHeldBlocks:
    def test_node_holds_at_most_c_blocks_of_the_cap(self):
        # a root with five subtrees of about 60 nodes: every block, 239 x 60
        # distances, fits the cap and is held for all of the root's masks
        rng = np.random.default_rng(0)
        parent = [None, 0, 0, 0, 0, 0]
        for i in range(6, 300):  # below the root's child congruent to i mod 5
            parent.append(int(rng.choice(np.arange(i % 5 or 5, i, 5))))
        tree = RootedTree.from_parents(parent)
        inst = generate_uniform(300, 9, 1e6)
        inst.distances  # the cached matrix is not part of the node's memory
        layout = PreorderLayout.of(tree)
        bridges, tables = [None] * 300, {}
        for u in tree.postorder[:-1]:
            tables[u] = node_table(inst, layout, u, tables, None, bridges)
        c = len(tree.children[0])
        assert c == 5
        tracemalloc.start()
        try:
            table = node_table(inst, layout, 0, tables, None, bridges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        store = bridges[1][0].base.nbytes + bridges[1][1].base.nbytes
        # the c held blocks, plus one chunk's (x, y) sums, the sums its tie
        # pass gathers and its (V, W, y) sums, each at most the cap; holding
        # every block with whole layers as chunks takes about 2.4 MB here
        assert peak - table.nbytes - store <= (c + 3) * HELD_BLOCK_ENTRIES * 8

    def test_per_mask_block_is_taken_in_tiles(self):
        # a root with two 400-node paths: the mask holding the first path reads
        # a 400 x 400 block of the second, far above the cap
        parent = [None, 0, *range(1, 400), 0, *range(401, 800)]
        tree = RootedTree.from_parents(parent)
        inst = generate_uniform(801, 9, 1e6)
        inst.distances  # the cached matrix is not part of the node's memory
        layout = PreorderLayout.of(tree)
        bridges, tables = [None] * 801, {}
        for u in tree.postorder[:-1]:
            tables[u] = node_table(inst, layout, u, tables, None, bridges)
        tracemalloc.start()
        try:
            table = node_table(inst, layout, 0, tables, None, bridges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.children[0] == (1, 401)
        xs = np.count_nonzero(table[1, 1:] < np.inf)
        B = tables[401]
        assert xs * np.count_nonzero((B < np.inf).any(axis=0)) >= 2 * HELD_BLOCK_ENTRIES
        store = bridges[1][0].base.nbytes + bridges[1][1].base.nbytes
        # a few tiles of at most the cap, and the tie pass's sums over every x
        # for the attaining columns, one per mask W of the child on this input
        tie = 3 * xs * B.shape[0] * 8
        assert peak - table.nbytes - store <= 4 * HELD_BLOCK_ENTRIES * 8 + tie


class TestEmptyMaskBatch:
    def test_wide_height_is_split(self):
        # 150 paths of 300 nodes below one root: at height 290 each of 150
        # nodes has one child of 290 nodes, so the children's (W, y) arrays
        # for the empty mask would hold 2 * 150 * 290 entries, 2.7 times the cap
        paths, length, height = 150, 300, 290
        parent = [None]
        for _ in range(paths):
            parent += [0, *range(len(parent), len(parent) + length - 1)]
        tree = RootedTree.from_parents(parent)
        inst = generate_uniform(tree.n, 9, 1e6)
        layout = PreorderLayout.of(tree)
        bridges = [None] * tree.n
        tables = {u: node_table(inst, layout, u, {}, None, bridges)
                  for u, cu in enumerate(tree.children) if not cu}
        run, levels = _Pass(inst, layout, None, bridges, tables, *_reach(tree, None)), _heights(tree)
        for nodes in levels[:height - 1]:
            for u, (table, _, _) in zip(nodes, _build(run, nodes)):
                for v in tree.children[u]:
                    del tables[v]
                tables[u] = table
        nodes = levels[height - 1]
        assert len(nodes) == paths
        tracemalloc.start()
        try:
            built = _build(run, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(table.nbytes + bw.nbytes + bxy.nbytes for table, bw, bxy in built)
        # a batch holds (W, y) arrays of at most the cap each and the distance
        # lookup's y-long temporaries: about four caps at W = 2 all told,
        # against about ten for the whole height as one batch
        assert peak - own <= 5 * HELD_BLOCK_ENTRIES * 8


class TestTwoChildBatch:
    def test_wide_height_is_split(self):
        # 60 nodes below one root, each over two paths of 100 nodes: layer 1
        # of the height of those nodes pairs 100 x with 100 y at each of its
        # 120 items, 1.2e6 (x, y) sums as one batch, 37 times the cap
        nodes, length = 60, 100
        parent = [None]
        for _ in range(nodes):
            top = len(parent)
            parent.append(0)
            for _ in range(2):
                parent += [top, *range(len(parent), len(parent) + length - 1)]
        tree = RootedTree.from_parents(parent)
        inst = generate_uniform(tree.n, 9, 1e6)
        layout = PreorderLayout.of(tree)
        bridges = [None] * tree.n
        tables = {u: node_table(inst, layout, u, {}, None, bridges)
                  for u, cu in enumerate(tree.children) if not cu}
        run, levels = _Pass(inst, layout, None, bridges, tables, *_reach(tree, None)), _heights(tree)
        for nodes_ in levels[:-2]:
            for u, (table, _, _) in zip(nodes_, _build(run, nodes_)):
                for v in tree.children[u]:
                    del tables[v]
                tables[u] = table
        nodes_ = levels[-2]
        assert len(nodes_) == nodes and all(len(tree.children[u]) == 2 for u in nodes_)
        tracemalloc.start()
        try:
            built = _build(run, nodes_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(table.nbytes + bw.nbytes + bxy.nbytes for table, bw, bxy in built)
        # a batch's (x, y) sums stay within the cap, and the distance lookup
        # holds about six arrays of that many entries at once (its x and y
        # indices, their coordinates, the differences and their picks): a
        # few caps all told, against about 40 for the height as one batch
        assert peak - own <= 6 * HELD_BLOCK_ENTRIES * 8

    def test_steps_scale_with_heights(self, monkeypatch):
        # uniform n=400, D = 1, k = 16: every batch is one height's layer 0
        # or its two-child nodes' layer 1, so the batched steps number at most
        # two per height; only the nodes with three or more children, and
        # two-child nodes over the cap, step on their own
        module = importlib.import_module("doubletree.upsweep")
        calls, alone = [], []
        batch, nonempty = module._batch, module._nonempty_masks
        monkeypatch.setattr(module, "_batch", lambda p, items, *a: calls.append(len(items)) or batch(p, items, *a))
        monkeypatch.setattr(module, "_nonempty_masks", lambda p, u, *a: alone.append(u) or nonempty(p, u, *a))
        inst = generate_uniform(400, 1, 1e6)
        tree = mst_tree(inst)
        upsweep(inst, tree, k=16)
        heights = len(_heights(tree))
        two = sum(len(cu) == 2 for cu in tree.children)
        three = {u for u, cu in enumerate(tree.children) if len(cu) > 2}
        inner = sum(len(cu) > 0 for cu in tree.children)
        over = len(alone) - len(three)
        assert len(set(alone)) == len(alone) and three <= set(alone) and over <= 2
        assert sum(calls) == (tree.n - 1) + 2 * (two - over)
        assert len(calls) + len(alone) <= 2 * heights + len(three) + over < inner


class TestCachedMasks:
    def test_read_only(self):
        masks, layers = _masks(3)
        free, rows = _leaf_masks(3, (0, 2))
        assert not any(a.flags.writeable for a in (masks, *layers, free, rows))


class TestExtendSweep:
    def test_collinear_slice(self, collinear3):
        st = SweepTables(collinear3, mst_tree(collinear3))
        ids, w = st.dests(0, 1)
        assert ids.tolist() == [1, 2]
        # ending at 1 must first sweep {2}: d(0,2)+d(2,1); ending at 2 walks out
        assert w.tolist() == pytest.approx([3.0, 2.0])

    def test_leaf_child_slice_is_single_entry(self, collinear3):
        st = SweepTables(collinear3, mst_tree(collinear3))
        ids, w = st.dests(1, 1)
        assert ids.tolist() == [2]
        assert w.tolist() == [pytest.approx(1.0)]


class TestProcessNode:
    def test_leaf_has_no_entries(self, collinear3):
        st = SweepTables(collinear3, mst_tree(collinear3))
        # only the empty-mask row: 0 at the leaf itself
        assert st.tables[2].tolist() == [[0.0]]

    def test_single_child_node_has_one_mask(self, collinear3):
        st = SweepTables(collinear3, mst_tree(collinear3))
        assert st.tables[1].shape == (2, 2)
        assert st.tables[1][0].tolist() == [0.0, math.inf]

    def test_requires_children_processed(self, collinear3):
        tree = mst_tree(collinear3)
        layout = PreorderLayout.of(tree)
        with pytest.raises(ValueError):
            node_table(collinear3, layout, 1, {}, None, [None] * 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_tables_match_sweep_oracle(self, seed):
        inst = random_instance(7, 500 + seed)
        tree = mst_tree(inst)
        st = SweepTables(inst, tree)
        for u in range(7):
            cu = tree.children[u]
            for r in range(1, len(cu) + 1):
                for v_nodes in itertools.combinations(cu, r):
                    mask = _mask_of(tree, u, v_nodes)
                    ids, wts = st.dests(u, mask)
                    expected_set = set()
                    for v in v_nodes:
                        expected_set.update(subtree_nodes(tree, v))
                    assert set(ids.tolist()) == expected_set
                    for a, got in zip(ids.tolist(), wts.tolist()):
                        want = sweep_min_oracle(inst, tree, u, v_nodes, a)
                        assert got == pytest.approx(want, abs=1e-9)


# --- whole pass ---------------------------------------------------------------


class TestUpsweep:
    def test_two_nodes_doubles_the_edge(self):
        inst = make_instance([(0, 0), (0, 2.5)])
        tree = mst_tree(inst)
        res = upsweep(inst, tree)
        assert res.weight == pytest.approx(5.0)
        assert res.best_a == 1

    def test_collinear(self, collinear3):
        res = upsweep(collinear3, mst_tree(collinear3))
        assert res.weight == pytest.approx(4.0)

    def test_unit_square_perimeter(self, unit_square):
        res = upsweep(unit_square, mst_tree(unit_square))
        assert res.weight == pytest.approx(4.0)

    def test_star(self, star5):
        res = upsweep(star5, mst_tree(star5))
        assert res.weight == pytest.approx(STAR5_BEST)

    @pytest.mark.parametrize("seed", range(25))
    def test_exact_against_enumeration(self, seed):
        n = 4 + seed % 6
        inst = random_instance(n, 600 + seed)
        tree = mst_tree(inst)
        res = upsweep(inst, tree)
        oracle = enumerate_conforming_min(inst, tree)
        assert res.weight == pytest.approx(oracle.weight, abs=1e-9)

    def test_never_above_twice_tree_weight(self):
        for seed in range(10):
            inst = random_instance(30, 700 + seed)
            parent, mst_w, _ = minimum_spanning_tree(inst)
            res = upsweep(inst, root_tree(parent))
            assert res.weight <= 2 * mst_w + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_depth_limit_monotone(self, seed):
        inst = random_instance(20, 800 + seed)
        tree = mst_tree(inst)
        weights = [upsweep(inst, tree, k=k).weight for k in (1, 2, 4, 8)]
        unlimited = upsweep(inst, tree).weight
        for a, b in zip(weights, weights[1:] + [unlimited]):
            assert a >= b - 1e-9
        assert weights[-1] >= unlimited - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_wider_trees_never_hurt(self, seed):
        inst = random_instance(16, 900 + seed)
        tree = mst_tree(inst)
        wider = degree_increase(tree, 5)
        assert upsweep(inst, wider).weight <= upsweep(inst, tree).weight + 1e-9

    def test_larger_degree_limit_can_be_worse(self):
        # the never-worse guarantee compares a transformed tree with the
        # untransformed one under exact search, not two degree limits
        inst = generate_uniform(300, 1, 1e6)
        mst = mst_tree(inst)
        d6, d7 = degree_increase(mst, 6), degree_increase(mst, 7)
        assert round(upsweep(inst, d6, k=16).weight, 2) == 13_221_852.02
        assert round(upsweep(inst, d7, k=16).weight, 2) == 13_239_502.27
        assert upsweep(inst, d7).weight <= upsweep(inst, mst).weight

    def test_depth_limit_prunes_stored_destinations(self):
        inst = make_instance([(0, 0), (1, 0), (2, 0), (3, 0)])
        st = SweepTables(inst, mst_tree(inst), k=1)
        assert st.dests(1, 1)[0].tolist() == [2]  # node 3 is two steps away
        assert st.dests(0, 1)[0].tolist() == [1]

    def test_postorder_independence(self):
        for seed in range(5):
            inst = random_instance(25, 1000 + seed)
            tree = mst_tree(inst)
            baseline = upsweep(inst, tree).weight
            # deepest-first is a valid bottom-up schedule too
            schedule = sorted(range(inst.n), key=lambda u: -tree.depth[u])
            st = SweepTables(inst, tree, schedule=schedule)
            closing = st.tables[tree.root][-1] + inst.distances.pairs(
                tree.root, st.layout.order
            )
            assert float(closing.min()) == baseline

    def test_deterministic(self):
        inst = random_instance(40, seed=31)
        tree = mst_tree(inst)
        a = upsweep(inst, tree)
        b = upsweep(inst, tree)
        assert (a.weight, a.best_a) == (b.weight, b.best_a)

    def test_counters_within_bounds(self):
        for seed in range(5):
            inst = random_instance(60, 1100 + seed)
            tree = mst_tree(inst)
            res = upsweep(inst, tree)
            d, n = tree.max_children, inst.n
            assert res.stats.quad_evals <= (4**d) * n * n
            assert res.stats.max_live_entries <= (2**d) * n

    @pytest.mark.parametrize("k", [1, 2])
    def test_live_entries_count_a_postorder_pass(self, k):
        # two paths that end in three-leaf forks (nodes 7 and 8): built height
        # by height, both forks' tables are live at once; the counter reports
        # the peak of a postorder pass, which never holds both
        tree = RootedTree.from_parents([None, 0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 8, 8, 8])
        inst = random_instance(tree.n, 8)
        st = SweepTables(inst, tree, k=k)
        live = [int(np.count_nonzero(st.tables[u][1:] < np.inf)) for u in range(tree.n)]

        def peak(schedule):  # groups of nodes built together, bottom up
            now = top = 0
            for group in schedule:
                now += sum(live[u] for u in group)
                top = max(top, now)
                now -= sum(live[v] for u in group for v in tree.children[u])
            return top

        postorder = peak([u] for u in tree.postorder)
        assert peak(_heights(tree)) > postorder
        assert upsweep(inst, tree, k=k).stats.max_live_entries == postorder

    def test_releases_child_tables(self, star5):
        tree = mst_tree(star5)
        res = upsweep(star5, tree)
        # only the root's mask rows are still live once the pass is done
        root = SweepTables(star5, tree).tables[tree.root]
        assert res.stats.live_entries == int(np.count_nonzero(root[1:] < np.inf))
        assert res.stats.max_live_entries >= res.stats.live_entries

    def test_mask_width_guard(self):
        n = 23
        coords = [(math.cos(i), math.sin(i)) for i in range(n)]
        inst = make_instance(coords)
        tree = RootedTree.from_parents([1, None] + [0] * (n - 2))
        assert tree.max_children == 21
        with pytest.raises(GuardError):
            upsweep(inst, tree)

    def test_guard_runs_before_the_counters_at_70_children(self, monkeypatch):
        # a hub with 70 children predicts 8.4e22 table entries; the guard
        # sums them in Python integers before the counters' int64 closed
        # form (where 1 << 70 wraps) or any table
        n = 72
        inst = make_instance([(math.cos(i), math.sin(i)) for i in range(n)])
        tree = RootedTree.from_parents([1, None] + [0] * (n - 2))
        module = importlib.import_module("doubletree.upsweep")
        for name in ("_work", "_build"):
            monkeypatch.setattr(module, name, lambda *a, _name=name: pytest.fail(f"{_name} ran before the guard"))
        assert tree.max_children == 70 and predicted_entries(tree)[0] > 8e22
        with pytest.raises(GuardError):
            upsweep(inst, tree)

    def test_predicted_entries_match_allocation(self):
        inst = random_instance(40, seed=5)
        tree = degree_increase(mst_tree(inst), 4)
        st = SweepTables(inst, tree)
        tables, bridges = predicted_entries(tree)
        assert tables == sum(t.size for t in st.tables.values())
        assert bridges == sum(b[0].size for b in st.bridges if b is not None)
        # rows whose parent-side mask holds the child itself stay uncomputed
        assert upsweep(inst, tree).stats.bip_entries * 2 == bridges

    def test_rejects_tiny_instances(self):
        inst = make_instance([(0, 0)])
        tree = RootedTree.from_parents([None])
        with pytest.raises(ValueError):
            upsweep(inst, tree)

    def test_rejects_bad_depth(self, collinear3):
        with pytest.raises(ValueError):
            upsweep(collinear3, mst_tree(collinear3), k=0)
