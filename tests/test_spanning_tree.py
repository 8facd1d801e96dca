import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubletree import (
    Instance,
    InternalInvariantError,
    RootedTree,
    degree_increase,
    depth_first_shortcut,
    generate_uniform,
    minimum_spanning_tree,
    root_tree,
)
from doubletree.oracles import conforming_mask, _small_cycles

from conftest import distance, make_instance, mst_tree, random_instance, tree_distance


def prufer_trees(n):
    """All labelled trees on n nodes, as edge lists (Prufer decoding)."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        seq_iter = list(seq)
        leaves = sorted(i for i in range(n) if degree[i] == 1)
        for x in seq_iter:
            leaf = leaves.pop(0)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                # keep the candidate list sorted for the canonical decode
                import bisect

                bisect.insort(leaves, x)
        edges.append((leaves[0], leaves[1]))
        yield edges


def brute_force_mst_weight(inst):
    best = float("inf")
    for edges in prufer_trees(inst.n):
        w = sum(distance(inst, a, b) for a, b in edges)
        best = min(best, w)
    return best


def kruskal_edges(inst, reverse_ties=False):
    """The MST's (lower, higher) edges under the order (weight, lower id,
    higher id), or with ``reverse_ties`` (weight, -lower id, -higher id)."""
    lo, hi = np.triu_indices(inst.n, 1)
    sign = -1 if reverse_ties else 1
    order = np.lexsort((sign * hi, sign * lo, inst.distances.pairs(lo, hi)))
    comp = list(range(inst.n))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    edges = set()
    for a, b in zip(lo[order].tolist(), hi[order].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            edges.add((a, b))
    return edges


@st.composite
def lattice_instances(draw):
    """Up to 40 points on a small integer grid: repeated points and equal edges abound."""
    side = draw(st.integers(1, 6))
    cell = st.integers(0, side - 1)
    points = draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=40))
    return make_instance(points, rounded=draw(st.booleans()))


class TestMst:
    @settings(max_examples=300, deadline=None)
    @given(lattice_instances())
    def test_is_the_mst_of_the_strict_edge_order(self, inst):
        # Kruskal over the order itself, so a wrong tie rule in the scan
        # cannot hide behind a reference that shares it
        parent = minimum_spanning_tree(inst)[0]
        edges = {(min(v, p), max(v, p)) for v, p in enumerate(parent.tolist()) if p >= 0}
        assert edges == kruskal_edges(inst)

    @settings(max_examples=300, deadline=None)
    @given(lattice_instances())
    def test_certified_unique(self, inst):
        # a scan with no tie built the MST of nodes 1..n-1 under the opposite
        # tie rule too
        _, _, spanning = minimum_spanning_tree(inst)
        if spanning is not None and inst.n > 1:
            rest = Instance(inst.name, inst.coords[1:], inst.metric)
            edges = {(min(v, p), max(v, p)) for v, p in enumerate(spanning[0].tolist()) if p >= 0}
            assert edges == {(a + 1, b + 1) for a, b in kruskal_edges(rest, reverse_ties=True)}

    def test_ties_are_reported(self, collinear3):
        # nodes 1..4 on a unit square: four spanning paths of weight 3
        square = make_instance([(5, 5), (0, 0), (1, 0), (1, 1), (0, 1)])
        assert minimum_spanning_tree(square)[2] is None
        assert minimum_spanning_tree(collinear3)[2] is not None  # two nodes past node 0

    def test_one_and_two_points_hand_over_their_scan(self):
        for points, links in (([(0, 0)], [-1]), ([(0, 0), (3, 4)], [-1, -1])):
            _, _, (scan_links, picked) = minimum_spanning_tree(make_instance(points))
            assert scan_links.tolist() == links
            assert picked.tolist() == [0.0] * (len(points) - 1)

    def test_two_points(self):
        parent, weight, _ = minimum_spanning_tree(make_instance([(0, 0), (3, 4)]))
        assert parent.tolist() == [-1, 0]
        assert weight == 5.0

    def test_collinear_three(self, collinear3):
        parent, weight, _ = minimum_spanning_tree(collinear3)
        assert parent.tolist() == [-1, 0, 1]
        assert weight == 2.0

    def test_unit_square_weight(self, unit_square):
        # all 16 labelled trees enumerated independently
        assert brute_force_mst_weight(unit_square) == pytest.approx(3.0)
        assert minimum_spanning_tree(unit_square)[1] == pytest.approx(3.0)

    @pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (5, 2), (6, 3), (6, 4)])
    def test_matches_exhaustive_minimum(self, n, seed):
        inst = random_instance(n, seed)
        parent, got, _ = minimum_spanning_tree(inst)
        assert got == pytest.approx(brute_force_mst_weight(inst), abs=1e-9)
        links = sum(distance(inst, v, int(p)) for v, p in enumerate(parent) if p >= 0)
        assert got == pytest.approx(links, abs=1e-9)

    def test_deterministic_with_duplicate_points(self):
        inst = make_instance([(0, 0), (0, 0), (1, 0), (1, 0), (0.5, 2)])
        first, w1, _ = minimum_spanning_tree(inst)
        second, w2, _ = minimum_spanning_tree(inst)
        # ties go to the smallest (min, max) pair: 2 and 4 join 0, not its twin 1
        assert first.tolist() == second.tolist() == [-1, 0, 0, 2, 0]
        assert w1 == w2
        root_tree(first)  # still a valid tree

    def test_single_node(self):
        parent, weight, _ = minimum_spanning_tree(make_instance([(0, 0)]))
        assert parent.tolist() == [-1]
        assert weight == 0.0


@st.composite
def parent_links(draw):
    """(root, parent links) of a random tree on up to 40 nodes, labels shuffled."""
    n = draw(st.integers(1, 40))
    attach = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    label = draw(st.permutations(range(n)))
    parent = [None] * n
    for i, j in enumerate(attach, start=1):
        parent[label[i]] = label[j]
    return label[0], parent


def stack_orders(root, parent):
    """Preorder and postorder, children ascending, by plain stack walks."""
    children = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].append(v)
    pre, stack = [], [root]
    while stack:
        u = stack.pop()
        pre.append(u)
        stack.extend(reversed(children[u]))
    # reversed, the preorder of the mirrored tree is the postorder
    mirrored, stack = [], [root]
    while stack:
        u = stack.pop()
        mirrored.append(u)
        stack.extend(children[u])
    return tuple(pre), tuple(reversed(mirrored))


def root_path(parent, x):
    out = []
    while x is not None:
        out.append(x)
        x = parent[x]
    return out


class TestStoredOrders:
    @settings(max_examples=100, deadline=None)
    @given(parent_links())
    def test_orders_match_parent_walks(self, links):
        root, parent = links
        n = len(parent)
        tree = RootedTree.from_parents(parent)
        assert (tree.preorder, tree.postorder) == stack_orders(root, parent)
        pos = {u: i for i, u in enumerate(tree.preorder)}
        above = [set(root_path(parent, x)) for x in range(n)]
        for u in range(n):
            run = tree.preorder[pos[u] : pos[u] + tree.subtree_size[u]]
            assert len(run) == tree.subtree_size[u]
            assert set(run) == {x for x in range(n) if u in above[x]}
        rank = {u: i for i, u in enumerate(tree.postorder)}
        assert all(rank[v] < rank[parent[v]] for v in range(n) if v != root)
        inst = generate_uniform(n, 1)
        assert depth_first_shortcut(inst, tree).order == tree.preorder

    def test_long_path_is_walked_iteratively(self):
        n = 5000
        parent = [None] + list(range(n - 1))
        tree = RootedTree.from_parents(parent)
        assert (tree.preorder, tree.postorder) == stack_orders(0, parent)
        assert tree.preorder == tuple(range(n))
        assert tree.subtree_size == tuple(range(n, 0, -1))
        assert tree.depth[-1] == n - 1
        inst = generate_uniform(n, 1)
        assert depth_first_shortcut(inst, tree).order == tree.preorder


class TestFromParents:
    @pytest.mark.parametrize("parent", [
        [None, -1, 0],  # a negative id would index from the end
        [None, 0, 3],  # an id >= n
        [None, 2, 1, 0],  # a 2-cycle that never reaches the root
        [1, 0, 0],  # no root
        [None, 0, None],  # two roots
    ])
    def test_rejects_links_outside_the_nodes(self, parent):
        with pytest.raises(ValueError):
            RootedTree.from_parents(parent)


class TestRootTree:
    def test_path_rooted_at_end(self, collinear3):
        tree = mst_tree(collinear3)
        assert tree.root == 0
        assert tree.children[0] == (1,)
        assert tree.children[1] == (2,)
        assert tree.depth == (0, 1, 2)
        assert tree.subtree_size == (3, 2, 1)

    def test_star_roots_at_lowest_leaf(self):
        tree = root_tree([-1, 0, 0, 0, 0])
        assert tree.root == 1
        assert tree.children[1] == (0,)
        assert tree.children[0] == (2, 3, 4)
        assert tree.max_children == 3

    def test_single_edge_roots_at_lower_index(self):
        tree = root_tree([1, -1])
        assert tree.root == 0
        assert tree.children[0] == (1,)

    def test_single_node(self):
        tree = root_tree([-1])
        assert (tree.root, tree.parent, tree.preorder) == (0, (None,), (0,))

    @pytest.mark.parametrize("parent", [
        [1, 0],  # no root
        [-1, -1, 0],  # two roots
        [-1, 0, 3, 2],  # a cycle beside the root
        [-1, 2, 3, 2],  # the new root's path runs into a cycle
        [-1, 5],  # a parent outside the nodes
    ])
    def test_rejects_links_that_are_not_one_tree(self, parent):
        # by a check of its own, not by a numpy error on the way
        with pytest.raises(ValueError, match=r"^(parent links |node \d+ has parent )"):
            root_tree(parent)

    def test_root_is_leaf_of_unrooted_tree(self):
        for seed in range(5):
            tree = mst_tree(random_instance(30, seed))
            assert len(tree.children[tree.root]) == 1

    @settings(max_examples=100, deadline=None)
    @given(parent_links())
    def test_matches_a_walk_from_the_lowest_leaf(self, links):
        _, parent = links
        n = len(parent)
        tree = root_tree([-1 if p is None else p for p in parent])
        adj = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if p is not None:
                adj[v].append(p)
                adj[p].append(v)
        leaf = next((u for u in range(n) if len(adj[u]) == 1), 0)
        want = [None] * n
        stack, seen = [leaf], {leaf}
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    want[v] = u
                    stack.append(v)
        assert tree.root == leaf
        assert tree.parent == tuple(want)


class TestTreeDistance:
    def test_distance_to_self(self, collinear3):
        tree = mst_tree(collinear3)
        assert tree_distance(tree, 1, 1) == 0

    def test_path_end_to_end(self, collinear3):
        tree = mst_tree(collinear3)
        assert tree_distance(tree, 0, 2) == 2

    def test_matches_bfs_oracle(self):
        inst = random_instance(50, seed=8)
        tree = mst_tree(inst)
        adj = [[] for _ in range(50)]
        for v in range(50):
            p = tree.parent[v]
            if p is not None:
                adj[v].append(p)
                adj[p].append(v)
        for src in range(50):
            dist = [-1] * 50
            dist[src] = 0
            q = deque([src])
            while q:
                u = q.popleft()
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        q.append(w)
            for dst in range(50):
                assert tree_distance(tree, src, dst) == dist[dst]


def path_tree(n):
    return RootedTree.from_parents([None] + list(range(n - 1)))


class TestDegreeIncrease:
    def test_path_reattaches_grandchild(self):
        tree = path_tree(4)
        out = degree_increase(tree, 4)
        assert out.children[1] == (2, 3)
        assert out.children[2] == ()
        assert out.parent[3] == 1

    def test_limit_one_never_moves_anything(self):
        for seed in range(5):
            tree = mst_tree(random_instance(20, seed))
            out = degree_increase(tree, 1)
            assert out.parent == tree.parent
            assert out.children == tree.children

    def test_two_node_tree_unchanged(self):
        tree = path_tree(2)
        assert degree_increase(tree, 4) is tree

    def test_hand_traced_two_level_tree(self):
        # 0 - 1 - 2 - {3, 4}, 3 - 5: the first pop merges 2's children into 1,
        # after which 1 is too wide to absorb anything else at limit 3
        parent = [None, 0, 1, 2, 2, 3]
        tree = RootedTree.from_parents(parent)
        out = degree_increase(tree, 3)
        assert out.children[1] == (2, 3, 4)
        assert out.children[2] == ()
        assert out.children[3] == (5,)
        assert out.max_children == 3

    def test_structure_preserved(self):
        for seed in range(10):
            tree = mst_tree(random_instance(40, seed))
            out = degree_increase(tree, 5)
            assert out.n == tree.n
            assert out.root == tree.root
            assert sorted(sum((list(c) for c in out.children), [out.root])) == list(
                range(40)
            )

    def test_admissible_tours_only_grow(self):
        # exhaustive containment of the admissible-cycle sets
        for seed in range(12):
            n = 7
            inst = random_instance(n, seed + 100)
            tree = mst_tree(inst)
            bigger = degree_increase(tree, 5)
            cycles = _small_cycles(n)
            before = conforming_mask(tree, cycles)
            after = conforming_mask(bigger, cycles)
            assert not (before & ~after).any()

    def test_rejects_multi_child_root(self):
        parent = [None, 0, 0]
        tree = RootedTree.from_parents(parent)
        with pytest.raises(InternalInvariantError):
            degree_increase(tree, 5)

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            degree_increase(path_tree(4), 0)
