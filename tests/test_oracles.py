import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubletree import (
    GuardError,
    RootedTree,
    Tour,
    TreeEdge,
    brute_force_optimal,
    depth_first_shortcut,
    enumerate_conforming_min,
    is_conforming,
    root_tree,
    tree_weight,
    minimum_spanning_tree,
)
from doubletree.oracles import _cycle_chunks, conforming_mask

from conftest import STAR5_BEST, make_instance, mst_tree, random_instance


def path_tree(n):
    return root_tree([TreeEdge(i, i + 1, 1.0) for i in range(n - 1)], n)


class TestIsConforming:
    def test_path_in_order(self):
        assert is_conforming((0, 1, 2, 3), path_tree(4))

    def test_path_interleaved(self):
        # the subtree {2, 3} is split by node 1
        assert not is_conforming((0, 2, 1, 3), path_tree(4))

    def test_small_cycles_always_conform(self):
        tree = path_tree(3)
        for perm in itertools.permutations(range(3)):
            assert is_conforming(perm, tree)

    def test_every_order_admissible_on_at_most_three_nodes(self):
        # no arc of a cycle on <= 3 nodes can split a subtree, and the general
        # crossing counts say so without a small-n shortcut
        for n in (1, 2, 3):
            orders = np.array(list(itertools.permutations(range(n))))
            for root in range(n):
                for links in itertools.product(range(n), repeat=n - 1):
                    parent = [*links[:root], None, *links[root:]]
                    try:
                        tree = RootedTree.from_parents(n, root, parent)
                    except ValueError:
                        continue  # a self-link or a cycle, not a tree
                    assert conforming_mask(tree, orders).all()
                    assert all(is_conforming(order, tree) for order in orders.tolist())
        one = make_instance([(2, 5)])
        tree = mst_tree(one)
        assert brute_force_optimal(one) == enumerate_conforming_min(one, tree) == Tour((0,), 0.0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_conforming((0, 1), path_tree(3))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            is_conforming((0, 1, 1), path_tree(3))

    def test_accepts_tour_objects(self):
        assert is_conforming(Tour((0, 1, 2, 3), 0.0), path_tree(4))

    @given(st.integers(0, 6), st.booleans(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_rotation_and_reversal(self, shift, flip, data):
        inst = random_instance(7, seed=data.draw(st.integers(0, 50)))
        tree = mst_tree(inst)
        order = data.draw(st.permutations(list(range(7))))
        base = is_conforming(order, tree)
        moved = order[shift:] + order[:shift]
        if flip:
            moved = moved[::-1]
        assert is_conforming(moved, tree) == base

    def test_bulk_mask_matches_scalar_check(self):
        # the vectorised filter and the per-tour check implement the same
        # definition; cross-validate them on full enumerations
        for seed in range(6):
            n = 6
            inst = random_instance(n, 200 + seed)
            tree = mst_tree(inst)
            for cycles in _cycle_chunks(n):
                mask = conforming_mask(tree, cycles)
                for row, ok in zip(cycles, mask):
                    assert is_conforming(tuple(int(x) for x in row), tree) == ok


class TestEnumerateConformingMin:
    def test_collinear_single_cycle(self, collinear3):
        tour = enumerate_conforming_min(collinear3, mst_tree(collinear3))
        assert tour.weight == pytest.approx(4.0)

    def test_unit_square_path_tree(self, unit_square):
        tree = mst_tree(unit_square)
        tour = enumerate_conforming_min(unit_square, tree)
        assert tour.weight == pytest.approx(4.0)

    def test_star_all_cycles_conform(self, star5):
        tree = mst_tree(star5)
        tour = enumerate_conforming_min(star5, tree)
        assert tour.weight == pytest.approx(STAR5_BEST)
        assert is_conforming(tour, tree)

    def test_guard_above_limit(self):
        inst = random_instance(12, seed=0)
        with pytest.raises(GuardError):
            enumerate_conforming_min(inst, mst_tree(inst))

    def test_deterministic(self):
        inst = random_instance(8, seed=77)
        tree = mst_tree(inst)
        assert enumerate_conforming_min(inst, tree) == enumerate_conforming_min(inst, tree)


class TestBruteForceOptimal:
    def test_unit_square(self, unit_square):
        assert brute_force_optimal(unit_square).weight == pytest.approx(4.0)

    def test_collinear(self, collinear3):
        assert brute_force_optimal(collinear3).weight == pytest.approx(4.0)

    def test_triangle_perimeter(self):
        inst = make_instance([(0, 0), (3, 0), (0, 4)])
        assert brute_force_optimal(inst).weight == pytest.approx(3 + 4 + 5)

    def test_two_nodes(self):
        inst = make_instance([(0, 0), (2, 0)])
        tour = brute_force_optimal(inst)
        assert tour.order == (0, 1)
        assert tour.weight == 4.0

    def test_guard(self):
        with pytest.raises(GuardError):
            brute_force_optimal(random_instance(12, seed=1))


class TestDepthFirstShortcut:
    def test_path_tree_gives_path_order(self, collinear3):
        tour = depth_first_shortcut(collinear3, mst_tree(collinear3))
        assert tour.order == (0, 1, 2)

    def test_unit_square_perimeter(self, unit_square):
        tree = mst_tree(unit_square)
        tour = depth_first_shortcut(unit_square, tree)
        assert tour.weight == pytest.approx(4.0)

    def test_always_conforming(self):
        for seed in range(10):
            inst = random_instance(15, seed)
            tree = mst_tree(inst)
            assert is_conforming(depth_first_shortcut(inst, tree), tree)

    def test_children_visited_in_index_order(self):
        edges = [TreeEdge(0, leaf, 1.0) for leaf in (1, 2, 3, 4)]
        tree = root_tree(edges, 5)
        tour = depth_first_shortcut(make_instance([(0, 0)] * 5), tree)
        assert tour.order == (1, 0, 2, 3, 4)


class TestOracleRelations:
    @pytest.mark.parametrize("seed", range(8))
    def test_sandwich_inequalities(self, seed):
        n = 4 + seed % 5
        inst = random_instance(n, 300 + seed)
        tree = mst_tree(inst)
        conf = enumerate_conforming_min(inst, tree)
        opt = brute_force_optimal(inst)
        dfs = depth_first_shortcut(inst, tree)
        mst_w = tree_weight(minimum_spanning_tree(inst))
        assert conf.weight >= opt.weight - 1e-9
        assert conf.weight <= dfs.weight + 1e-9
        assert conf.weight <= 2 * opt.weight + 1e-9
        assert dfs.weight <= 2 * mst_w + 1e-9
