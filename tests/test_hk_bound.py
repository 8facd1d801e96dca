import tracemalloc

import pytest

from doubletree import (
    AscentSummary,
    brute_force_optimal,
    generate_uniform,
    held_karp_ascent,
    held_karp_lower_bound,
    upsweep,
)

from conftest import make_instance, mst_tree, random_instance


class TestHeldKarpBound:
    def test_triangle_is_exact(self):
        inst = make_instance([(0, 0), (3, 0), (0, 4)])
        # on three nodes the relaxation is the tour itself
        assert held_karp_lower_bound(inst, mst_tree(inst)) == pytest.approx(12.0)

    def test_unit_square_close_to_optimum(self, unit_square):
        bound = held_karp_lower_bound(unit_square, mst_tree(unit_square), iterations=200)
        assert bound <= 4.0 + 1e-9
        assert bound >= 3.9

    @pytest.mark.parametrize("seed", range(12))
    def test_below_optimum(self, seed):
        n = 4 + seed % 7
        inst = random_instance(n, 1600 + seed)
        bound = held_karp_lower_bound(inst, mst_tree(inst), iterations=300)
        assert bound <= brute_force_optimal(inst).weight + 1e-9

    def test_more_iterations_never_worse(self):
        inst = random_instance(12, seed=5)
        tree = mst_tree(inst)
        bounds = [held_karp_lower_bound(inst, tree, iterations=i) for i in (1, 5, 25, 100, 400)]
        for a, b in zip(bounds, bounds[1:]):
            assert b >= a - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_below_solver_weight(self, seed):
        inst = random_instance(25, 1700 + seed)
        tree = mst_tree(inst)
        assert held_karp_lower_bound(inst, tree, iterations=400) <= upsweep(inst, tree).weight + 1e-9

    def test_deterministic(self):
        inst = random_instance(15, seed=3)
        tree = mst_tree(inst)
        assert held_karp_lower_bound(inst, tree) == held_karp_lower_bound(inst, tree)

    def test_rejects_tiny_instances(self):
        with pytest.raises(ValueError):
            inst = make_instance([(0, 0), (1, 0)])
            held_karp_lower_bound(inst, mst_tree(inst))

    def test_rejects_zero_iterations(self, unit_square):
        with pytest.raises(ValueError):
            held_karp_lower_bound(unit_square, mst_tree(unit_square), iterations=0)

    def test_ascent_needs_linear_memory(self):
        inst = generate_uniform(1000, seed=4, box=1e6)
        tree = mst_tree(inst)
        inst.distances  # the cached matrix is the instance's, not the ascent's
        tracemalloc.start()
        try:
            held_karp_lower_bound(inst, tree, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000 * 8  # below one n x n float array


class TestAscentSummary:
    def test_pinned_summary(self):
        inst = generate_uniform(60, seed=2, box=1e6)
        got = held_karp_ascent(inst, mst_tree(inst), 200)
        assert got == AscentSummary(
            bound=float.fromhex("0x1.78641fac16f81p+22"),
            iterations=200,
            halvings=5,
            best_iteration=184,
            final_gap=float.fromhex("0x1.db61300fc2b60p+20"),
        )

    def test_lower_bound_is_the_summary_bound(self):
        inst = random_instance(30, seed=8)
        tree = mst_tree(inst)
        bound = held_karp_lower_bound(inst, tree, 100)
        assert type(bound) is float
        assert bound == held_karp_ascent(inst, tree, 100).bound

    def test_stops_when_the_one_tree_is_a_tour(self):
        inst = make_instance([(0, 0), (3, 0), (0, 4)])
        assert held_karp_ascent(inst, mst_tree(inst), 50) == AscentSummary(12.0, 1, 0, 1, 0.0)
