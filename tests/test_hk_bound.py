import pytest

from doubletree import (
    brute_force_optimal,
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
