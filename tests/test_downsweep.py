import numpy as np
import pytest

from doubletree import (
    Tour,
    degree_increase,
    downsweep,
    enumerate_conforming_min,
    is_conforming,
    write_tour_plain,
    write_tour_tsplib,
)
from doubletree import InternalInvariantError
from doubletree.downsweep import sweep
from doubletree.instances import cycle_weight
from doubletree.upsweep import upsweep

import reference_downsweep
from conftest import (
    STAR5_BEST,
    SweepTables,
    distance,
    make_instance,
    mst_tree,
    random_instance,
    subtree_nodes,
)


def _seq_weight(inst, seq):
    return sum(distance(inst, seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def reconstruct_path(tree, result, u, V, a):
    """The optimal sweep of u plus T(V) from u to a, as a node sequence."""
    seq = sweep(tree, result, u, V, a)[0]
    expected = 1 + sum(
        tree.subtree_size[c] for i, c in enumerate(tree.children[u]) if V >> i & 1
    )
    if len(seq) != expected or len(set(seq)) != expected:
        raise InternalInvariantError(
            f"reconstructed sweep visits {len(seq)} nodes, expected {expected}"
        )
    if seq[0] != u or seq[-1] != a:
        raise InternalInvariantError("reconstructed sweep has wrong endpoints")
    return seq


class TestReconstructPath:
    def test_single_leaf_child(self):
        inst = make_instance([(0, 0), (1, 0)])
        tree = mst_tree(inst)
        res = upsweep(inst, tree)
        assert reconstruct_path(tree, res, 0, 1, 1) == [0, 1]

    def test_collinear_walk_out(self, collinear3):
        tree = mst_tree(collinear3)
        res = upsweep(collinear3, tree)
        seq = reconstruct_path(tree, res, 0, 1, 2)
        assert seq == [0, 1, 2]
        assert _seq_weight(collinear3, seq) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stored_values_everywhere(self, seed):
        n = 8
        inst = random_instance(n, 1200 + seed)
        tree = mst_tree(inst)
        res = upsweep(inst, tree)
        st = SweepTables(inst, tree)
        for u in range(n):
            for mask in range(1, len(st.tables[u])):
                ids, wts = st.dests(u, mask)
                for a, want in zip(ids.tolist(), wts.tolist()):
                    seq = reconstruct_path(tree, res, u, mask, a)
                    assert seq[0] == u and seq[-1] == a
                    assert _seq_weight(inst, seq) == pytest.approx(want, abs=1e-9)

    def test_rejects_uncomputed_bridge(self, collinear3):
        tree = mst_tree(collinear3)
        res = upsweep(collinear3, tree)
        res.bridges[2][1][:] = -1  # as if the bridges into T(2) were never computed
        with pytest.raises(InternalInvariantError):
            reconstruct_path(tree, res, 0, 1, 2)

    def test_rejects_destination_outside_selection(self, star5):
        tree = mst_tree(star5)  # root 1 -> 0 -> leaves 2, 3, 4
        res = upsweep(star5, tree)
        with pytest.raises(InternalInvariantError):
            reconstruct_path(tree, res, 0, 0b001, 3)


class TestSplitTies:
    """Equal-weight splits along a path go to the earliest tail (lowest
    mask); on these tie-rich inputs the latest tail gives other tours."""

    def test_lattice_degree_five(self):
        inst = make_instance([(float(i), float(j)) for i in range(5) for j in range(5)])
        tree = degree_increase(mst_tree(inst), 5)
        tour = downsweep(inst, tree, upsweep(inst, tree))
        assert tour.order == (20, 15, 10, 5, 0, 1, 6, 2, 3, 4, 9, 14, 19, 24, 23, 18, 13,
                              8, 7, 12, 17, 22, 21, 16, 11)

    def test_rounded_exact_search(self):
        xy = np.random.default_rng(3).integers(0, 30, (16, 2)).astype(float)
        inst = make_instance(xy, rounded=True)
        tree = mst_tree(inst)
        tour = downsweep(inst, tree, upsweep(inst, tree))
        assert tour.order == (0, 11, 3, 13, 8, 15, 2, 14, 1, 9, 4, 7, 5, 12, 10, 6)


def _rounded_lattice():
    # spacing 3 rounds the diagonals to 4: every row, column and diagonal ties
    return make_instance([(3.0 * i, 3.0 * j) for i in range(6) for j in range(6)], rounded=True)


def _duplicates():
    base = random_instance(20, 1700, box=1e6).coords
    return make_instance(np.concatenate([base, base[::-1]]))


def _collinear():
    t = np.random.default_rng(1701).permutation(30).astype(float)
    return make_instance(np.stack([3.0 * t, 2.0 * t], axis=1))


REFERENCE_INSTANCES = {
    "rounded-lattice-36": _rounded_lattice,
    "rounded-ties-40": lambda: make_instance(
        np.random.default_rng(1702).integers(0, 12, (40, 2)).astype(float), rounded=True
    ),
    "duplicates-40": _duplicates,
    "collinear-30": _collinear,
    "uniform-40": lambda: random_instance(40, 1703, box=1e6),
}


class TestFrozenReference:
    """Tours and sub-sweeps against the frozen reconstruction in
    ``reference_downsweep.py``: on these tie-rich inputs any other tie rule
    among equal splits gives other orders."""

    @pytest.mark.parametrize("k", [1, 2, 16, None])
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
    def test_same_tours(self, name, d, k):
        inst = REFERENCE_INSTANCES[name]()
        tree = mst_tree(inst)
        if d > 1:
            tree = degree_increase(tree, d)
        res = upsweep(inst, tree, k=k)
        got, want = downsweep(inst, tree, res), reference_downsweep.downsweep(inst, tree, res)
        assert got.order == want.order
        assert got.weight.hex() == want.weight.hex()
        rng = np.random.default_rng([d, k or 0, *name.encode()])
        for _ in range(40):
            u = int(rng.integers(inst.n))
            V = int(rng.integers(1 << len(tree.children[u])))
            picked = [c for i, c in enumerate(tree.children[u]) if V >> i & 1]
            a = int(rng.choice([x for c in picked for x in subtree_nodes(tree, c)] or [u]))
            rec = reference_downsweep.TourReconstructor(tree, res)
            try:
                want_seq = rec.reconstruct(u, V, a)
            except InternalInvariantError:  # a beyond the depth limit k
                with pytest.raises(InternalInvariantError):
                    sweep(tree, res, u, V, a)
                continue
            assert sweep(tree, res, u, V, a) == (want_seq, rec.path_edges)


class TestDownsweep:
    def test_two_nodes(self):
        inst = make_instance([(0, 0), (0, 3)])
        tree = mst_tree(inst)
        res = upsweep(inst, tree)
        tour = downsweep(inst, tree, res)
        assert tour.order == (0, 1)
        assert tour.weight == pytest.approx(6.0)

    def test_unit_square(self, unit_square):
        tree = mst_tree(unit_square)
        res = upsweep(unit_square, tree)
        tour = downsweep(unit_square, tree, res)
        assert tour.weight == pytest.approx(4.0)
        assert is_conforming(tour, tree)

    def test_star(self, star5):
        tree = mst_tree(star5)
        res = upsweep(star5, tree)
        tour = downsweep(star5, tree, res)
        assert tour.weight == pytest.approx(STAR5_BEST)
        assert is_conforming(tour, tree)

    @pytest.mark.parametrize("seed", range(20))
    def test_tour_attains_table_weight(self, seed):
        n = 4 + seed % 6
        inst = random_instance(n, 1300 + seed)
        tree = mst_tree(inst)
        res = upsweep(inst, tree)
        tour = downsweep(inst, tree, res)
        assert sorted(tour.order) == list(range(n))
        assert tour.weight == pytest.approx(res.weight, abs=1e-9)
        assert is_conforming(tour, tree)
        oracle = enumerate_conforming_min(inst, tree)
        assert tour.weight == pytest.approx(oracle.weight, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_depth_limited_reconstruction_consistent(self, k):
        for seed in range(6):
            inst = random_instance(15, 1400 + seed)
            tree = mst_tree(inst)
            res = upsweep(inst, tree, k=k)
            tour = downsweep(inst, tree, res)
            assert tour.weight == pytest.approx(res.weight, abs=1e-9)
            assert is_conforming(tour, tree)

    def test_path_edge_budget(self):
        for seed in range(8):
            n = 20
            inst = random_instance(n, 1500 + seed)
            tree = mst_tree(inst)
            res = upsweep(inst, tree)
            full = (1 << len(tree.children[tree.root])) - 1
            order, edges = sweep(tree, res, tree.root, full, res.best_a)
            assert len(order) == n
            assert edges <= n

    def test_rejects_mismatched_tree(self, collinear3):
        tree = mst_tree(collinear3)
        res = upsweep(collinear3, tree)
        other = mst_tree(random_instance(5, 1))
        with pytest.raises(ValueError):
            downsweep(random_instance(5, 1), other, res)

    def test_weight_matches_cycle_recomputation(self):
        inst = random_instance(30, seed=9)
        tree = mst_tree(inst)
        res = upsweep(inst, tree)
        tour = downsweep(inst, tree, res)
        assert tour.weight == pytest.approx(cycle_weight(inst, tour.order), abs=0)


class TestTourSerialization:
    def test_tsplib_tour_section(self):
        tour = Tour((2, 0, 1), 5.0)
        text = write_tour_tsplib(tour, name="t")
        lines = text.splitlines()
        assert "TOUR_SECTION" in lines
        body = lines[lines.index("TOUR_SECTION") + 1 :]
        assert body[:3] == ["3", "1", "2"]  # 1-based indices
        assert body[3] == "-1"
        assert body[4] == "EOF"

    def test_plain_listing(self):
        tour = Tour((2, 0, 1), 5.0)
        assert write_tour_plain(tour) == "2\n0\n1\n"
