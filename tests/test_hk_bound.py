import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubletree import (
    AscentSummary,
    InternalInvariantError,
    brute_force_optimal,
    generate_clustered,
    generate_uniform,
    held_karp_ascent,
    held_karp_lower_bound,
    minimum_spanning_tree,
    root_tree,
    upsweep,
)
import doubletree.hk_bound as hk_bound
from doubletree.hk_bound import (
    COMPLETE_UP_TO,
    _candidate_edges,
    _one_tree,
    _sparse_one_tree,
    _with_tree_edges,
)

import hk_gate
import reference_prim
import reference_sparse
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
            bound=float.fromhex("0x1.79cd0e483fbbfp+22"),
            iterations=200,
            halvings=11,
            best_iteration=198,
            final_gap=float.fromhex("0x1.d5bd759f1fa68p+20"),
            sparse_gap=float.fromhex("0x1.0000000000000p-29"),
        )

    # the benchmark's shape: n=1000, 100 steps.  Clustered seed 2 is one whose
    # best step is a sparse one (at seed 1 and 41 it is step 1), so its
    # summary depends on the bits of the sparse steps.
    @pytest.mark.parametrize("klass, seed, want", [
        ("uniform", 41, ("0x1.5664c478954b1p+24", 100, 9, 100,
                         "0x1.0cce82adc8a7ep+23", "0x1.129c73fee0000p+8")),
        ("clustered", 2, ("0x1.a50d7df281807p+21", 100, 10, 100,
                          "0x1.446aa8bb171f1p+21", "0x1.8000000000000p-28")),
    ])
    def test_pinned_summary_at_n1000(self, klass, seed, want):
        inst = {"uniform": generate_uniform, "clustered": generate_clustered}[klass](1000, seed, 1e6)
        got = held_karp_ascent(inst, mst_tree(inst), 100)
        bound, iterations, halvings, best_iteration, final_gap, sparse_gap = want
        assert got == AscentSummary(
            float.fromhex(bound), iterations, halvings, best_iteration,
            float.fromhex(final_gap), float.fromhex(sparse_gap))

    def test_lower_bound_is_the_summary_bound(self):
        inst = random_instance(30, seed=8)
        tree = mst_tree(inst)
        bound = held_karp_lower_bound(inst, tree, 100)
        assert type(bound) is float
        assert bound == held_karp_ascent(inst, tree, 100).bound

    def test_stops_when_the_one_tree_is_a_tour(self):
        inst = make_instance([(0, 0), (3, 0), (0, 4)])
        assert held_karp_ascent(inst, mst_tree(inst), 50) == AscentSummary(12.0, 1, 0, 1, 0.0, 0.0)

    def test_stops_at_the_step_target(self):
        # step 1's 1-tree is no tour (degrees 2, 2, 2, 3, 3, 2, 1, 1), but its
        # value equals the depth-first tour's weight
        inst = make_instance([(2, 0), (0, 0), (0, 4), (2, 2), (0, 2), (4, 2), (2, 4), (4, 4)])
        assert held_karp_ascent(inst, mst_tree(inst), 50) == AscentSummary(16.0, 1, 0, 1, 0.0, 0.0)

    def test_certifies_at_the_stop_step(self):
        # a sparse step reaches the step target; its potentials get the
        # certificate before the ascent stops
        inst = make_instance([(3, 4), (0, 0), (4, 0), (2, 0)], rounded=True)
        assert held_karp_ascent(inst, mst_tree(inst), 50) == AscentSummary(13.0, 2, 0, 2, 0.0, 0.0)


@st.composite
def tie_heavy_cases(draw):
    """(instance, seed): lattice points with heavy ties, duplicate points or
    collinear points, 3 to 40 of them, and a seed for the potentials."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lattice", "duplicates", "collinear"]))
    if kind == "lattice":
        xy = rng.integers(0, draw(st.integers(1, 6)), size=(n, 2))
    elif kind == "duplicates":
        base = rng.integers(0, 1000, size=((n + 1) // 2, 2))
        xy = np.concatenate([base, base[::-1]])[:n]
    else:
        t = rng.permutation(n)
        xy = np.stack([3 * t, 2 * t], axis=1)
    return make_instance(xy.astype(float), rounded=draw(st.booleans())), int(rng.integers(2**32))


def _assert_same_one_tree(graph, pi):
    """The sparse 1-tree has the frozen pass's value, bit for bit, and degrees."""
    got_w, got_deg = _sparse_one_tree(*graph, pi)
    want_w, want_deg = reference_sparse._sparse_one_tree(*graph, pi)
    assert float(got_w).hex() == float(want_w).hex()
    assert got_deg.tolist() == want_deg.tolist()


class TestSparseOneTree:
    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_cases())
    def test_complete_candidates_give_the_dense_one_tree(self, case):
        inst, seed = case
        n, dist = inst.n, inst.distances
        u, v = np.triu_indices(n - 1, 1)
        u, v = u + 1, v + 1
        scale = max(1.0, float(np.ptp(inst.coords)))
        pi = np.random.default_rng(seed).normal(0.0, scale / 10.0, n)
        graph = (n, u, v, dist.pairs(u, v), dist.pairs(0, slice(None)))
        # the frozen pass too; at zero potentials the ties decide by edge id
        _assert_same_one_tree(graph, pi)
        _assert_same_one_tree(graph, np.zeros(n))
        got_w, got_deg = _sparse_one_tree(*graph, pi)
        want_w, want_deg, _ = _one_tree(dist, pi)
        assert got_deg.tolist() == want_deg.tolist()
        # the same edges, summed in another order
        assert got_w == pytest.approx(want_w, rel=1e-12, abs=1e-12 * n * scale)
        # at zero potentials the ties pick other trees of the same weight
        got_w, got_deg = _sparse_one_tree(*graph, np.zeros(n))
        want_w, want_deg, _ = _one_tree(dist, np.zeros(n))
        assert got_deg.sum() == want_deg.sum() == 2 * n
        assert got_w == pytest.approx(want_w, rel=1e-12, abs=1e-12 * n * scale)

    @pytest.mark.parametrize("klass, n", [
        ("uniform", 200), ("clustered", 200), ("uniform", 1000), ("clustered", 1000)])
    def test_candidate_graphs_match_the_frozen_pass(self, klass, n):
        inst = {"uniform": generate_uniform, "clustered": generate_clustered}[klass](n, 3, 1e6)
        dist = inst.distances
        u, v = _candidate_edges(inst, _one_tree(dist, np.zeros(n))[2])
        graph = (n, u, v, dist.pairs(u, v), dist.pairs(0, slice(None)))
        rng = np.random.default_rng(n)
        edge = 1e6 / np.sqrt(n)  # about the length of a tree edge
        _assert_same_one_tree(graph, np.zeros(n))
        for scale in (1e-3, 1e-1, 1.0, 10.0):
            _assert_same_one_tree(graph, rng.normal(0.0, scale * edge, n))
        # whole-number potentials on whole-number lengths: many ties
        _assert_same_one_tree((n, u, v, np.round(graph[3]), graph[4]), np.round(rng.normal(0.0, edge, n)))

    def test_a_graph_that_does_not_span_is_refused(self):
        # two triangles, 1-2-3 and 4-5-6, joined by the bridge 3-4
        inst = random_instance(7, seed=9)
        u, v = np.array([1, 1, 2, 3, 4, 4, 5]), np.array([2, 3, 3, 4, 5, 6, 6])
        graph = (7, u, v, inst.distances.pairs(u, v), inst.distances.pairs(0, slice(None)))
        assert _sparse_one_tree(*graph, np.zeros(7))[1].sum() == 14
        kept = np.arange(7) != 3
        with pytest.raises(InternalInvariantError, match="does not span"):
            _sparse_one_tree(7, u[kept], v[kept], graph[3][kept], graph[4], np.zeros(7))

    @pytest.mark.parametrize("n", range(3, COMPLETE_UP_TO + 1))
    def test_small_instances_have_complete_candidates(self, n):
        inst = random_instance(n, seed=n)
        u, v = _candidate_edges(inst, np.full(n, -1))
        assert sorted(zip(u.tolist(), v.tolist())) == [
            (a, b) for a in range(1, n) for b in range(a + 1, n)]


class TestCertificate:
    @pytest.mark.parametrize("klass", ["uniform", "clustered"])
    def test_sparse_gap(self, klass):
        inst = {"uniform": generate_uniform, "clustered": generate_clustered}[klass](300, 5, 1e6)
        got = held_karp_ascent(inst, mst_tree(inst), 100)
        assert got.best_iteration > 1
        # a sparse 1-tree is never lighter than the dense one at the same potentials
        assert got.sparse_gap >= -1e-9 * got.bound
        assert got.final_gap > 0.0

    def test_one_step_builds_no_candidates(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("candidate graph built for a single step")

        monkeypatch.setattr("doubletree.hk_bound._candidate_edges", refuse)
        inst = generate_uniform(100, seed=6, box=1e6)
        got = held_karp_ascent(inst, mst_tree(inst), 1)
        want, _, _ = _one_tree(inst.distances, np.zeros(inst.n))
        assert got == AscentSummary(float(want), 1, 0, 1, got.final_gap, 0.0)


    def test_at_most_one_certificate_per_round(self, monkeypatch):
        # every dense 1-tree goes through _one_tree: step 1's with the
        # spanning tree of the MST's scan, or with none and its own scan
        calls = []

        def counted(dist, pi, spanning=None):
            calls.append(spanning is not None)
            return _one_tree(dist, pi, spanning)

        monkeypatch.setattr(hk_bound, "_one_tree", counted)
        inst = generate_uniform(300, seed=7, box=1e6)
        parent, _, spanning = minimum_spanning_tree(inst)
        assert spanning is not None
        for from_mst in (False, True):
            calls.clear()
            held_karp_ascent(inst, root_tree(parent), 1000, spanning if from_mst else None)
            # step 1, then at most one per round: a stop step that ends no round
            # comes before the last round's end, so it stands in for that one
            assert len(calls) <= 1 + hk_bound.ROUNDS
            assert len(calls) == 6
            assert calls == [from_mst] + [False] * 5

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_collinear_points_within_the_gate(self, seed):
        # on a line the nearest neighbours miss the long edges a 1-tree takes
        # under large potentials; the certificates' edges make up for them
        t = np.random.default_rng(seed).permutation(100).astype(float)
        inst = make_instance(np.stack([3.0 * t, 2.0 * t], axis=1))
        tree = mst_tree(inst)
        got = held_karp_lower_bound(inst, tree, 1000)
        want = reference_prim.held_karp_lower_bound(inst, tree, 1000)
        assert 100.0 * (got / want - 1.0) >= hk_gate.EACH_FLOOR


def test_with_tree_edges():
    u, v = _with_tree_edges(6, np.array([3, 1]), np.array([1, 2]), np.array([-1, -1, 1, 5, 3, 1]))
    assert list(zip(u.tolist(), v.tolist())) == [(1, 2), (1, 3), (1, 5), (3, 4), (3, 5)]


class TestQualityGate:
    """A small run of ``tests/hk_gate.py``: the certified bound against the
    dense reference ascent on three 200-node instances of each kind, at the
    gate's step counts and with its thresholds."""

    @pytest.mark.parametrize("steps", hk_gate.STEPS)
    def test_small_gate(self, steps):
        diffs = [hk_gate.compare(klass, 200, seed, steps)[3]
                 for klass in hk_gate.GENERATORS for seed in (1, 2, 3)]
        assert hk_gate.passes(diffs), diffs
