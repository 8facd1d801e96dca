"""Differential tests for the row-at-a-time Prim kernels.

The minimum spanning tree and the dense 1-tree are compared bit for bit
against the frozen dense scans in ``reference_prim.py``, on inputs with many
ties (rounded integer points, duplicates, collinear points) as well as
generic ones.  The Held-Karp bound, whose ascent runs on a sparse
candidate graph, must be the value of a dense 1-tree and stay within the
quality gate of ``hk_gate.py`` against the reference ascent.  Every case
runs twice: with the distance matrix cached and with ``MATRIX_CACHE_LIMIT``
set low, so rows and candidate blocks are recomputed from coordinates.

The ascent's step 1, handed over by ``minimum_spanning_tree`` from the tree
it adds node 0 to, is compared bit for bit with the dense scan it replaces,
for every degree of node 0 from 1 to 4; inputs with ties must take the
dense scan.  Adding node 0 is compared with the frozen MST on small integer
lattices, where ties abound.  The sparse build of that tree (light pairs,
their components and the component Prim) is compared with the frozen MST
on inputs that stress each part, and wherever it hands a tree over, with
the dense scan at zero potentials.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doubletree.hk_bound as hk_bound
import doubletree.instances as instances
import doubletree.spanning_tree as spanning_tree
from doubletree import (
    depth_first_shortcut,
    generate_clustered,
    generate_uniform,
    held_karp_ascent,
    minimum_spanning_tree,
    root_tree,
    upsweep,
)
from doubletree.hk_bound import (
    NEAREST,
    PER_QUADRANT,
    _candidate_edges,
    _one_tree,
    held_karp_lower_bound,
)
from doubletree.spanning_tree import prim_scan

import hk_gate
import reference_prim
from conftest import distance_matrix, make_instance


def _rounded_lattice(n, seed):
    rng = np.random.default_rng(seed)
    return make_instance(rng.integers(0, 12, size=(n, 2)).astype(float), rounded=True)


def _rounded_grid(side):
    return make_instance(
        [(float(3 * i), float(3 * j)) for i in range(side) for j in range(side)], rounded=True
    )


def _duplicates(n, seed):
    base = generate_uniform(n // 2, seed, 1e6).coords
    return make_instance(np.concatenate([base, base[::-1]]))


def _collinear(n, seed):
    t = np.random.default_rng(seed).permutation(n).astype(float)
    return make_instance(np.stack([3.0 * t, 2.0 * t], axis=1))


INSTANCES = {
    "uniform-150": lambda: generate_uniform(150, 11, 1e6),
    "clustered-160": lambda: generate_clustered(160, 12, 1e6),
    "rounded-lattice-120": lambda: _rounded_lattice(120, 13),
    "rounded-grid-100": lambda: _rounded_grid(10),
    "duplicates-80": lambda: _duplicates(80, 14),
    "collinear-40": lambda: _collinear(40, 15),
    # from coordinates, the scan compacts its fringe every n // 8 picks: 7-8 times here
    "uniform-600": lambda: generate_uniform(600, 16, 1e6),
    "rounded-grid-625": lambda: _rounded_grid(25),
}


@pytest.fixture(params=[False, True], ids=["cached", "from-coords"])
def build(request, monkeypatch):
    """Instance factory; the distance object is built on first use, so the
    patched limit applies to every instance the test builds."""
    if request.param:
        monkeypatch.setattr(instances, "MATRIX_CACHE_LIMIT", 2)

    def _build(name):
        inst = INSTANCES[name]()
        assert (inst.distances._matrix is None) == request.param
        return inst

    return _build


def _ascent_potentials(inst, tree, steps):
    """The potentials after ``steps`` updates of the reference ascent."""
    dist = inst.distances
    upper = depth_first_shortcut(inst, tree).weight
    pi = np.zeros(inst.n)
    best, lam, stall, patience = -np.inf, 2.0, 0, max(1, steps // 10)
    for _ in range(steps):
        reduced, degrees = reference_prim._one_tree(dist, pi)
        bound = reduced + 2.0 * float(pi.sum())
        if bound > best:
            best, stall = bound, 0
        else:
            stall += 1
            if stall >= patience:
                lam, stall = lam * 0.5, 0
        g = 2.0 - degrees
        norm_sq = float(g @ g)
        if norm_sq == 0.0 or upper <= bound:
            break
        pi = pi + lam * (upper - bound) / norm_sq * g
    return pi


@pytest.mark.parametrize("name", sorted(INSTANCES))
class TestFrozenPrim:
    def test_spanning_tree(self, build, name):
        inst = build(name)
        parent, weight, _ = minimum_spanning_tree(inst)
        edges = reference_prim.minimum_spanning_tree(inst)
        assert len(edges) == inst.n - 1
        assert all(parent[b] == a for a, b, _ in edges)
        assert parent[0] == -1
        want = 0.0
        for _, _, w in edges:
            want += w
        assert weight.hex() == want.hex()

    @pytest.mark.parametrize("potentials", ["zero", "random", "rounded", "ascent-50"])
    def test_one_tree(self, build, name, potentials):
        inst = build(name)
        scale = float(np.ptp(inst.coords)) / 20.0
        if potentials == "zero":
            pi = np.zeros(inst.n)
        elif potentials == "random":
            pi = np.random.default_rng(3).normal(0.0, scale, inst.n)
        elif potentials == "rounded":  # integers: on rounded distances, ties in the reduced weights
            pi = np.round(np.random.default_rng(4).normal(0.0, scale, inst.n))
        else:
            pi = _ascent_potentials(inst, root_tree(minimum_spanning_tree(inst)[0]), 50)
        got_w, got_deg, _ = _one_tree(inst.distances, pi)
        want_w, want_deg = reference_prim._one_tree(inst.distances, pi)
        assert repr(got_w) == repr(want_w)
        assert got_deg.tolist() == want_deg.tolist()

    def test_bound(self, build, name, monkeypatch):
        inst = build(name)
        tree = root_tree(minimum_spanning_tree(inst)[0])
        dense_values = []

        def recorded(dist, pi, spanning=None):
            out = _one_tree(dist, pi, spanning)
            dense_values.append(out[0] + 2.0 * float(pi.sum()))
            return out

        monkeypatch.setattr(hk_bound, "_one_tree", recorded)
        got = held_karp_lower_bound(inst, tree, iterations=50)
        # valid by construction: the value of a dense 1-tree, below a tour
        assert got in dense_values
        assert got <= upsweep(inst, tree).weight

    def test_bound_within_the_gate(self, build, name):
        # 300 steps: over 50 steps both ascents are still far from settled,
        # and on tie-heavy inputs either can lead by about a percent
        inst = build(name)
        tree = root_tree(minimum_spanning_tree(inst)[0])
        got = held_karp_lower_bound(inst, tree, iterations=300)
        want = reference_prim.held_karp_lower_bound(inst, tree, iterations=300)
        assert 100.0 * (got / want - 1.0) >= hk_gate.EACH_FLOOR

    def test_candidate_graph(self, build, name):
        inst = build(name)
        n = inst.n
        _, _, spanning = _one_tree(inst.distances, np.zeros(n))
        u, v = _candidate_edges(inst, spanning)
        keys = u * n + v
        assert (u >= 1).all() and (u < v).all() and (v < n).all() and (np.diff(keys) > 0).all()
        kids = np.flatnonzero(spanning >= 0)
        assert np.isin(np.minimum(kids, spanning[kids]) * n + np.maximum(kids, spanning[kids]),
                       keys).all()
        neighbours = [set() for _ in range(n)]
        for a, b in zip(u.tolist(), v.tolist()):
            neighbours[a].add(b)
            neighbours[b].add(a)
        seen, stack = {1}, [1]
        while stack:  # connected once node 0 is removed
            for b in neighbours[stack.pop()] - seen:
                seen.add(b)
                stack.append(b)
        assert seen == set(range(1, n))
        d = distance_matrix(inst.distances)
        xy = inst.coords
        for i in range(1, n):
            others = np.array([j for j in range(1, n) if j != i])
            mine = np.array(sorted(neighbours[i]))
            # the nearest distances, overall and in each quadrant, are all candidates
            assert np.sort(d[i, mine])[:NEAREST].tolist() == np.sort(d[i, others])[:NEAREST].tolist()
            east, west = xy[:, 0] > xy[i, 0], xy[:, 0] < xy[i, 0]
            north, south = xy[:, 1] > xy[i, 1], xy[:, 1] < xy[i, 1]
            for quadrant in (east & ~south, north & ~east, west & ~north, south & ~west):
                want = np.sort(d[i, others[quadrant[others]]])[:PER_QUADRANT]
                got = np.sort(d[i, mine[quadrant[mine]]])[:want.size]
                assert got.tolist() == want.tolist()


# (class, n) -> the seeds whose unique MST gives node 0 the degrees 1, 2, 3 and 4
STEP_ONE_SEEDS = {
    ("uniform", 13): (4, 1, 11, 36),
    ("uniform", 200): (1, 2, 12, 302),
    ("uniform", 1000): (4, 1, 6, 243),
    ("uniform", 4000): (2000001, 1, 3, 2),
    ("clustered", 13): (1, 8, 5, 239),
    ("clustered", 200): (2, 1, 13, 98),
    ("clustered", 1000): (6, 1, 2, 128),
    ("clustered", 4000): (1, 4, 2, 83),
}
GENERATORS = {"uniform": generate_uniform, "clustered": generate_clustered}

# node 0's MST neighbours 2, 3 and 4 split T - 0 into three parts, and
# d(2, 3) = d(3, 4) = 5 both reconnect them: the MST is unique, MST(G - 0) not
TIED_RECONNECTION = ((2, 3), (8, 4), (3, 1), (0, 5), (5, 5))


@st.composite
def tied_lattices(draw):
    """3 to 40 points on the integer grid 0..5, some scaled by 7.3, either metric."""
    points = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           min_size=3, max_size=40))
    scale = draw(st.sampled_from([1.0, 7.3]))
    return make_instance(scale * np.array(points, dtype=float), rounded=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(tied_lattices(), st.booleans())
def test_node_zero_added_as_the_frozen_scan(inst, from_coords):
    limit = 2 if from_coords else instances.MATRIX_CACHE_LIMIT
    with mock.patch.object(instances, "MATRIX_CACHE_LIMIT", limit):
        parent, weight, _ = minimum_spanning_tree(inst)
        assert (inst.distances._matrix is None) == from_coords
        edges = reference_prim.minimum_spanning_tree(inst)
    assert parent.tolist() == [-1] + [a for a, _, _ in sorted(edges, key=lambda e: e[1])]
    want = 0.0
    for _, _, w in edges:
        want += w
    assert weight.hex() == want.hex()


def _step_one_cases():
    for (klass, n), seeds in STEP_ONE_SEEDS.items():
        for degree, seed in enumerate(seeds, start=1):
            yield pytest.param(klass, n, degree, seed, id=f"{klass}-{n}-deg{degree}")


class TestStepOneFromMst:
    @pytest.mark.parametrize("klass,n,degree,seed", _step_one_cases())
    def test_same_bits_as_the_dense_scan(self, klass, n, degree, seed):
        inst = GENERATORS[klass](n, seed, 1e6)
        parent, _, spanning = minimum_spanning_tree(inst)
        assert spanning is not None and np.count_nonzero(parent == 0) == degree
        tree = root_tree(parent)
        zeros = np.zeros(n)
        dense = prim_scan(inst.distances, zeros)[:2]  # what _one_tree(dist, zeros) scans
        assert spanning[0].dtype == dense[0].dtype
        assert spanning[0].tolist() == dense[0].tolist()
        assert spanning[1].tobytes() == dense[1].tobytes()
        got_w, got_deg, got_parent = _one_tree(inst.distances, zeros, spanning)
        want_w, want_deg, want_parent = _one_tree(inst.distances, zeros, dense)
        assert float(got_w).hex() == float(want_w).hex()
        assert got_deg.tolist() == want_deg.tolist()
        assert got_parent.tolist() == want_parent.tolist()
        for steps in (1, 100):
            assert (held_karp_ascent(inst, tree, steps, spanning=spanning)
                    == held_karp_ascent(inst, tree, steps))

    @pytest.mark.parametrize("name", ["rounded-lattice-120", "duplicates-80", "collinear-40",
                                      "tied-reconnection"])
    def test_ties_take_the_dense_scan(self, name, monkeypatch):
        tied = name == "tied-reconnection"
        inst = make_instance(TIED_RECONNECTION) if tied else INSTANCES[name]()
        parent, _, spanning = minimum_spanning_tree(inst)
        tree = root_tree(parent)
        assert spanning is None
        dense = []

        def recorded(dist, pi, spanning=None):
            dense.append(spanning is None)
            return _one_tree(dist, pi, spanning)

        monkeypatch.setattr(hk_bound, "_one_tree", recorded)
        for steps in (1, 100):
            got = held_karp_ascent(inst, tree, steps, spanning=spanning)
            assert got == held_karp_ascent(inst, tree, steps)
        assert all(dense)

    def test_memory(self):
        # the whole build: light pairs, components, their joins, the pass that
        # adds node 0 and the replay; the distance object is built before
        inst = generate_uniform(4000, 2000003, 1e6)  # node 0 has two MST neighbours
        assert inst.distances._matrix is None
        tracemalloc.start()
        try:
            assert minimum_spanning_tree(inst)[2] is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20


def _assert_frozen_mst(inst):
    """The MST's links and weight bits are the frozen scan's, and a handed
    over tree is the zero-potential dense scan's, bit for bit."""
    parent, weight, spanning = minimum_spanning_tree(inst)
    edges = reference_prim.minimum_spanning_tree(inst)
    assert parent.tolist() == [-1] + [a for a, _, _ in sorted(edges, key=lambda e: e[1])]
    want = 0.0
    for _, _, w in edges:
        want += w
    assert weight.hex() == want.hex()
    if spanning is not None and inst.n > 1:
        dense = prim_scan(inst.distances, np.zeros(inst.n))
        assert spanning[0].tolist() == dense[0].tolist()
        assert spanning[1].tobytes() == dense[1].tobytes()
    return spanning


def _components(inst):
    """The components of the light pairs of nodes 1..n-1, as their sizes."""
    u, v, length = spanning_tree._light_pairs(inst)
    return np.bincount(spanning_tree.boruvka(inst.n, u, v, length)[1][1:])


class TestSparseBuild:
    def test_two_far_clusters(self):
        near = generate_clustered(150, 21, 1.0).coords
        far = generate_clustered(150, 22, 1.0).coords + 1e4
        inst = make_instance(np.concatenate([near, far]))
        assert np.count_nonzero(_components(inst)) >= 2
        assert _assert_frozen_mst(inst) is not None

    @pytest.mark.parametrize("rounded", [False, True])
    def test_line_with_growing_gaps(self, rounded):
        # a doubling gap soon outgrows r (which holds several points at the
        # occupied cells' density), so the far points are each a component
        x = 2.0 ** np.arange(40)
        inst = make_instance(np.stack([x, 0.5 * x], axis=1), rounded=rounded)
        assert np.count_nonzero(_components(inst) == 1) >= 3
        _assert_frozen_mst(inst)

    def test_coincident_points(self):
        # 300 copies of one point read too many pairs at any r: no light
        # pairs, so every point is its own component
        rng = np.random.default_rng(5)
        inst = make_instance(np.concatenate([np.full((300, 2), 50.0), rng.random((20, 2)) * 100]))
        assert np.count_nonzero(_components(inst) == 1) == inst.n - 1
        assert _assert_frozen_mst(inst) is None
        _assert_frozen_mst(make_instance(np.concatenate([inst.coords[300:], inst.coords[300:310]])))

    @pytest.mark.parametrize("points", [
        # node 4 lies as far from 2 as from 3, both in node 1's component;
        # the scan reaches 3 first, the strict order takes 2
        [(40.0, 37.0), (2.3, 0.1), (-1.0, 0.0), (1.0, 0.0), (0.0, 9.0), (0.1, -1.7), (-2.2, -0.3)],
        # node 7 lies as far from 6 (in node 1's component) as from 2 (in
        # the component the join takes next): the scan keeps 6, the order 2
        [(50.0, 60.0), (-11.0, -0.7), (10.0, 0.0), (11.2, -0.5), (10.3, -1.3), (-10.4, -1.1),
         (-10.0, 0.0), (0.0, 30.0)],
    ])
    def test_equal_lengths_to_a_point_take_the_dense_scan(self, points):
        # with distinct light pairs, only the join's tie tests see these
        assert _assert_frozen_mst(make_instance(points)) is None

    @pytest.mark.parametrize("rounded", [False, True])
    def test_all_points_equal(self, rounded):
        assert _assert_frozen_mst(make_instance(np.full((30, 2), 7.0), rounded=rounded)) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_few_points(self, n):
        rng = np.random.default_rng(n)
        for points in (rng.random((n, 2)), rng.integers(0, 3, size=(n, 2)).astype(float), np.zeros((n, 2))):
            for rounded in (False, True):
                _assert_frozen_mst(make_instance(points, rounded=rounded))

    @pytest.mark.parametrize("seed", range(4))
    def test_rounded_lattices(self, seed):
        rng = np.random.default_rng(seed)
        for side, scale in ((12, 1.0), (40, 1.0), (30, 7.3)):
            _assert_frozen_mst(make_instance(scale * rng.integers(0, side, size=(150, 2)), rounded=True))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3.0, 30.0, 1e3]), st.booleans())
    def test_light_pairs_hold_every_pair_up_to_their_longest(self, seed, side, rounded):
        # a pair the grid misses would leave the light forest, and the
        # build, a cycle edge it should not take
        rng = np.random.default_rng(seed)
        inst = make_instance(np.round(rng.random((int(rng.integers(3, 80)), 2)) * side, 1), rounded=rounded)
        u, v, length = spanning_tree._light_pairs(inst)
        lo, hi = np.triu_indices(inst.n - 1, 1)
        d = inst.distances.pairs(lo + 1, hi + 1)
        want = d <= (length.max() if length.size else -1.0)
        assert sorted(zip(u.tolist(), v.tolist())) == sorted(zip((lo[want] + 1).tolist(), (hi[want] + 1).tolist()))
        assert length.tolist() == inst.distances.pairs(u, v).tolist()

    @settings(max_examples=300, deadline=None)
    @given(tied_lattices(), st.booleans())
    def test_tied_lattices(self, inst, from_coords):
        limit = 2 if from_coords else instances.MATRIX_CACHE_LIMIT
        with mock.patch.object(instances, "MATRIX_CACHE_LIMIT", limit):
            _assert_frozen_mst(inst)

    @pytest.mark.parametrize("klass", sorted(GENERATORS))
    @pytest.mark.parametrize("n", [1000, 4000])
    def test_step_one_gets_the_tree(self, klass, n):
        # without the handover the bound's step 1 takes a dense scan
        for seed in range(1, 6):
            assert minimum_spanning_tree(GENERATORS[klass](n, seed, 1e6))[2] is not None
