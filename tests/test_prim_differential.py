"""Differential tests for the row-at-a-time Prim kernels.

The minimum spanning tree and the dense 1-tree are compared bit for bit
against the frozen dense scans in ``reference_prim.py``, on inputs with many
ties (rounded integer points, duplicates, collinear points) as well as
generic ones.  The Held-Karp bound, whose ascent runs on a sparse
candidate graph, must be the value of a dense 1-tree and stay within the
quality gate of ``hk_gate.py`` against the reference ascent.  Every case
runs twice: with the distance matrix cached and with ``MATRIX_CACHE_LIMIT``
set low, so rows and candidate blocks are recomputed from coordinates.

The ascent's step 1, handed over by ``minimum_spanning_tree`` from the scan
it adds node 0 to, is compared bit for bit with the dense scan it replaces,
for every degree of node 0 from 1 to 4; inputs with ties must take the
dense scan.  Adding node 0 is compared with the frozen MST on small integer
lattices, where ties abound.
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

    def test_memory(self, monkeypatch):
        # the pass that adds node 0, given the scan's result
        inst = generate_uniform(4000, 2000003, 1e6)  # node 0 has two MST neighbours
        scan = prim_scan(inst.distances)
        monkeypatch.setattr(spanning_tree, "prim_scan", lambda dist: scan)
        tracemalloc.start()
        try:
            assert minimum_spanning_tree(inst)[2] is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20
