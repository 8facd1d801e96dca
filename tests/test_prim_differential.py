"""Differential tests for the row-at-a-time Prim kernels.

The minimum spanning tree and the dense 1-tree are compared bit for bit
against the frozen dense scans in ``reference_prim.py``, on inputs with many
ties (rounded integer points, duplicates, collinear points) as well as
generic ones.  The Held-Karp bound, whose ascent runs on a sparse
candidate graph, must be the value of a dense 1-tree and stay within the
quality gate of ``hk_gate.py`` against the reference ascent.  Every case
runs twice: with the distance matrix cached and with ``MATRIX_CACHE_LIMIT``
set low, so rows and candidate blocks are recomputed from coordinates.
"""

import numpy as np
import pytest

import doubletree.hk_bound as hk_bound
import doubletree.instances as instances
from doubletree import (
    depth_first_shortcut,
    generate_clustered,
    generate_uniform,
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
    # from coordinates, the scan compacts its fringe every max(64, n // 8) picks: 7-8 times here
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
        parent, weight = minimum_spanning_tree(inst)
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

        def recorded(dist, pi):
            out = _one_tree(dist, pi)
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
