"""Differential tests for the row-at-a-time Prim kernels.

The minimum spanning tree, the 1-tree and the Held-Karp bound are compared
bit for bit against the frozen dense scans in ``reference_prim.py``, on
inputs with many ties (rounded integer points, duplicates, collinear points)
as well as generic ones.  Every case runs twice: with the distance matrix
cached and with ``MATRIX_CACHE_LIMIT`` set low, so rows are recomputed from
coordinates.
"""

import numpy as np
import pytest

import doubletree.instances as instances
from doubletree import (
    depth_first_shortcut,
    generate_clustered,
    generate_uniform,
    minimum_spanning_tree,
    root_tree,
)
from doubletree.hk_bound import _one_tree, held_karp_lower_bound

import reference_prim
from conftest import make_instance


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

    @pytest.mark.parametrize("potentials", ["zero", "random", "ascent-50"])
    def test_one_tree(self, build, name, potentials):
        inst = build(name)
        if potentials == "zero":
            pi = np.zeros(inst.n)
        elif potentials == "random":
            scale = float(np.ptp(inst.coords)) / 20.0
            pi = np.random.default_rng(3).normal(0.0, scale, inst.n)
        else:
            pi = _ascent_potentials(inst, root_tree(minimum_spanning_tree(inst)[0]), 50)
        got_w, got_deg = _one_tree(inst.distances, pi)
        want_w, want_deg = reference_prim._one_tree(inst.distances, pi)
        assert repr(got_w) == repr(want_w)
        assert got_deg.tolist() == want_deg.tolist()

    def test_bound(self, build, name):
        inst = build(name)
        tree = root_tree(minimum_spanning_tree(inst)[0])
        got = held_karp_lower_bound(inst, tree, iterations=50)
        assert repr(got) == repr(reference_prim.held_karp_lower_bound(inst, tree, iterations=50))
