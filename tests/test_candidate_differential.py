"""Differential tests for the grid candidate build.

``hk_bound._candidate_edges`` takes the picks of every row the grid can
certify from the grid and sends the other rows through the dense row pass.
Its (u, v) arrays must equal those of the frozen dense build in
``reference_candidates.py`` exactly.  The inputs cover generic points, where
the grid certifies most rows, and the ones where ties or the window's bounds
send rows to the dense pass: rounded integer points (ties at the cut of the
nearest set among rows the quadrants would certify), a rounded lattice,
duplicated and collinear points, all points coincident (zero span), all y
equal (one grid row), points on a few shared x or y values, which sit on
the quadrants' half-open edges, spans too small to square, and a
hand-built row whose window misses a nearer point.  Each runs with the
distance matrix cached and with distances computed from coordinates.
"""

import numpy as np
import pytest

import doubletree.instances as instances
from doubletree import generate_clustered, generate_uniform
from doubletree.hk_bound import _candidate_edges, _grid_picks, _one_tree

import reference_candidates
from conftest import make_instance


def _shared(n, seed, axis, values):
    """Random points with coordinate ``axis`` on ``values`` evenly spaced lines."""
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2)) * 1e4
    xy[:, axis] = rng.integers(0, values, n) * 1e3
    return make_instance(xy)


def _rounded_lattice(n, seed):
    rng = np.random.default_rng(seed)
    return make_instance(rng.integers(0, 12, size=(n, 2)).astype(float), rounded=True)


def _duplicates(n, seed):
    base = generate_uniform(n // 2, seed, 1e6).coords
    return make_instance(np.concatenate([base, base[::-1]]))


def _collinear(n, seed):
    t = np.random.default_rng(seed).permutation(n).astype(float)
    return make_instance(np.stack([3.0 * t, 2.0 * t], axis=1))


def _one_row(n, seed):
    x = np.random.default_rng(seed).random(n) * 1e6
    return make_instance(np.stack([x, np.full(n, 5.0)], axis=1))


def _beyond_the_window():
    """Node 1 at (95, 95) reads its window in the top right corner of a
    10 x 10 grid over [0, 100]^2 (cells of side 10, 201 points besides node
    0).  Its fifth-nearest read, node 11 at (99.9, 70.2), is farther than
    nodes 2 and 3 just past the window's west side at x = 70, yet every
    quadrant's picks lie below their bounds, so only the bound on the
    nearest set keeps the grid from dropping the edge (1, 3).  Nodes 4-6 keep
    node 1 out of the picks of nodes 2 and 3."""
    near = [(95, 95), (69.9, 94), (69.95, 96.5), (65, 97), (62, 90), (60, 94), (93, 97),
            (95, 100), (90, 90), (85, 92), (99.9, 70.2), (100, 70.1), (0, 0)]
    rest = np.random.default_rng(29).random((202 - len(near), 2)) * [100, 40]
    return make_instance(np.concatenate([rest[:1], near, rest[1:]]))


SIZES = (13, 200, 1000, 4000)
INSTANCES = {
    **{f"uniform-{n}": (lambda n=n: generate_uniform(n, 21, 1e6)) for n in SIZES},
    **{f"clustered-{n}": (lambda n=n: generate_clustered(n, 22, 1e6)) for n in SIZES},
    "rounded-lattice-300": lambda: _rounded_lattice(300, 23),
    "rounded-1000": lambda: make_instance(
        np.random.default_rng(32).integers(0, 2000, size=(1000, 2)).astype(float), rounded=True),
    "duplicates-400": lambda: _duplicates(400, 24),
    "collinear-300": lambda: _collinear(300, 25),
    "coincident-100": lambda: make_instance(np.full((100, 2), 7.5)),
    "one-row-400": lambda: _one_row(400, 26),
    "shared-x-500": lambda: _shared(500, 27, 0, 4),
    "shared-y-500": lambda: _shared(500, 28, 1, 6),
    "beyond-the-window": _beyond_the_window,
    # spans whose product underflows to 0
    "tiny-span-300": lambda: make_instance(generate_uniform(300, 30).coords * 1e-160),
    "subnormal-span-300": lambda: make_instance(generate_uniform(300, 31).coords * 1e-310),
}
# the grid certifies most rows of these, so they test its picks, not the fallback
GENERIC = ("uniform-1000", "uniform-4000", "clustered-1000", "clustered-4000")
CASES = [(name, from_coords) for name in INSTANCES for from_coords in (False, True)
         if not (from_coords and name.endswith("-4000"))]  # n=4000 is above the cache


@pytest.mark.parametrize("name, from_coords", CASES,
                         ids=[f"{name}-{'from-coords' if c else 'default'}" for name, c in CASES])
def test_candidates_match_the_dense_build(monkeypatch, name, from_coords):
    if from_coords:
        monkeypatch.setattr(instances, "MATRIX_CACHE_LIMIT", 2)
    inst = INSTANCES[name]()
    assert inst.distances.cached == (inst.n <= instances.MATRIX_CACHE_LIMIT)
    _, _, spanning = _one_tree(inst.distances, np.zeros(inst.n))
    got = _candidate_edges(inst, spanning)
    want = reference_candidates._candidate_edges(inst, spanning)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if name in GENERIC:  # at least 40 % of the rows are the grid's
        assert _grid_picks(inst)[2].size < 0.6 * (inst.n - 1)


def test_a_nearer_point_beyond_the_window_sends_the_row_to_the_dense_pass():
    inst = _beyond_the_window()
    assert 1 in _grid_picks(inst)[2]
    u, v = reference_candidates._candidate_edges(inst, np.full(inst.n, -1))
    assert 3 in v[u == 1]
