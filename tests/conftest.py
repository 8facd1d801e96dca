"""Shared fixtures and small instance factories."""

from __future__ import annotations

import math

import numpy as np
import pytest

from doubletree import (
    Instance,
    Metric,
    generate_uniform,
    minimum_spanning_tree,
    root_tree,
)
from doubletree.upsweep import (
    _LEAF,
    PreorderLayout,
    UpsweepStats,
    _empty_masks,
    _nonempty_masks,
)


def make_instance(coords, name="test", rounded=False):
    metric = Metric.EUC_2D if rounded else Metric.EUC_2D_REAL
    return Instance(name, coords, metric)


def mst_tree(inst):
    return root_tree(minimum_spanning_tree(inst)[0])


def distance(inst, a, b):
    """d(a, b) as a Python float, read through the instance's distance object."""
    return float(inst.distances.pairs(a, b))


def distance_matrix(dist):
    """Every d(a, b) of a distance object as one (n, n) block."""
    idx = np.arange(dist.n)
    return dist.pairs(idx[:, None], idx)


def subtree_nodes(tree, u):
    """All descendants of u including u itself, by a stack walk over children."""
    out = []
    stack = [u]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(tree.children[x])
    return out


def tree_distance(tree, a, b):
    """Number of edges on the unique a-b path (walk both ends up to the LCA)."""
    da, db = tree.depth[a], tree.depth[b]
    steps = 0
    while da > db:
        a = tree.parent[a]
        da -= 1
        steps += 1
    while db > da:
        b = tree.parent[b]
        db -= 1
        steps += 1
    while a != b:
        a = tree.parent[a]
        b = tree.parent[b]
        steps += 2
    return steps


def max_triangle_violation(inst):
    """Largest d(a,c) - d(a,b) - d(b,c) over all triples (<= 0 for a metric)."""
    d = distance_matrix(inst.distances)
    worst = -math.inf
    for b in range(inst.n):
        # d[a,c] - d[a,b] - d[b,c] maximised over a, c for fixed midpoint b
        slack = d - d[:, b][:, None] - d[b, :][None, :]
        worst = max(worst, float(slack.max()))
    return worst


def node_table(inst, layout, u, tables, k, stats, bridges):
    """u's ``(2^c, size[u])`` table, built from its children's tables by the
    upsweep's two steps: the empty mask, as a batch of one node, and at two
    or more children the nonempty masks.

    Stores each child v's bridges in ``bridges[v]``, a column block of u's
    bridge store; rows V that contain v itself are never computed and keep
    the absent marker -1.
    """
    cu = layout.tree.children[u]
    missing = [v for v in cu if v not in tables]
    if missing:
        raise ValueError(f"children {missing} of {u} not processed yet")
    if not cu:
        return _LEAF
    ((table, bw, bxy),) = _empty_masks(inst, layout, [u], tables, k, stats, bridges)
    if len(cu) > 1:
        _nonempty_masks(inst, layout, u, table, bw, bxy, tables, k, stats, bridges)
    return table


class SweepTables:
    """Every node's upsweep table, built with ``node_table`` in postorder and
    all kept (the upsweep itself releases each child table after its parent)."""

    def __init__(self, inst, tree, k=None, schedule=None):
        self.layout = PreorderLayout.of(tree)
        self.stats = UpsweepStats()
        self.bridges = [None] * inst.n
        self.tables = {}
        for u in schedule or tree.postorder:
            self.tables[u] = node_table(
                inst, self.layout, u, self.tables, k, self.stats, self.bridges
            )

    def dests(self, u, mask):
        """(destination ids ascending, weights) of the finite entries of row ``mask``."""
        row = self.tables[u][mask]
        cols = np.flatnonzero(row < np.inf)
        ids = self.layout.order[self.layout.pre[u] + cols]
        o = np.argsort(ids)
        return ids[o], row[cols[o]]


def random_instance(n, seed, box=1.0):
    return generate_uniform(n, seed, box)


@pytest.fixture
def collinear3():
    # nodes 0, 1, 2 on a line at unit spacing
    return make_instance([(0, 0), (1, 0), (2, 0)], name="collinear3")


@pytest.fixture
def unit_square():
    return make_instance([(0, 0), (1, 0), (1, 1), (0, 1)], name="square")


@pytest.fixture
def star5():
    # center 0 with four unit-distance arms
    return make_instance([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], name="star5")


STAR5_BEST = 2.0 + 3.0 * math.sqrt(2.0)
