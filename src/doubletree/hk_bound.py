"""Held-Karp style lower bound via Lagrangian ascent on node potentials.

A 1-tree (spanning tree over nodes 1..n-1 plus the two cheapest edges out of
node 0) relaxes the tour polytope, so its weight under any potential vector
is a valid lower bound on the optimal tour.  Subgradient ascent pushes the
potentials toward equal node degrees; the best bound seen is returned, so the
result is valid regardless of convergence.

Defaults: 1000 iterations, step factor 2.0 halved after every
``iterations // 10`` consecutive non-improving steps, upper bound from the
depth-first traversal tour of the rooted minimum spanning tree.  The ascent
is fully deterministic.
"""

from __future__ import annotations

import numpy as np

from .instances import Instance, PairwiseDistances
from .oracles import depth_first_shortcut
from .spanning_tree import RootedTree


def _one_tree(dist: PairwiseDistances, pi: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum 1-tree under distances reduced by the potentials.

    Returns its reduced weight and the node degree vector.  Node 0 is the
    special node; the spanning tree covers 1..n-1 (dense scan, deterministic
    smallest-index tie-breaks).
    """
    n = dist.n
    try:
        reduced = dist.matrix() - pi[:, None] - pi[None, :]
    except MemoryError:
        reduced = None

    def row_of(j: int) -> np.ndarray:
        if reduced is not None:
            return reduced[j]
        return dist.pairs(j, slice(None)) - pi[j] - pi

    degrees = np.zeros(n, dtype=np.int64)
    # nodes inside the tree (and the excluded node 0) keep key = +inf and
    # outside = False, so a plain argmin always picks the cheapest candidate
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    key = np.full(n, np.inf)
    best_parent = np.full(n, -1, dtype=np.int64)
    key[1] = 0.0
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(key))
        if best_parent[j] >= 0:
            total += key[j]
            degrees[j] += 1
            degrees[best_parent[j]] += 1
        outside[j] = False
        key[j] = np.inf
        row = row_of(j)
        better = outside & (row < key)
        key[better] = row[better]
        best_parent[better] = j
    row0 = row_of(0).copy()
    row0[0] = np.inf
    order = np.argsort(row0, kind="stable")
    e1, e2 = int(order[0]), int(order[1])
    total += float(row0[e1] + row0[e2])
    degrees[0] += 2
    degrees[e1] += 1
    degrees[e2] += 1
    return total, degrees


def held_karp_lower_bound(inst: Instance, tree: RootedTree, iterations: int = 1000) -> float:
    """Best 1-tree Lagrangian bound found by subgradient ascent.

    ``tree`` is the instance's rooted minimum spanning tree (``root_tree`` of
    ``minimum_spanning_tree``); its depth-first tour sets the step target.
    Always a valid lower bound on the optimal tour weight; deterministic for
    fixed (inst, iterations).
    """
    n = inst.n
    if n < 3:
        raise ValueError("the 1-tree bound needs n >= 3")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    dist = inst.distances
    upper = depth_first_shortcut(inst, tree).weight

    pi = np.zeros(n)
    best = -np.inf
    lam = 2.0
    patience = max(1, iterations // 10)
    stall = 0
    for _ in range(iterations):
        reduced, degrees = _one_tree(dist, pi)
        bound = reduced + 2.0 * float(pi.sum())
        if bound > best:
            best = bound
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                lam *= 0.5
                stall = 0
        g = 2.0 - degrees
        norm_sq = float(g @ g)
        if norm_sq == 0.0:
            break  # the 1-tree is a tour: the bound is tight
        gap = upper - bound
        if gap <= 0.0:
            break
        pi = pi + lam * gap / norm_sq * g
    return float(best)
