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

Each 1-tree is a dense Prim scan that reads one distance row per step and
reduces it by the potentials on the fly, so the ascent needs O(n) memory
beyond the instance's distance object; above the distance cache the row is
recomputed from coordinates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .instances import Instance, PairwiseDistances
from .oracles import depth_first_shortcut
from .spanning_tree import RootedTree


def _one_tree(dist: PairwiseDistances, pi: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum 1-tree under distances reduced by the potentials.

    Returns its reduced weight and the node degree vector.  Node 0 is the
    special node; the spanning tree covers 1..n-1.  Prim reads one row per
    step, reduced as ``(d[j] - pi[j]) - pi``; tree nodes carry NaN in the
    subtracted copy of ``pi``, so they never compare below a key.  Ties go to
    the smallest index (first argmin, strict improvement), and the weight is
    summed left to right in pick order.
    """
    n = dist.n
    masked_pi = pi.copy()
    masked_pi[0] = np.nan
    # tree nodes (and the excluded node 0) keep key = +inf, so a plain argmin
    # always picks the cheapest candidate
    key = np.full(n, np.inf)
    key[1] = 0.0
    best_parent = np.full(n, -1, dtype=np.int64)
    picked = np.empty(n - 1)
    row = np.empty(n)
    better = np.empty(n, dtype=bool)
    for i in range(n - 1):
        j = int(key.argmin())
        picked[i] = key[j]
        key[j] = np.inf
        masked_pi[j] = np.nan
        np.subtract(dist.pairs(j, slice(None)), pi[j], out=row)
        np.subtract(row, masked_pi, out=row)
        np.less(row, key, out=better)
        np.copyto(key, row, where=better)
        np.copyto(best_parent, j, where=better)
    row0 = (dist.pairs(0, slice(None)) - pi[0]) - pi
    row0[0] = np.inf
    order = np.argsort(row0, kind="stable")
    e1, e2 = int(order[0]), int(order[1])
    # node 1 is picked first, with key 0.0 and no parent
    total = np.add.accumulate(picked)[-1] + float(row0[e1] + row0[e2])
    degrees = np.zeros(n, dtype=np.int64)
    degrees[2:] = 1
    np.add.at(degrees, best_parent[2:], 1)
    degrees[0] += 2
    degrees[e1] += 1
    degrees[e2] += 1
    return total, degrees


class AscentSummary(NamedTuple):
    """How a subgradient ascent went (a named tuple: cheaper to define at
    import than a frozen dataclass, and as immutable).

    ``iterations`` counts the 1-trees built (fewer than asked when the
    1-tree became a tour or reached the step target), ``best_iteration`` is
    the 1-based iteration that gave ``bound``, and ``final_gap`` is the
    depth-first tour weight minus ``bound``.
    """

    bound: float
    iterations: int
    halvings: int
    best_iteration: int
    final_gap: float


def held_karp_ascent(inst: Instance, tree: RootedTree, iterations: int = 1000) -> AscentSummary:
    """Subgradient ascent on 1-tree potentials, with its summary.

    ``tree`` is the instance's rooted minimum spanning tree (``root_tree`` of
    the parent links ``minimum_spanning_tree`` returns); its depth-first tour
    sets the step target.
    The bound is always a valid lower bound on the optimal tour weight;
    deterministic for fixed (inst, iterations).
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
    best_at = 0
    lam = 2.0
    patience = max(1, iterations // 10)
    stall = 0
    halvings = 0
    for it in range(1, iterations + 1):
        reduced, degrees = _one_tree(dist, pi)
        bound = reduced + 2.0 * float(pi.sum())
        if bound > best:
            best = bound
            best_at = it
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                lam *= 0.5
                halvings += 1
                stall = 0
        g = 2.0 - degrees
        norm_sq = float(g @ g)
        if norm_sq == 0.0:
            break  # the 1-tree is a tour: the bound is tight
        gap = upper - bound
        if gap <= 0.0:
            break
        pi = pi + lam * gap / norm_sq * g
    return AscentSummary(float(best), it, halvings, best_at, float(upper - best))


def held_karp_lower_bound(inst: Instance, tree: RootedTree, iterations: int = 1000) -> float:
    """Best 1-tree Lagrangian bound found by ``held_karp_ascent``."""
    return held_karp_ascent(inst, tree, iterations).bound
