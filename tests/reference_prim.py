"""Frozen reference: the dense Prim scans the row-at-a-time kernels replaced.

This is ``hk_bound._one_tree``, ``hk_bound.held_karp_lower_bound`` and
``spanning_tree.minimum_spanning_tree`` as they stood before the
row-at-a-time rewrite, kept verbatim (only their imports changed, the full
matrix is read through ``conftest.distance_matrix``, and the spanning
tree's edges are plain ``(a, b, w)`` tuples) so the differential
tests can compare 1-trees, bounds and spanning trees bit for bit against
them.  Do not edit or optimise it.
"""

from __future__ import annotations

import numpy as np

from doubletree.errors import InternalInvariantError
from doubletree.instances import Instance, PairwiseDistances
from doubletree.oracles import depth_first_shortcut
from doubletree.spanning_tree import RootedTree

from conftest import distance_matrix


def _one_tree(dist: PairwiseDistances, pi: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum 1-tree under distances reduced by the potentials.

    Returns its reduced weight and the node degree vector.  Node 0 is the
    special node; the spanning tree covers 1..n-1 (dense scan, deterministic
    smallest-index tie-breaks).
    """
    n = dist.n
    try:
        reduced = distance_matrix(dist) - pi[:, None] - pi[None, :]
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


def minimum_spanning_tree(inst: Instance) -> list[tuple[int, int, float]]:
    """Prim's algorithm with a dense scan; deterministic under ties."""
    n = inst.n
    if n == 1:
        return []
    dist = inst.distances
    INF = np.inf
    key = np.full(n, INF)
    best_parent = np.full(n, -1, dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    key[0] = 0.0
    edges: list[tuple[int, int, float]] = []
    for _ in range(n):
        masked = np.where(in_tree, INF, key)
        candidates = np.flatnonzero(masked == masked.min())
        # among equal-key vertices prefer the lexicographically smallest
        # (min, max) edge pair to the tree, then the smallest vertex index
        j = candidates[0]
        if len(candidates) > 1 and best_parent[j] >= 0:
            pairs = [
                (min(best_parent[c], c), max(best_parent[c], c), c) for c in candidates
            ]
            pairs.sort()
            j = pairs[0][2]
        j = int(j)
        in_tree[j] = True
        if best_parent[j] >= 0:
            edges.append((int(best_parent[j]), j, float(key[j])))
        row = dist.pairs(j, slice(None))
        out = ~in_tree
        better = out & (row < key)
        key[better] = row[better]
        best_parent[better] = j
        # ties on key: keep the edge with the smaller (min, max) pair
        tied = out & (row == key) & (best_parent != j) & (best_parent >= 0)
        if np.any(tied):
            idx = np.flatnonzero(tied)
            cur = best_parent[idx]
            new_lo = np.minimum(j, idx)
            new_hi = np.maximum(j, idx)
            cur_lo = np.minimum(cur, idx)
            cur_hi = np.maximum(cur, idx)
            prefer = (new_lo < cur_lo) | ((new_lo == cur_lo) & (new_hi < cur_hi))
            best_parent[idx[prefer]] = j
    if len(edges) != n - 1:
        raise InternalInvariantError("Prim produced a non-spanning edge set")
    return edges
