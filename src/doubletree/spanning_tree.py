"""Minimum spanning trees, rooting, and the degree-increasing transformation.

The MST is built with a dense O(n^2) Prim scan, which matches the complete
graph induced by a metric instance.  Ties are broken toward the
lexicographically smallest (min(a,b), max(a,b)) edge pair, so the tree is
deterministic even for degenerate inputs with duplicate points.

A tree's traversal order is decided here alone: ``RootedTree.from_parents``
walks the tree once and stores its preorder and postorder, children in
ascending id order, which the table pass and the oracles read instead of
walking the tree again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InternalInvariantError
from .instances import Instance


@dataclass(frozen=True)
class TreeEdge:
    a: int
    b: int
    w: float


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Rooted tree over nodes 0..n-1 with per-node ordered child lists.

    children lists are sorted ascending by node index, and ``preorder`` and
    ``postorder`` visit children in that order, so every subtree T(u) is the
    preorder run of ``subtree_size[u]`` nodes starting at u, and every child
    comes before its parent in ``postorder``.  ``max_children`` is the
    largest child count over all nodes (the branching bound the subset tables
    grow exponentially in).
    """

    n: int
    root: int
    parent: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    subtree_size: tuple[int, ...]
    max_children: int
    preorder: tuple[int, ...]
    postorder: tuple[int, ...]

    @staticmethod
    def from_parents(n: int, root: int, parent: Sequence[Optional[int]]) -> "RootedTree":
        """Build the derived fields from parent links in one iterative walk."""
        if len(parent) != n:
            raise ValueError(f"expected {n} parent links, got {len(parent)}")
        if not 0 <= root < n:
            raise ValueError(f"root {root} outside 0..{n - 1}")
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            p = parent[v]
            if v == root:
                if p is not None:
                    raise ValueError("root must have no parent")
                continue
            if p is None:
                raise ValueError(f"non-root node {v} has no parent")
            if not 0 <= p < n:
                raise ValueError(f"node {v} has parent {p} outside 0..{n - 1}")
            children[p].append(v)
        for c in children:
            c.sort()

        depth = [0] * n
        size = [1] * n
        preorder: list[int] = []
        postorder: list[int] = []
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            u, done = stack.pop()
            if done:
                postorder.append(u)
                if u != root:
                    size[parent[u]] += size[u]
                continue
            preorder.append(u)
            stack.append((u, True))
            for v in reversed(children[u]):
                depth[v] = depth[u] + 1
                stack.append((v, False))
        if len(preorder) != n:
            raise ValueError("parent links do not form a single tree")
        return RootedTree(
            n=n,
            root=root,
            parent=tuple(parent),
            children=tuple(tuple(c) for c in children),
            depth=tuple(depth),
            subtree_size=tuple(size),
            max_children=max((len(c) for c in children), default=0),
            preorder=tuple(preorder),
            postorder=tuple(postorder),
        )


def minimum_spanning_tree(inst: Instance) -> list[TreeEdge]:
    """Prim's algorithm with a dense row-at-a-time scan; deterministic under ties.

    Each step reads one distance row; tree nodes carry NaN in the added mask,
    so they never compare below or equal to a key, and their key is +inf.
    The tie rules only run when a tie exists: among equal minimum keys the
    lexicographically smallest (min, max) edge wins, and an equal row value
    moves a node to the smaller pair.
    """
    n = inst.n
    dist = inst.distances
    key = np.full(n, np.inf)
    key[0] = 0.0
    best_parent = np.full(n, -1, dtype=np.int64)
    tree_mask = np.zeros(n)
    row = np.empty(n)
    better = np.empty(n, dtype=bool)
    tied = np.empty(n, dtype=bool)
    edges: list[TreeEdge] = []
    for _ in range(n):
        j = int(key.argmin())
        m = key[j]
        if best_parent[j] >= 0 and np.count_nonzero(key == m) > 1:
            # among equal-key vertices prefer the lexicographically smallest
            # (min, max) edge pair to the tree, then the smallest vertex index
            pairs = [
                (min(best_parent[c], c), max(best_parent[c], c), c)
                for c in np.flatnonzero(key == m)
            ]
            pairs.sort()
            j = int(pairs[0][2])
        if best_parent[j] >= 0:
            edges.append(TreeEdge(int(best_parent[j]), j, float(key[j])))
        key[j] = np.inf
        tree_mask[j] = np.nan
        np.add(dist.pairs(j, slice(None)), tree_mask, out=row)
        np.equal(row, key, out=tied)  # before the update, which only takes row < key
        np.less(row, key, out=better)
        np.copyto(key, row, where=better)
        np.copyto(best_parent, j, where=better)
        if tied.any():
            # ties on key: keep the edge with the smaller (min, max) pair
            idx = np.flatnonzero(tied & (best_parent >= 0))
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


def tree_weight(edges: Sequence[TreeEdge]) -> float:
    return float(sum(e.w for e in edges))


def root_tree(edges: Sequence[TreeEdge], n: int) -> RootedTree:
    """Root a spanning tree at its lowest-indexed degree-1 node."""
    if n == 1:
        if edges:
            raise ValueError("single node tree cannot have edges")
        return RootedTree.from_parents(1, 0, [None])
    if len(edges) != n - 1:
        raise ValueError(f"a spanning tree on {n} nodes needs {n - 1} edges, got {len(edges)}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        if e.a == e.b or not (0 <= e.a < n and 0 <= e.b < n):
            raise ValueError(f"bad edge ({e.a}, {e.b})")
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    root = next((u for u in range(n) if len(adj[u]) == 1), -1)
    if root < 0:
        raise ValueError("tree has no degree-1 node; input is not a tree")

    parent: list[Optional[int]] = [None] * n
    visited = [False] * n
    visited[root] = True
    stack = [root]
    seen = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not visited[v]:
                visited[v] = True
                parent[v] = u
                seen += 1
                stack.append(v)
    if seen != n:
        raise ValueError("edges do not connect all nodes; input is not a tree")
    return RootedTree.from_parents(n, root, parent)


def degree_increase(tree: RootedTree, limit_D: int) -> RootedTree:
    """Breadth-first child reattachment under a child-count cap.

    Walking a FIFO queue seeded with the grandchildren of the root, each node
    v hands all of its children to its current parent (and becomes a leaf)
    whenever the parent's resulting child count, i.e. the two current child
    counts combined, stays within ``limit_D``.  Counts are evaluated against
    the current, partially transformed tree.  With limit 1 nothing ever
    moves; every tour admissible for the input tree stays admissible for the
    output tree.
    """
    if limit_D < 1:
        raise ValueError("limit_D must be >= 1")
    n = tree.n
    if n <= 2:
        return tree
    if len(tree.children[tree.root]) != 1:
        raise InternalInvariantError(
            f"expected a single root child, found {len(tree.children[tree.root])}"
        )
    parent: list[Optional[int]] = list(tree.parent)
    children: list[list[int]] = [list(c) for c in tree.children]
    r_prime = tree.children[tree.root][0]
    queue = deque(children[r_prime])
    while queue:
        v = queue.popleft()
        queue.extend(children[v])
        p = parent[v]
        if len(children[p]) + len(children[v]) <= limit_D:
            for c in children[v]:
                parent[c] = p
                children[p].append(c)
            children[v] = []
    return RootedTree.from_parents(n, tree.root, parent)
