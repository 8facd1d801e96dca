"""Minimum spanning trees, rooting, and the degree-increasing transformation.

The MST is built in two passes.  A dense O(n^2) Prim scan, which matches
the complete graph induced by a metric instance, spans nodes 1..n-1.  Above
the distance cache the scan computes each row from coordinates over its
fringe, the nodes not yet in the tree, and drops the picked nodes from the
fringe at a fixed interval, so it computes about half the distances of n
full rows.  ``minimum_spanning_tree`` then adds node 0 by one Prim pass
over node 0's edges and the scan's tree (Chin & Houck 1978).  Both follow
one strict edge order (weight, then lower end id, then higher end id), so
the tree is the unique MST under that order and deterministic even with
duplicate points.  The pass hands over parent links, rooted at node 0, and
``root_tree`` re-roots them at the lowest-indexed leaf by reversing the
links on one path.  Given node potentials, the same scan builds the
Held-Karp bound's dense 1-trees.

The scan also reports whether any of its tie tests fired.  If none did,
its tree over nodes 1..n-1 is the one the scan builds at zero potentials
(the Held-Karp bound's first 1-tree), bit for bit, and
``minimum_spanning_tree`` hands it over, so that 1-tree needs no second
O(n^2) scan.

A tree's traversal order is decided here alone: ``RootedTree.from_parents``
walks the tree once and stores its preorder and postorder, children in
ascending id order, which the table pass and the oracles read instead of
walking the tree again.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InternalInvariantError
from .instances import Instance, PairwiseDistances


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
    def from_parents(parent: Sequence[Optional[int]]) -> "RootedTree":
        """Build the derived fields from one link per node, in one iterative walk.

        The root is the one node whose link is None.
        """
        n = len(parent)
        if parent.count(None) != 1:
            raise ValueError("parent links need exactly one root (None)")
        root = parent.index(None)
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):  # ascending v, so every child list is sorted
            if p is not None:
                if not 0 <= p < n:
                    raise ValueError(f"node {v} has parent {p} outside 0..{n - 1}")
                children[p].append(v)

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


def prim_scan(
    dist: PairwiseDistances, pi: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The one dense Prim scan over nodes 1..n-1: parent links, the picked
    keys in pick order and whether a tie test fired.

    Both modes span nodes 1..n-1 from node 1 and leave node 0 out, as a
    1-tree does; ``picked`` starts with node 1's key, 0.0, and nodes 0 and
    1 keep the link -1.  The scan keeps its fringe, the nodes not yet in the
    tree, as arrays in ascending id order: ids, keys, links, the subtracted
    mask and the x and y coordinates.  Each step reads one distance row over
    them; a picked node gets NaN in the mask, so it never compares below or
    equal to a key, and the key +inf.  With a cached matrix the row is a
    view and the arrays keep every node.  Above the cache the row is
    computed from the fringe's coordinates, and every ``max(1, n // 8)``
    picks the arrays drop the picked nodes.
    Id order keeps the first argmin and every tie rule below, so both ways
    give the same bits.

    Without potentials the scan returns the unique MST of nodes 1..n-1 under
    the strict edge order (weight, lower end id, higher end id).  Ties are
    tested for at each step and resolved only when they exist: the pick
    takes the smallest edge pair among equal minimum keys, and an equal row
    value moves a node to a smaller parent id.  If neither test ever fires,
    every pick's edge is the one lightest edge across its cut, by value
    alone, so the tree is the unique MST under any tie rule and the scan
    with zero potentials builds it with the same bits; the third value is
    True when a test fired.

    With potentials ``pi`` the weights are the reduced ``(d[j] - pi[j]) - pi``.
    Ties go to the smallest index (first argmin) and a key moves only on a
    strict improvement, the rule the Held-Karp bound's 1-trees were fixed
    under.  No tie is tested for, and the third value is False.
    """
    n = dist.n
    ids = np.arange(1, n)
    mask = np.zeros(n - 1) if pi is None else pi[1:].copy()
    key = np.full(n - 1, np.inf)
    key[:1] = 0.0  # node 1, where there is one
    link = np.full(n - 1, -1, dtype=np.int64)
    best_parent = np.full(n, -1, dtype=np.int64)
    picked = np.empty(n - 1)
    buffers = (np.empty(n - 1), np.empty(n - 1, dtype=bool), np.empty(n - 1, dtype=bool))
    row, better, tied = buffers
    cols = slice(1, None)
    x, y = dist.xy[cols, 0].copy(), dist.xy[cols, 1].copy()
    cached = dist.cached
    every = n if cached else max(1, n // 8)
    tie = False
    for i in range(n - 1):
        if i and i % every == 0:
            # a picked node's link is final: the NaN in its mask keeps it fixed
            best_parent[ids] = link
            keep = np.flatnonzero(~np.isnan(mask))
            ids, mask, key, link, x, y = (a.take(keep) for a in (ids, mask, key, link, x, y))
            row, better, tied = (b[:keep.size] for b in buffers)
        j = int(key.argmin())
        if pi is None and link[j] >= 0 and np.count_nonzero(key == key[j]) > 1:
            # no two share an edge pair: parents are in the tree, candidates not
            tie = True
            cand = np.flatnonzero(key == key[j])
            par, cid = link[cand], ids[cand]
            j = int(cand[np.lexsort((np.maximum(par, cid), np.minimum(par, cid)))[0]])
        jid = int(ids[j])
        picked[i] = key[j]
        key[j] = np.inf
        mask[j] = np.nan
        d = dist.pairs(jid, cols) if cached else dist.to_points(jid, x, y)
        if pi is None:
            np.subtract(d, mask, out=row)
            np.equal(row, key, out=tied)  # before the update, which only takes row < key
        else:
            np.subtract(d, pi[jid], out=row)
            np.subtract(row, mask, out=row)
        np.less(row, key, out=better)
        np.copyto(key, row, where=better)
        np.copyto(link, jid, where=better)
        if pi is None and tied.any():
            tie = True
            link[tied & (link > jid)] = jid
    best_parent[ids] = link
    return best_parent, picked, tie


def minimum_spanning_tree(
    inst: Instance,
) -> tuple[np.ndarray, float, Optional[tuple[np.ndarray, np.ndarray]]]:
    """The unique MST under the strict edge order: parent links, weight and
    the scan's tree over nodes 1..n-1 where it had no tie.

    ``prim_scan`` without potentials gives the tree S over nodes 1..n-1;
    one Prim pass from node 0 over S's n - 2 edges and node 0's n - 1 edges
    then adds node 0.  Every edge of the MST off node 0 is in S: any other
    edge is the heaviest, in the strict order, of its cycle through S.  So
    the pass, which takes the least edge of its cut in the strict order at
    each step, picks in the order of a dense scan from node 0, with its
    links and lengths ``d - 0.0 = d``.  Node 0's edges come in that order
    from one sort, the edges of S through a heap, and the loop reads and
    writes the arrays through memoryviews, which hand over Python numbers
    without holding one object per entry.

    The links are rooted at node 0 (-1 there); the weight is the pass's keys,
    from node 0's 0.0, summed left to right in pick order.  The third value
    is the scan's (links, picked keys) when no tie test of the scan fired
    (see ``prim_scan``), what the scan builds at zero potentials, and None
    otherwise.
    """
    n = inst.n
    dist = inst.distances
    scan_parent, scan_picked, tie = prim_scan(dist)
    if np.count_nonzero(scan_parent < 0) != min(n, 2):
        raise InternalInvariantError("Prim produced a non-spanning tree")
    # S's edges, each from both ends, grouped by their first end
    kids = np.arange(2, n)
    ends, other = np.concatenate([kids, scan_parent[2:]]), np.concatenate([scan_parent[2:], kids])
    order = np.argsort(ends, kind="stable")
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=start[1:])
    ends, other = ends[order], other[order]
    d0 = dist.pairs(0, slice(1, None))
    near = np.argsort(d0, kind="stable")  # node 0's edges in (length, id) order, as id - 1
    parent = np.full(n, -1, dtype=np.int64)
    picked = np.zeros(n)
    done = bytearray(n)
    done[0] = 1
    start, nbr, length = memoryview(start), memoryview(other), memoryview(dist.pairs(ends, other))
    near, near_len = memoryview(near + 1), memoryview(d0[near])
    link, keys = memoryview(parent), memoryview(picked)
    # heap entries (length, lower end, higher end, the end outside)
    heap: list[tuple[float, int, int, int]] = []
    pop, push = heapq.heappop, heapq.heappush
    v = p = 0
    for i in range(1, n):
        for e in range(start[v], start[v + 1]):
            u = nbr[e]
            if not done[u]:
                push(heap, (length[e], u, v, u) if u < v else (length[e], v, u, u))
        while done[near[p]]:
            p += 1
        while heap and done[heap[0][3]]:
            pop(heap)
        # on equal lengths node 0's edge is the lesser: its lower end is 0
        if heap and heap[0][0] < near_len[p]:
            keys[i], lo, hi, v = pop(heap)
            link[v] = lo + hi - v
        else:
            keys[i], v = near_len[p], near[p]
            link[v] = 0
            p += 1
        done[v] = 1
    return parent, float(np.add.accumulate(picked)[-1]), None if tie else (scan_parent, scan_picked)


def root_tree(parent: Sequence[int]) -> RootedTree:
    """Re-root a spanning tree's parent links at its lowest-indexed degree-1 node.

    ``parent`` holds one link per node with -1 at the current root, as
    ``minimum_spanning_tree`` returns them; the links on the path from the
    new root up to the old one are reversed.
    """
    links = np.asarray(parent, dtype=np.int64)
    n = links.size
    bad = np.flatnonzero((links < -1) | (links >= n))
    if bad.size:
        raise ValueError(f"node {bad[0]} has parent {links[bad[0]]} outside 0..{n - 1}")
    linked = links >= 0
    if np.count_nonzero(~linked) != 1:
        raise ValueError("parent links need exactly one root (-1)")
    degree = np.bincount(links[linked], minlength=n) + linked
    root = int(np.argmax(degree == 1))
    rerooted: list[Optional[int]] = [p if p >= 0 else None for p in links.tolist()]
    v, below = root, None
    for _ in range(n):  # the path has at most n nodes, so links with a cycle cannot hang it
        if v is None:
            break
        above = rerooted[v]
        rerooted[v] = below
        below, v = v, above
    return RootedTree.from_parents(rerooted)


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
    return RootedTree.from_parents(parent)
