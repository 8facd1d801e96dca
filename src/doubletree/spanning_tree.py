"""Minimum spanning trees, rooting, and the degree-increasing transformation.

The MST is built with a dense O(n^2) Prim scan, which matches the complete
graph induced by a metric instance.  Above the distance cache the scan
computes each row from coordinates over its fringe, the nodes not yet in
the tree, and drops the picked nodes from the fringe at a fixed interval,
so it computes about half the distances of n full rows.  It returns the
unique MST under one strict edge order (weight, then lower end id, then
higher end id), so the tree is deterministic even with duplicate points.  The scan hands over its
parent links, rooted at node 0, and ``root_tree`` re-roots them at the
lowest-indexed leaf by reversing the links on one path.  Given node
potentials, the same scan builds the Held-Karp bound's dense 1-trees.

The scan also reports whether any of its tie tests fired.  If none did,
every pick's edge was the one lightest edge across its cut, so the tree is
the unique MST by weight alone, and ``minimum_spanning_tree`` says so.  From
a unique MST, ``mst_without_node_zero`` derives the tree the scan would
build over nodes 1..n-1 at zero potentials (the Held-Karp bound's first
1-tree) without a second O(n^2) scan: it keeps the MST's edges off node 0,
reconnects the parts node 0 joined by Kruskal over the few pairs short
enough to matter, and replays the scan's pick order with a heap.

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
from .instances import Instance, Metric, PairwiseDistances

# above the distance cache the Prim scan drops its picked nodes every
# max(COMPACT_EVERY, n // 8) picks
COMPACT_EVERY = 64
# candidate pairs per chunk while ``mst_without_node_zero`` gathers the
# pairs that may reconnect the MST once node 0 is removed
GATHER_ENTRIES = 1 << 14


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
    """The one dense Prim scan: parent links, the picked keys in pick order
    and whether a tie test fired.

    The scan keeps its fringe, the nodes not yet in the tree, as arrays in
    ascending id order: ids, keys, links, the subtracted mask and the x and
    y coordinates.  Each step reads one distance row over them; a picked
    node gets NaN in the mask, so it never compares below or equal to a key,
    and the key +inf.  With a cached matrix the row is a view and the arrays
    keep every node.  Above the cache the row is computed from the fringe's
    coordinates, and every ``max(COMPACT_EVERY, n // 8)`` picks the arrays
    drop the picked nodes.  Id order keeps the first argmin and every tie
    rule below, so both ways give the same bits.  Nodes the scan never
    reaches keep the link -1.

    Without potentials the scan spans all n nodes from node 0 and returns the
    unique MST under the strict edge order (weight, lower end id, higher end
    id).  Ties are tested for at each step and resolved only when they exist:
    the pick takes the smallest edge pair among equal minimum keys, and an
    equal row value moves a node to a smaller parent id.  If neither test
    ever fires, every pick's edge is the one lightest edge across its cut,
    by value alone, so the tree is the unique MST under any tie rule; the
    third value is True when a test fired.

    With potentials ``pi`` it spans nodes 1..n-1 from node 1, leaving node 0
    out as a 1-tree does, under the reduced weights ``(d[j] - pi[j]) - pi``.
    Ties go to the smallest index (first argmin) and a key moves only on a
    strict improvement, the rule the Held-Karp bound's 1-trees were fixed
    under.  ``picked`` starts with the first node's key, 0.0.  No tie is
    tested for, and the third value is False.
    """
    n = dist.n
    first = 0 if pi is None else 1
    ids = np.arange(first, n)
    mask = np.zeros(n - first) if pi is None else pi[first:].copy()
    key = np.full(n - first, np.inf)
    key[0] = 0.0
    link = np.full(n - first, -1, dtype=np.int64)
    best_parent = np.full(n, -1, dtype=np.int64)
    picked = np.empty(n - first)
    buffers = (np.empty(n - first), np.empty(n - first, dtype=bool),
               np.empty(n - first, dtype=bool))
    row, better, tied = buffers
    cols = slice(first, None)
    x, y = dist.xy[cols, 0].copy(), dist.xy[cols, 1].copy()
    cached = dist.cached
    every = n if cached else max(COMPACT_EVERY, n // 8)
    tie = False
    for i in range(n - first):
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


def minimum_spanning_tree(inst: Instance) -> tuple[np.ndarray, float, bool]:
    """The MST of ``prim_scan`` without potentials: parent links, weight and
    whether it is the unique MST.

    The links are rooted at node 0 (-1 there); the weight is the picked keys
    summed left to right in pick order.  The tree is certified unique when
    no tie test of the scan fired (see ``prim_scan``); a tree with ties may
    still be unique, and is then reported as not.
    """
    best_parent, picked, tie = prim_scan(inst.distances)
    if np.count_nonzero(best_parent < 0) != 1:
        raise InternalInvariantError("Prim produced a non-spanning tree")
    return best_parent, float(np.add.accumulate(picked)[-1]), not tie


def mst_without_node_zero(
    inst: Instance, tree: RootedTree
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """What ``prim_scan(dist, zeros)`` returns, derived from the unique MST.

    ``tree`` must be the unique MST T of the instance, in any rooting (one
    ``minimum_spanning_tree`` certified).  The scan with zero potentials
    spans nodes 1..n-1, so its tree is an MST of G - 0, which T gives
    without a second dense scan (Chin & Houck 1978):

    * Every edge of T - 0 is still the one lightest edge across its Prim
      cut less node 0, so it is in every MST of G - 0.
    * Node 0's neighbours a_i split T - 0 into one component each.  The
      edges of the a_i's own MST join them all, so no edge heavier than its
      heaviest one, U, is needed.  Every pair of points in different
      components at most U apart is gathered, through a grid of cells of
      side just over U (five neighbouring cells a point), a chunk of at most
      ``GATHER_ENTRIES`` candidate pairs at a time.  Kruskal over the
      components picks the reconnecting edges R.  With the gathered lengths
      pairwise distinct, T' = T - 0 + R is the unique MST of G - 0.
    * With T' unique, an edge outside T' never ties the least key of the
      dense scan, so the scan picks in the order of a heap Prim over the
      edges of T' alone: from node 1, by (key, node id), the first-argmin
      rule.  Its keys are the lengths ``(d - 0.0) - 0.0 = d``, so links and
      keys come out with the scan's bits.

    Returns None, so that the caller runs the dense scan, where the gathered
    lengths tie, where U is 0 or its grid would not fit in int64 indices,
    and on ``EUC_2D`` instances, whose rounded lengths tie too often to be
    worth the gather.
    """
    n = inst.n
    dist = inst.distances
    if inst.metric is Metric.EUC_2D:
        return None
    links = np.array(tree.parent, dtype=float)  # NaN at the root
    eu = np.flatnonzero((links > 0) & (np.arange(n) > 0))
    ev = links[eu].astype(np.int64)
    del links
    if eu.size < n - 2:  # node 0 has more than one MST neighbour
        reconnect = _reconnecting_edges(dist, tree)
        if reconnect is None:
            return None
        eu, ev = np.concatenate([eu, reconnect[0]]), np.concatenate([ev, reconnect[1]])

    # heap Prim over the n - 2 edges of T', each node pushed once, by its
    # tree neighbour nearer node 1.  The loop reads and writes the arrays
    # through memoryviews, which hand over Python numbers without holding
    # one object per entry
    ends, other = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    del eu, ev
    order = np.argsort(ends, kind="stable")
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=start[1:])
    ends, other = ends[order], other[order]
    del order
    parent = np.full(n, -1, dtype=np.int64)
    picked = np.empty(n - 1)
    start, nbr, length = memoryview(start), memoryview(other), memoryview(dist.pairs(ends, other))
    link, keys = memoryview(parent), memoryview(picked)
    heap = [(0.0, 1)]
    pop, push = heapq.heappop, heapq.heappush
    i = 0
    while heap:
        keys[i], v = pop(heap)
        i += 1
        for e in range(start[v], start[v + 1]):
            u = nbr[e]
            if u != link[v]:
                link[u] = v
                push(heap, (length[e], u))
    if i != n - 1:
        raise InternalInvariantError("the derived tree does not span nodes 1..n-1")
    return parent, picked


def _reconnecting_edges(
    dist: PairwiseDistances, tree: RootedTree
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The edges R that rejoin the components of T - 0 into the unique MST
    of G - 0, as (u, v) arrays, or None where their gathered lengths tie."""
    # node 0's neighbours, and the component labels of T - 0: each child's
    # subtree is one preorder run, and the rest of the tree holds node 0's parent
    hub = np.array([*tree.children[0], *([] if tree.parent[0] is None else [tree.parent[0]])])
    k = hub.size
    pre = np.asarray(tree.preorder)
    pos = np.empty(tree.n, dtype=np.intp)
    pos[pre] = np.arange(tree.n)
    label = np.full(tree.n, k - 1)
    for i, c in enumerate(tree.children[0]):
        label[pre[pos[c]:pos[c] + tree.subtree_size[c]]] = i
    del pre, pos
    near = dist.pairs(hub[:, None], hub)
    # U: the heaviest edge of the hub's own MST, by a Prim scan over k nodes
    key, inside, bound = near[0].copy(), np.zeros(k, dtype=bool), 0.0
    inside[0] = True
    for _ in range(k - 1):
        key[inside] = np.inf
        j = int(key.argmin())
        bound = max(bound, float(key[j]))
        inside[j] = True
        np.minimum(key, near[j], out=key)
    # A pair at most U apart, as computed, is at most U (1 + 2^-52) apart in
    # x and in y, and with under 2^30 cells a row the computed cell indices
    # err by far less than the 2^-20 margin, so it lies in neighbouring cells
    side = bound * (1.0 + 2.0**-20)
    xy = dist.xy[1:]
    cell = np.floor((xy - xy.min(axis=0)) / side) if side > 0 else np.full(xy.shape, np.inf)
    if not cell.max() < 2.0**30:
        return None
    cell = cell.astype(np.int64) + 1  # column 0 is left empty for the (-1, 1) offset
    width = int(cell[:, 0].max()) + 2
    flat = cell[:, 1] * width + cell[:, 0]
    del cell
    order = np.argsort(flat, kind="stable")
    cells, first = np.unique(flat[order], return_index=True)
    last = np.append(first[1:], flat.size)
    own_label = label[1:]
    least, most = (f.reduceat(own_label[order], first) for f in (np.minimum, np.maximum))
    own = np.searchsorted(cells, flat)
    rank = np.empty(flat.size, dtype=np.intp)
    rank[order] = np.arange(flat.size)
    # each point reads five runs of the sorted points: the later ones of its
    # own cell, and the cells east, north-west, north and north-east of it,
    # so every unordered pair of neighbouring cells is read once; a run is
    # read only where its cell holds a label other than the point's
    us, vs, ws = [], [], []
    for step in (0, 1, width - 1, width, width + 1):
        if step:
            at = np.minimum(np.searchsorted(cells, flat + step), cells.size - 1)
            begin, length = first[at], np.where(cells[at] == flat + step, last[at] - first[at], 0)
        else:
            at, begin, length = own, rank + 1, last[own] - rank - 1
        rows = np.flatnonzero((length > 0) & ((least[at] != own_label) | (most[at] != own_label)))
        begin, length = begin[rows], length[rows]
        ends = np.cumsum(length)
        lo = 0
        while lo < rows.size:  # at most GATHER_ENTRIES pairs at a time, and one row at least
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - length[lo] + GATHER_ENTRIES,
                                                 "right")))
            lens = length[lo:hi]
            nth = np.arange(lens.sum())
            v = order[nth + np.repeat(begin[lo:hi] - (np.cumsum(lens) - lens), lens)] + 1
            u = np.repeat(rows[lo:hi] + 1, lens)
            cross = np.flatnonzero(label[u] != label[v])
            u, v = u[cross], v[cross]
            w = dist.pairs(u, v)
            near_enough = w <= bound
            us.append(u[near_enough])
            vs.append(v[near_enough])
            ws.append(w[near_enough])
            lo = hi
    u, v, w = np.concatenate(us), np.concatenate(vs), np.concatenate(ws)
    by_length = np.argsort(w, kind="stable")
    if (np.diff(w[by_length]) == 0.0).any():
        return None
    # Kruskal over the components
    root = list(range(k))

    def find(c: int) -> int:
        while root[c] != c:
            c = root[c]
        return c

    taken = []
    for e in by_length.tolist():
        a, b = find(int(label[u[e]])), find(int(label[v[e]]))
        if a != b:
            root[a] = b
            taken.append(e)
            if len(taken) == k - 1:
                break
    return u[taken], v[taken]


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
