"""Minimum spanning trees, rooting, and the degree-increasing transformation.

The MST is unique under one strict edge order (weight, then lower end id,
then higher end id), so it is deterministic even with duplicate points.
Its tree over nodes 1..n-1 comes from two sparse steps:

* The light pairs, those shorter than a radius r, are read off a grid of
  cells at least r wide; r holds a fixed number of points at the density of
  a grid's occupied cells.  ``boruvka`` spans them: by Kruskal's cut
  argument its forest holds every MST edge shorter than r.
* A Prim over the forest's components starts at node 1's and adds a whole
  component a step.  As a light pair beats every other, these are the
  heavier picks of a dense Prim scan from node 1, with the same cuts.  A
  bit-safe bounding-box bound skips components and points beyond their
  keys; clustered points still read every pair of nearby components once.

A Prim pass over that tree and node 0's edges then adds node 0 (Chin &
Houck 1978), and ``root_tree`` re-roots its links at the lowest-indexed
leaf.  Where no two light pairs share a length and no tie test of the
component Prim fired, each step of the dense scan has one least edge
across its cut, so a heap Prim from node 1 over the tree replays the scan
at zero potentials (the bound's first 1-tree) bit for bit, and
``minimum_spanning_tree`` hands that over.  The dense scan, ``prim_scan``,
serves only the bound's 1-trees under potentials.

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

LIGHT_NEIGHBOURS = 10  # points within the light radius of a point, at the occupied cells' density
SHRINK = 0.8  # the radius moves to the occupied cells' one where that is below this share of it
READS_PER_POINT = 64  # pairs a point may read while the light pairs are picked
BLOCK_ENTRIES = 1 << 15  # distances per block while components are joined


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


def prim_scan(dist: PairwiseDistances, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dense Prim scan of nodes 1..n-1 from node 1 under the reduced
    weights ``(d[j] - pi[j]) - pi``: links (-1 at nodes 0 and 1) and picked
    keys in pick order, from node 1's 0.0.  Ties go to the first argmin; a
    key moves only on a strict improvement.  The fringe is kept in id order,
    a picked node's potential NaN; a step reads a cached row, or computes
    one over the fringe, which drops picked nodes every ``max(1, n // 8)``.
    """
    n = dist.n
    ids = np.arange(1, n)
    mask = pi[1:].copy()
    key = np.full(n - 1, np.inf)
    key[:1] = 0.0  # node 1, where there is one
    link = np.full(n - 1, -1, dtype=np.int64)
    best_parent = np.full(n, -1, dtype=np.int64)
    picked = np.empty(n - 1)
    buffers = (np.empty(n - 1), np.empty(n - 1, dtype=bool))
    row, better = buffers
    cols = slice(1, None)
    x, y = dist.xy[cols, 0].copy(), dist.xy[cols, 1].copy()
    cached = dist.cached
    every = n if cached else max(1, n // 8)
    for i in range(n - 1):
        if i and i % every == 0:
            # a picked node's link is final: the NaN in its mask keeps it fixed
            best_parent[ids] = link
            keep = np.flatnonzero(~np.isnan(mask))
            ids, mask, key, link, x, y = (a.take(keep) for a in (ids, mask, key, link, x, y))
            row, better = (b[:keep.size] for b in buffers)
        j = int(key.argmin())
        jid = int(ids[j])
        picked[i] = key[j]
        key[j] = np.inf
        mask[j] = np.nan
        d = dist.pairs(jid, cols) if cached else dist.to_points(jid, x, y)
        np.subtract(d, pi[jid], out=row)
        np.subtract(row, mask, out=row)
        np.less(row, key, out=better)
        np.copyto(key, row, where=better)
        np.copyto(link, jid, where=better)
    best_parent[ids] = link
    return best_parent, picked


def boruvka(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimum spanning forest of the edges (u, v) with weights ``w``
    under the order (weight, edge id), (weight, u, v) for sorted u < v:
    which edges it takes, and each node's component, named by one node.

    A vectorised Boruvka pass: each round every component takes its
    lightest live edge, the first in id order, by ``np.minimum.at``; the
    components merge by pointer jumping, and ``take`` keeps the live edges.
    """
    cu, cv, cw, ids = u, v, w, np.arange(u.size)
    taken = np.zeros(u.size, dtype=bool)
    link = np.arange(n)
    while cu.size:
        # every ufunc.at index here is 1-D: on numpy 2.4 np.minimum.at with a
        # 2-D index and 1-D values (not broadcast to its shape) gave garbage
        lightest = np.full(n, np.inf)
        np.minimum.at(lightest, cu, cw)
        np.minimum.at(lightest, cv, cw)
        first = np.full(n, cu.size)
        at = np.flatnonzero(cw == lightest[cu])
        np.minimum.at(first, cu.take(at), at)
        at = np.flatnonzero(cw == lightest[cv])
        np.minimum.at(first, cv.take(at), at)
        roots = np.flatnonzero(first < cu.size)
        pick = first[roots]
        taken[ids.take(pick)] = True  # the two ends of an edge may both take it
        other = cu.take(pick) + cv.take(pick) - roots
        # two roots that took the same edge point at each other: the smaller
        # one becomes the merged component's root
        to = np.where((first[other] == pick) & (roots < other), roots, other)
        link[roots] = to
        while True:  # only the roots' links are ever read
            jumped = link[to]
            if (jumped == to).all():
                break
            link[roots] = to = jumped
        cu, cv = link[cu], link[cv]
        keep = np.flatnonzero(cu != cv)
        cu, cv, cw, ids = cu.take(keep), cv.take(keep), cw.take(keep), ids.take(keep)
    while True:  # a merged root's link leads to the root it merged into
        jumped = link[link]
        if (jumped == link).all():
            return taken, link
        link = jumped


def _light_pairs(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of nodes 1..n-1 shorter than the light radius r, as (u, v,
    length) arrays, u < v, sorted by (u, v), read off cells r wide, plus
    2^-20 and, on rounded lengths, 0.5: a point two cells off is a cell off
    in x or y, and a length is monotone in both.  r holds ``LIGHT_NEIGHBOURS``
    points at the bounding box's density, then at the occupied cells' while
    that shrinks it (``SHRINK``); past ``READS_PER_POINT`` reads a point it
    halves, down to 0 (no pairs) at cells of 2^-24 of the box.
    """
    xy, n, r = inst.coords[1:], inst.n, 0.0
    lo = xy.min(axis=0, initial=np.inf)
    span = xy.max(axis=0, initial=-np.inf) - lo  # -inf without points
    if span.max() > 0:  # the box's density, or a line's
        r = np.sqrt(LIGHT_NEIGHBOURS * max(span.prod(), span.max() ** 2 / (n - 1)) / (np.pi * (n - 1)))
    pad = 0.5 if inst.metric is Metric.EUC_2D else 0.0
    while r > 0:
        width = (r + pad) * (1 + 2.0 ** -20)
        if width < span.max() * 2.0 ** -24:  # keeps a cell's key below 2^50
            r = 0.0
            break
        cell = ((xy - lo) // width).astype(np.int64)
        stride = int(cell[:, 0].max()) + 2  # an empty column between rows
        flat = cell[:, 1] * stride + cell[:, 0]
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        first = np.flatnonzero(np.diff(flat, prepend=-1))  # each occupied cell's run
        keys, count = flat[first], np.diff(first, append=n - 1)
        runs = []  # per offset, each cell's (start, length) of the run it reads
        for step in (1, stride - 1, stride, stride + 1):
            at = np.minimum(np.searchsorted(keys, keys + step), keys.size - 1)
            runs.append((first[at], np.where(keys[at] == keys + step, count[at], 0)))
        dense = width * np.sqrt(LIGHT_NEIGHBOURS * keys.size / (np.pi * (n - 1)))
        if (count * (count - 1) // 2 + count * sum(c for _, c in runs)).sum() > READS_PER_POINT * (n - 1):
            r = min(r / 2, dense)
        elif dense < SHRINK * r:
            r = dense
        else:
            break
    if r == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    point_cell = np.repeat(np.arange(keys.size), count)
    at = np.arange(n - 1)
    pairs = []
    for start, length in [(at + 1, (first + count)[point_cell] - at - 1)] + \
            [(s[point_cell], c[point_cell]) for s, c in runs]:
        a = np.repeat(at, length)
        b = order[np.arange(a.size) + np.repeat(start - np.cumsum(length) + length, length)] + 1
        a = order[a] + 1
        d = inst.distances.pairs(a, b)
        light = np.flatnonzero(d < r)
        a, b = a.take(light), b.take(light)
        pairs.append((np.minimum(a, b), np.maximum(a, b), d.take(light)))
    u, v, length = (np.concatenate(x) for x in zip(*pairs))
    by_ends = np.argsort(u * n + v)
    return u.take(by_ends), v.take(by_ends), length.take(by_ends)


def _join_components(dist: PairwiseDistances, comp: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """The MST edges between the components ``comp`` of nodes 1..n-1, as
    (u, v) arrays, and whether a tie test fired: the component Prim.

    Points are kept by component, ids ascending, each with a key and a link.
    A step reads the joining component against the components, then points,
    whose box bound (the rounded gaps through the monotone length) is not
    above their keys, in blocks of ``BLOCK_ENTRIES`` (or one column) at most.
    Ties go to the smallest row, and at a pick to the least edge pair, as in
    the dense scan.  The tie tests: a column minimum at or below its key
    that equals it or that two rows attain, and equal least keys at a pick.
    """
    label = np.cumsum(np.bincount(comp[1:], minlength=comp.size) > 0)[comp[1:]] - 1  # from 0
    ids = np.argsort(label, kind="stable") + 1
    owner, count = label[ids - 1], np.bincount(label)
    start = np.concatenate([[0], np.cumsum(count)])
    xy = dist.xy[ids].T
    low, high = np.minimum.reduceat(xy, start[:-1], axis=1), np.maximum.reduceat(xy, start[:-1], axis=1)
    key, link = np.full(ids.size, np.inf), np.full(ids.size, -1, dtype=np.int64)
    largest, outside = np.full(count.size, np.inf), np.ones(count.size, dtype=bool)
    edges = np.empty((2, max(count.size - 1, 0)), dtype=np.int64)
    c, tie = (label[0] if label.size else 0), False  # node 1's component

    def reach(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """A bound from below on the distances from the (2, k) boxes (lo, hi) to c's."""
        gap = np.maximum(np.maximum(lo - high[:, c, None], low[:, c, None] - hi), 0.0)
        return dist._lengths(gap[0], gap[1])

    for step in range(edges.shape[1]):
        outside[c] = False
        key[start[c]:start[c + 1]] = np.inf
        rows = ids[start[c]:start[c + 1]]
        fringe = np.flatnonzero(outside)
        read = fringe[reach(low[:, fringe], high[:, fringe]) <= largest[fringe]]
        size = count[read]
        offset = np.cumsum(size) - size
        cols = np.arange(size.sum()) + np.repeat(start[read] - offset, size)
        near = cols[reach(xy[:, cols], xy[:, cols]) <= key[cols]]
        width = max(1, BLOCK_ENTRIES // rows.size)
        for first in range(0, near.size, width):
            block = near[first:first + width]
            d = dist.pairs(rows[:, None], ids[block])
            at = d.argmin(axis=0)
            least = d[at, np.arange(block.size)]
            hit = np.flatnonzero(least <= key[block])
            pos, least, src = block[hit], least[hit], rows[at[hit]]
            # the last row at the minimum is the first of the reversed rows
            tie |= bool((least == key[pos]).any() or (d[::-1].argmin(axis=0)[hit] != rows.size - 1 - at[hit]).any())
            move = (least < key[pos]) | (src < link[pos])
            key[pos[move]], link[pos[move]] = least[move], src[move]
        largest[read] = np.maximum.reduceat(key[cols], offset)
        tied = np.flatnonzero(key == key.min())
        j = tied[0]
        if tied.size > 1:
            tie, par, cid = True, link[tied], ids[tied]
            j = tied[np.lexsort((np.maximum(par, cid), np.minimum(par, cid)))[0]]
        edges[:, step] = link[j], ids[j]
        c = owner[j]
    return edges[0], edges[1], tie


def _tree_prim(dist: PairwiseDistances, u: np.ndarray, v: np.ndarray, root: int,
               near: np.ndarray, near_len: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim from ``root`` (0 or 1) over nodes root..n-1: the tree edges (u, v)
    by a heap in the strict order, and the root's sorted edges to ``near``,
    of lengths ``near_len``.  Links (-1 where none) and picked keys in pick
    order, from the root's 0.0.
    """
    n = dist.n
    order = np.argsort(np.concatenate([u, v]), kind="stable")
    ends, other = np.concatenate([u, v])[order], np.concatenate([v, u])[order]
    start = np.searchsorted(ends, np.arange(n + 1))
    parent = np.full(n, -1, dtype=np.int64)
    picked = np.zeros(n - root)
    done = bytearray(n + 1)  # node n is a sentinel past the root's edges
    done[root] = 1
    # memoryviews hand the loop Python numbers without one object per entry
    start, nbr, length = memoryview(start), memoryview(other), memoryview(dist.pairs(ends, other))
    near, near_len = memoryview(np.append(near, n)), memoryview(np.append(near_len, np.inf))
    link, keys = memoryview(parent), memoryview(picked)
    # heap entries (length, lower end, higher end, the end outside)
    heap: list[tuple[float, int, int, int]] = []
    pop, push = heapq.heappop, heapq.heappush
    v, p = root, 0
    for i in range(1, len(keys)):
        for e in range(start[v], start[v + 1]):
            w = nbr[e]
            if not done[w]:
                push(heap, (length[e], w, v, w) if w < v else (length[e], v, w, w))
        while done[near[p]]:
            p += 1
        while heap and done[heap[0][3]]:
            pop(heap)
        # on equal lengths the root's edge is the lesser: its lower end is the root, node 0
        if heap and heap[0][0] < near_len[p]:
            keys[i], lo, hi, v = pop(heap)
            link[v] = lo + hi - v
        else:
            keys[i], v = near_len[p], near[p]
            link[v] = root
            p += 1
        done[v] = 1
    return parent, picked


def minimum_spanning_tree(
    inst: Instance,
) -> tuple[np.ndarray, float, Optional[tuple[np.ndarray, np.ndarray]]]:
    """The unique MST under the strict edge order: parent links rooted at
    node 0, weight, and the zero-potential dense scan's (links, picked keys)
    where the build shows them (see above), else None.  Every MST edge off
    node 0 is in the tree S of nodes 1..n-1, as any other is the heaviest of
    its cycle through S, so a Prim pass from node 0 over S and node 0's
    edges picks as a dense scan from node 0; the weight sums its keys left
    to right.  A pass from node 1 over S gives the scan's bits.
    """
    n, dist = inst.n, inst.distances
    u, v, length = _light_pairs(inst)
    taken, comp = boruvka(n, u, v, length)
    hu, hv, tie = _join_components(dist, comp)
    su, sv = np.concatenate([u[taken], hu]), np.concatenate([v[taken], hv])
    if su.size != max(n - 2, 0):
        raise InternalInvariantError("the light forest and its joins do not span nodes 1..n-1")
    d0 = dist.pairs(0, slice(1, None))
    near = np.argsort(d0, kind="stable")  # node 0's edges in (length, id) order, as id - 1
    parent, picked = _tree_prim(dist, su, sv, 0, near + 1, d0[near])
    weight = float(np.add.accumulate(picked)[-1])
    if tie or (np.diff(np.sort(length)) == 0).any():
        return parent, weight, None
    return parent, weight, _tree_prim(dist, su, sv, 1, near[:0], d0[:0])


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
