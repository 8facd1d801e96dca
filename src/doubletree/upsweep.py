"""Bottom-up subset dynamic program for the optimal tree-admissible tour.

For a rooted tree, a tour is admissible when every subtree occupies a
contiguous arc of the cycle.  The weight of the best admissible tour is
computed bottom-up: for each node u, child subset V (a bitmask over u's
ordered child list) and destination a inside the selected subtrees, we keep
the weight of the cheapest path that starts at u, visits u plus exactly the
subtrees of V with each subtree contiguous, and stops at a.

Layout.  Nodes are numbered in preorder with children in ascending id order,
so the subtree T(u) is the contiguous position range
``[pre[u], pre[u] + size[u])``.  Node u's table is one ``(2^c, size[u])``
float array over that range, one row per child mask.  Row 0 is the empty
mask: 0 at u itself and inf elsewhere.  Destinations outside the selected
subtrees, or cut by the depth limit, are inf.

Bridges.  Extending mask V by child v needs, for every child mask W of v,
the cheapest path that sweeps u + T(V) from u to some x, jumps to y and
sweeps T(W) + v from y back to v:
``bridge[V, W] = min_y (min_x A_V[x] + d(x, y)) + B_W[y]``, with A and B the
tables of u and v.  Thanks to the row-0 convention this one formula also
covers an empty V or W.  The inner minimum is computed once per (u, V, v)
over v's live (finite) columns; one reduction then gives every W.  The jump
edge kept with a bridge is the pair (x, y) with the lowest node id x, then
the lowest y, among those whose sum ``(A_V[x] + d(x, y)) + B_W[y]`` attains
it.  The extension of V by v over T(v) is then the minimum over W of
``bridge[V, full ^ W] + B_W``, followed by the depth cut.  The x candidates
are the columns within depth k of u, put in id order once per node.

Leaves.  A leaf child v has the 1x1 row-0 table, so B = 0: its bridge for
mask V is ``min_x A_V[x] + d(x, v)``, and the extension writes that same
value into column v of row ``V | bit_v``.  A node with leaf children
extends V by all of its leaves outside V in one step, one ``(x, leaf)``
block per mask.  With B = 0 the full sum equals the inner sum, and the x
candidates are in id order, so the first argmin along x is already the
lowest attaining x and the tie pass of the general step is not needed.

Bridges are kept for tour reconstruction in one store per node u: a weight
array and a jump-edge array of shape ``(2^c_u, sum_v 2^c_v)``, where child v
owns the column block of its masks W.  A jump edge (x, y) is stored as the
key ``x * n + y`` the tie pass ranks by, -1 where the bridge is absent.  The
stores hold 4^d n entries at most; the tables themselves are released as
soon as the parent is done, so at most 2^d n table entries are live at once.

With a finite search depth k, a destination is kept only while its tree
distance from the table's node stays within k.  Every child sits at distance
1, so the tables never go empty and the final minimisation at the root
always has a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import GuardError, InternalInvariantError
from .instances import Instance
from .spanning_tree import RootedTree

# Largest predicted totals a pass may allocate, checked before any table is
# built.  Bridges are kept to the end, 16 bytes per entry: D = 8 at n = 1000
# needs about 6.3e6 of them, a degree limit of 12 there about 1e9.  Tables
# are released as the pass goes, so their total measures fill time, not
# memory; exact search (D = 1) at n = 10000 needs about 1.5e7.
TABLE_ENTRY_BUDGET = 500_000_000
BRIDGE_ENTRY_BUDGET = 10_000_000


@dataclass
class UpsweepStats:
    """Work and memory counters matching the advertised complexity bounds."""

    quad_evals: int = 0  # route-shape candidates examined (x, y pairs)
    extension_evals: int = 0  # per-destination split candidates examined
    live_entries: int = 0
    max_live_entries: int = 0
    bip_entries: int = 0


@dataclass(frozen=True)
class PreorderLayout:
    """Preorder numbering of ``tree``: T(u) is ``[pre[u], pre[u] + size[u])``."""

    tree: RootedTree
    order: np.ndarray  # position -> node id
    pre: np.ndarray  # node id -> position
    depth: np.ndarray  # position -> tree depth

    @staticmethod
    def of(tree: RootedTree) -> "PreorderLayout":
        ids = np.array(tree.preorder, dtype=np.intp)
        pre = np.empty(tree.n, dtype=np.intp)
        pre[ids] = np.arange(tree.n)
        return PreorderLayout(tree, ids, pre, np.array(tree.depth)[ids])


_LEAF = np.zeros((1, 1))  # a leaf's table: the empty mask, 0 at the leaf
_LEAF.flags.writeable = False

Bridges = tuple[np.ndarray, np.ndarray]  # weights and jump edges x * n + y, both (R, C)


@dataclass
class UpsweepResult:
    weight: float
    best_a: int
    n: int
    tree_root: int
    stats: UpsweepStats
    bridges: list[Optional[Bridges]]  # per child v: rows V of its parent, columns W of v

    def bridge(self, v: int, V: int, W: int) -> tuple[float, int, int]:
        """Weight and jump edge (x, y) of the bridge from u + T(V) into T(W) + v."""
        b = self.bridges[v]
        if b is not None and 0 <= V < b[1].shape[0] and 0 <= W < b[1].shape[1]:
            e = b[1].item(V, W)
            if e >= 0:
                return (b[0].item(V, W), *divmod(e, self.n))
        raise InternalInvariantError(f"missing bridge value for child {v}, masks ({V:b}, {W:b})")


def predicted_entries(tree: RootedTree) -> tuple[int, int]:
    """(table entries, bridge entries) a pass over ``tree`` allocates in total."""
    widths = [1 << len(c) for c in tree.children]
    tables = sum(w * s for w, s in zip(widths, tree.subtree_size))
    bridges = sum(widths[u] * sum(widths[v] for v in c) for u, c in enumerate(tree.children))
    return tables, bridges


def node_table(
    inst: Instance,
    layout: PreorderLayout,
    u: int,
    tables: dict[int, np.ndarray],
    k: Optional[int],
    stats: UpsweepStats,
    bridges: list[Optional[Bridges]],
) -> np.ndarray:
    """u's ``(2^c, size[u])`` table, built from its children's tables.

    Stores each child v's bridges in ``bridges[v]``, a column block of u's
    bridge store; rows V that contain v itself are never computed and keep
    the absent marker -1.
    """
    tree = layout.tree
    cu = tree.children[u]
    missing = [v for v in cu if v not in tables]
    if missing:
        raise ValueError(f"children {missing} of {u} not processed yet")
    c = len(cu)
    if c == 0:
        return _LEAF
    p0 = int(layout.pre[u])
    tu = slice(p0, p0 + tree.subtree_size[u])
    ids_u, depth_u = layout.order[tu], layout.depth[tu]
    table = np.full((1 << c, ids_u.size), np.inf)
    table[0, 0] = 0.0
    dist = inst.distances
    n = inst.n
    limit = None if k is None else tree.depth[u] + k

    # one bridge store for all children; child i owns columns [cols[i], cols[i + 1])
    cols = [0, *accumulate(1 << len(tree.children[v]) for v in cu)]
    bw = np.full((1 << c, cols[-1]), np.inf)
    bxy = np.full(bw.shape, -1, dtype=np.intp)
    for v, a, b in zip(cu, cols, cols[1:]):
        bridges[v] = (bw[:, a:b], bxy[:, a:b])

    # leaf children share one step per mask
    leaves = [i for i, v in enumerate(cu) if not tree.children[v]]
    if leaves:
        lid, lbit, lbc = np.array([(cu[i], 1 << i, cols[i]) for i in leaves]).T
        lcol = layout.pre[lid] - p0
        leafmask = int(lbit.sum())
        masks = np.arange(1 << c)[:, None]
        free = masks & lbit == 0  # (V, leaf): the leaf is not in V
        rows = masks | lbit

    if c > 1:  # x candidates of the nonempty masks: columns within k of u, in id order
        xs = np.arange(ids_u.size) if limit is None else np.flatnonzero(depth_u <= limit)
        xs = xs[np.argsort(ids_u[xs])]
        xs_ids = ids_u[xs]

    kids = []
    for i, v in enumerate(cu):
        if i in leaves:
            continue
        B = tables[v]
        lo = int(layout.pre[v]) - p0
        span = slice(lo, lo + B.shape[1])
        if limit is None:
            live = keep = slice(None)
        else:  # every finite column of B, and those still within k of u
            live, keep = depth_u[span] <= limit + 1, depth_u[span] <= limit
        kept = B[:, keep]
        # each kept destination below v is swept by half of v's nonempty masks
        ext = (kept.shape[1] - 1) * (B.shape[0] // 2)
        kids.append((1 << i, ids_u[span][live], B[:, live], kept, span, keep, ext, *bridges[v]))

    # V | bit > V, so every row is complete before it is read
    for V in range((1 << c) - 1):
        if V:
            row = table[V, xs]
            fin = row < np.inf  # in id order, so the first hit is the lowest x
            x_ids, A = xs_ids[fin], row[fin]
        elif leaves:
            x_ids, A = ids_u[:1], table[0, :1]
        if leaves and V & leafmask != leafmask:
            # B = 0 at a leaf (see "Leaves" above): the bridge is the extension
            f = free[V]
            M = A[:, None] + dist.pairs(x_ids[:, None], lid[f])
            bw[V, lbc[f]] = best = M.min(axis=0)
            bxy[V, lbc[f]] = x_ids[M.argmin(axis=0)] * n + lid[f]
            table[rows[V, f], lcol[f]] = best
            stats.quad_evals += M.size
            stats.bip_entries += best.size
        for bit, y_ids, B_live, kept, span, keep, ext, w, xy in kids:
            if V & bit:
                continue
            if V == 0:  # A_0 is 0 at u alone: the inner minimum is d(u, y)
                S = dist.pairs(u, y_ids) + B_live
                w[V] = best = S.min(axis=1)
                Ws, ys = np.nonzero(S == best[:, None])
                pair = u * n + y_ids[ys]
                stats.quad_evals += y_ids.size
            else:
                M = A[:, None] + dist.pairs(x_ids[:, None], y_ids)
                S = M.min(axis=0) + B_live
                w[V] = best = S.min(axis=1)
                # (A[x] + d) + B can round onto the minimum even for an x that
                # misses min_x by an ulp, so the jump edge is the lowest (x, y)
                # over every pair whose full sum attains it
                Ws, ys = np.nonzero(S == best[:, None])
                hit = M[:, ys] + B_live[Ws, ys] == best[Ws]
                pair = x_ids[hit.argmax(axis=0)] * n + y_ids[ys]
                stats.quad_evals += x_ids.size * y_ids.size
                del M  # free the block before the next child's is built
            if Ws.size > best.size:  # tied pairs: keep the lowest per W
                lowest = np.full(best.size, pair.max())
                np.minimum.at(lowest, Ws, pair)
                pair = lowest
            xy[V] = pair
            stats.bip_entries += best.size
            stats.extension_evals += ext
            table[V | bit, span][keep] = (best[::-1, None] + kept).min(axis=0)
    return table


def upsweep(inst: Instance, tree: RootedTree, k: Optional[int] = None) -> UpsweepResult:
    """Optimal admissible-tour weight for ``tree``, plus the bridges that
    :func:`doubletree.downsweep.downsweep` rebuilds the tour from; k=None
    searches exactly."""
    if inst.n < 2:
        raise ValueError("tour search needs at least two nodes")
    if tree.n != inst.n:
        raise ValueError("instance and tree disagree on n")
    if k is not None and k < 1:
        raise ValueError("depth limit k must be >= 1 (or None for unlimited)")
    table_entries, bridge_entries = predicted_entries(tree)
    if table_entries > TABLE_ENTRY_BUDGET or bridge_entries > BRIDGE_ENTRY_BUDGET:
        raise GuardError(
            f"tree with max_children={tree.max_children} predicts {table_entries:.3g} "
            f"table and {bridge_entries:.3g} bridge entries; budgets are "
            f"{TABLE_ENTRY_BUDGET:.3g} and {BRIDGE_ENTRY_BUDGET:.3g}"
        )
    layout = PreorderLayout.of(tree)
    stats = UpsweepStats()
    bridges: list[Optional[Bridges]] = [None] * inst.n
    tables: dict[int, np.ndarray] = {}
    live: dict[int, int] = {}
    for u in tree.postorder:
        tables[u] = node_table(inst, layout, u, tables, k, stats, bridges)
        live[u] = int(np.count_nonzero(tables[u][1:] < np.inf))
        stats.live_entries += live[u]
        stats.max_live_entries = max(stats.max_live_entries, stats.live_entries)
        for v in tree.children[u]:
            del tables[v]
            stats.live_entries -= live.pop(v)

    r = tree.root
    total = tables[r][-1] + inst.distances.pairs(r, layout.order)
    weight = float(total.min())
    if weight == np.inf:
        raise InternalInvariantError("no tour candidates at the root")
    best_a = int(layout.order[total == weight].min())

    d = tree.max_children
    n = inst.n
    if stats.quad_evals > (4**d) * n * n:
        raise InternalInvariantError(f"route-candidate count {stats.quad_evals} exceeds 4^d n^2")
    if stats.max_live_entries > (2**d) * n:
        raise InternalInvariantError(f"live table entries {stats.max_live_entries} exceed 2^d n")
    if stats.bip_entries > (4**d) * n:
        raise InternalInvariantError("bridge table larger than 4^d n")
    return UpsweepResult(weight, best_a, n, r, stats, bridges)
