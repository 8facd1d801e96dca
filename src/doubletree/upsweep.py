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
are the columns within depth k of u other than u, put in id order once per
node; the empty mask has u alone, where A_0 is 0.

Leaves.  A leaf child v has the 1x1 row-0 table, so B = 0: its bridge for
mask V is ``min_x A_V[x] + d(x, v)``, and the extension writes that same
value into column v of row ``V | bit_v``.  The leaf children of a node are
taken together: one leaf step extends V by all of its leaves outside V.
With B = 0 the full sum equals the inner sum, and the x candidates are in id
order, so the first argmin along x is already the lowest attaining x.

Order.  The pass runs height by height, a node's height being the length
of its longest path down to a leaf, so every node of one height is ready at
once.  A row V | bit is written from row V, so a node's masks run in
popcount layers: a layer reads only rows that earlier layers finished.
Layer 0, the empty mask, is one batched step per height.  There x is u
alone with A_0 = 0, so the bridge is ``min_y d(u, y) + B_W[y]`` and needs
no (x, y) block: the height's children of one width W = 2^c_v are taken
together, their live columns concatenated, with one distance lookup, one
segmented minimum per (W, child) and one extension for all of them.  A
leaf child is the case y = [leaf], B = 0.  A batch's (W, y) arrays hold at
most ``HELD_BLOCK_ENTRIES`` entries each (a child over the cap makes a
batch of its own).  A node with one child is done after layer 0; a node
with two or more children then runs the nonempty masks on its own, with one
child step per non-leaf child and one leaf step for the leaf children.
Each step takes a chunk of masks, their rows A over x candidates and the
distance block d(x, y) to the child's live columns y (the leaves, for the
leaf step); entries of A outside V's subtrees are inf, so they never reach
a minimum or an argmin.  The child step's tie pass takes, at each attaining
y, the first x of least full sum, which is the lowest attaining x, as
rounding keeps the order of the sums.  Blocks differ only in where d(x, y)
comes from.  At a node with three or more children several masks read each
block, so the node may compute d(x, y) once, over the x candidates outside
the block's subtrees: a block is held when more than three masks read it
and it has at most ``HELD_BLOCK_ENTRIES`` entries, so a node holds at most
c times that many, and its masks run in chunks of at most that many (x, y)
sums.  (A non-leaf child of a three-child node has its block read by three
masks, and at k = inf a third of the x those masks read would be inf;
there the per-mask step is as fast.)  Every other block is taken per mask,
a chunk of one over the row's finite x, and a child step looks it up in row
tiles of at most ``HELD_BLOCK_ENTRIES`` (x, y) sums, keeping a running
minimum over x; its tie pass then recomputes the full sums over every x
for the attaining columns only.  Beyond its table and bridges a node thus
holds O(tile) temporaries, plus the tie pass's |x| sums per attaining
column and a leaf step's |x| sums per leaf.

Bridges are kept for tour reconstruction in one store per node u: a weight
array and a jump-edge array of shape ``(2^c_u, sum_v 2^c_v)``, where child v
owns the column block of its masks W.  A jump edge (x, y) is stored as the
key ``x * n + y`` the tie pass ranks by, -1 where the bridge is absent.  The
stores hold 4^d n entries at most.  The tables themselves are released as
soon as the parent is done; the live ones always belong to disjoint
subtrees, so at most 2^d n table entries are live at once.  The counter
``max_live_entries`` reports the peak a postorder pass would hold, from
each node's finite entries counted when its table is built.

With a finite search depth k, a destination is kept only while its tree
distance from the table's node stays within k.  Every child sits at distance
1, so the tables never go empty and the final minimisation at the root
always has a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
# The one bound on the blocks of the subset DP (see "Order" above).  A node
# holds a distance block d(x, y) for all of its masks when more than three
# masks read it and it has at most this many entries; a step takes at most
# this many (x, y) sums at once, in chunks of masks or in row tiles of x; a
# height's empty-mask step runs in batches of children whose (W, y) arrays
# have at most this many entries.
HELD_BLOCK_ENTRIES = 1 << 15


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


def _empty_masks(
    inst: Instance,
    layout: PreorderLayout,
    nodes: list[int],
    tables: dict[int, np.ndarray],
    k: Optional[int],
    stats: UpsweepStats,
    bridges: list[Optional[Bridges]],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Table and bridge store (weights, jump edges) of each of ``nodes``,
    none of them a leaf, with the empty mask's step done for every child.

    At the empty mask x is u alone with A_0 = 0, so the inner minimum is
    d(u, y) and no (x, y) block is needed: the children of equal width
    W = 2^c_v are taken together, in batches whose (W, y) arrays stay within
    ``HELD_BLOCK_ENTRIES`` entries (a child over the cap makes a batch of
    its own).
    """
    tree = layout.tree
    out = []
    groups: dict[int, list[tuple]] = {}  # W -> (v, u, u's table, bit of v)
    for u in nodes:
        cu = tree.children[u]
        widths = [1 << len(tree.children[v]) for v in cu]
        table = np.empty((1 << len(cu), tree.subtree_size[u]))
        table.fill(np.inf)
        table[0, 0] = 0.0
        # one bridge store for all children; child i owns columns [cols[i], cols[i + 1])
        cols = [0, *accumulate(widths)]
        bw = np.empty((table.shape[0], cols[-1]))
        bw.fill(np.inf)
        bxy = np.empty(bw.shape, dtype=np.intp)
        bxy.fill(-1)
        for i, (v, W) in enumerate(zip(cu, widths)):
            bridges[v] = (bw[:, cols[i]:cols[i + 1]], bxy[:, cols[i]:cols[i + 1]])
            groups.setdefault(W, []).append((v, u, table, 1 << i))
        out.append((table, bw, bxy))
    for W, group in groups.items():
        batch, entries = [], 0
        for kid in group:
            size = W * tree.subtree_size[kid[0]]
            if batch and entries + size > HELD_BLOCK_ENTRIES:
                _empty_mask_batch(inst, layout, W, batch, tables, k, stats, bridges)
                batch, entries = [], 0
            batch.append(kid)
            entries += size
        _empty_mask_batch(inst, layout, W, batch, tables, k, stats, bridges)
    return out


def _empty_mask_batch(
    inst: Instance,
    layout: PreorderLayout,
    W: int,
    batch: list[tuple],
    tables: dict[int, np.ndarray],
    k: Optional[int],
    stats: UpsweepStats,
    bridges: list[Optional[Bridges]],
) -> None:
    """The empty mask's step for the children in ``batch``, all of width W."""
    tree = layout.tree
    n = inst.n
    vs = [kid[0] for kid in batch]
    us = np.array([kid[1] for kid in batch])
    starts = layout.pre[vs]
    sizes = [tree.subtree_size[v] for v in vs]
    offs = [0, *accumulate(sizes)]
    spans = [slice(p, p + size) for p, size in zip(starts.tolist(), sizes)]
    if k is None:
        live = keep = slice(None)
        ylens = klens = sizes
    else:  # every finite column of B, and those still within k of u
        depth = np.concatenate([layout.depth[t] for t in spans]) - np.repeat(layout.depth[starts], sizes)
        live, keep = depth <= k, depth < k
        ylens = np.add.reduceat(live, offs[:-1], dtype=np.intp)
        klens = np.add.reduceat(keep, offs[:-1], dtype=np.intp)
    ystarts = offs[:-1] if k is None else np.cumsum(ylens) - ylens
    y = np.concatenate([layout.order[t] for t in spans])[live]
    d = inst.distances.pairs(np.repeat(us, ylens), y)
    # B and kept: the children's tables side by side (a batch of one child
    # reads its table in place), over those columns
    full = np.concatenate([tables[v] for v in vs], axis=1) if len(vs) > 1 else tables[vs[0]]
    S = d + full[:, live]
    kept = full[:, keep]
    del d, full
    best = np.minimum.reduceat(S, ystarts, axis=1)
    # the jump edge is (u, y) for the lowest y attaining the minimum
    ws, ys = np.nonzero(S == (np.repeat(best, ylens, axis=1) if len(vs) > 1 else best))
    del S
    if ws.size == best.size:  # one attaining y per (W, child), in that order
        pair = y[ys].reshape(best.shape)
    else:
        pair = np.full(best.shape, n)
        np.minimum.at(pair, (ws, np.searchsorted(ystarts, ys, "right") - 1), y[ys])
    pair += us * n
    # row bit_v over v's kept columns: the minimum over W of bridge[0, full ^ W] + B_W
    ext = np.repeat(best[::-1], klens, axis=1)
    ext += kept
    ext = ext.min(axis=0)
    stats.quad_evals += y.size
    stats.bip_entries += best.size
    stats.extension_evals += (ext.size - len(vs)) * (W // 2)
    # write back: v's bridges at the empty mask, and row bit_v of u's table
    ks = [0, *accumulate(klens)]
    los = (starts - layout.pre[us]).tolist()
    for j, (v, _, table, bit) in enumerate(batch):
        w, xy = bridges[v]
        w[0], xy[0] = best[:, j], pair[:, j]
        row = table[bit, los[j]:los[j] + sizes[j]]
        row[keep if k is None else keep[offs[j]:offs[j + 1]]] = ext[ks[j]:ks[j + 1]]


def _nonempty_masks(
    inst: Instance,
    layout: PreorderLayout,
    u: int,
    table: np.ndarray,
    bw: np.ndarray,
    bxy: np.ndarray,
    tables: dict[int, np.ndarray],
    k: Optional[int],
    stats: UpsweepStats,
    bridges: list[Optional[Bridges]],
) -> None:
    """The masks of popcount 1 and more at a node with two or more children,
    whose empty mask is done."""
    tree = layout.tree
    cu = tree.children[u]
    c = len(cu)
    p0 = int(layout.pre[u])
    tu = slice(p0, p0 + tree.subtree_size[u])
    ids_u, depth_u = layout.order[tu], layout.depth[tu]
    dist = inst.distances
    n = inst.n
    limit = None if k is None else tree.depth[u] + k
    cols = [0, *accumulate(1 << len(tree.children[v]) for v in cu)]

    # x candidates: columns within k of u but u, in id order
    xs = slice(1, None) if limit is None else np.flatnonzero(depth_u <= limit)[1:]
    xs_ids = np.sort(ids_u[xs])
    xs = layout.pre[xs_ids] - p0
    masks, layers = _masks(c)

    # a step takes the masks Vs (an index array, or a slice for one mask),
    # their rows A over the x candidates x_ids, and D = d(x, y), or None to
    # look it up, for its block blk
    def leaf_step(Vs, A, x_ids, D, blk):
        """The leaf children's step; B = 0 at a leaf (see "Leaves" above)."""
        lid, lbc, lcol, free, rows = blk
        M = A[:, :, None] + (dist.pairs(x_ids[:, None], lid) if D is None else D)
        fm, fl = free[Vs].nonzero()
        V, W, arg = masks[Vs][fm], lbc[fl], M.argmin(axis=1)[fm, fl]
        bw[V, W] = best = M[fm, arg, fl]
        bxy[V, W] = x_ids[arg] * n + lid[fl]
        table[rows[V, fl], lcol[fl]] = best

    def child_step(Vs, A, x_ids, D, blk):
        """A non-leaf child's step; a D looked up is taken in row tiles of x."""
        bit, y_ids, B_live, kept, kcols, w, xy = blk
        tile = max(1, HELD_BLOCK_ENTRIES // (A.shape[0] * y_ids.size))
        M = A[:, :tile, None] + (dist.pairs(x_ids[:tile, None], y_ids) if D is None else D)
        inner = M.min(axis=1)
        for lo in range(tile, x_ids.size, tile):
            t = slice(lo, lo + tile)
            M = A[:, t, None] + dist.pairs(x_ids[t, None], y_ids)
            np.minimum(inner, M.min(axis=1), out=inner)
        S = inner[:, None] + B_live
        w[Vs] = best = S.min(axis=2)
        # (A[x] + d) + B can round onto the minimum even for an x that misses
        # min_x by an ulp, so the jump edge is the lowest (x, y) over every
        # pair whose full sum attains it.  Rounding keeps the order of the
        # sums, so at an attaining y the least full sum is the minimum and
        # its first x the lowest.  A block of several tiles recomputes the
        # attaining columns over every x.
        ms, Ws, ys = (S == best[:, :, None]).nonzero()
        if tile < x_ids.size:
            M = dist.pairs(y_ids[ys, None], x_ids)
            M += A[ms]
        else:
            M = M[ms, :, ys]
        M += B_live[Ws, ys, None]
        pair = x_ids[M.argmin(axis=1)] * n + y_ids[ys]
        del M  # free the tie sums before the extension's
        if pair.size > best.size:  # tied pairs: keep the lowest per (V, W)
            lowest = np.full(best.size, pair.max())
            np.minimum.at(lowest, ms * best.shape[1] + Ws, pair)
            pair = lowest
        xy[Vs] = pair.reshape(best.shape)
        table[(masks[Vs] | bit)[:, None], kcols] = (best[:, ::-1, None] + kept).min(axis=1)

    # one block per non-leaf child and one for the leaf children together:
    # (mask bits, span of its subtrees, y ids, width of its tables, step, blk).
    # The work counters go per child v: the 2^(c - 1) - 1 nonempty masks
    # without v each make one bridge per mask of v and sweep each kept
    # destination below v with half of v's nonempty masks.  Each pairs its
    # finite x, the kept columns of its children, with v's live y, and
    # 2^(c - 2) of them hold any given other child.
    lacking, pairing = (1 << (c - 1)) - 1, 1 << (c - 2)
    blocks = []
    leaves = tuple(i for i, v in enumerate(cu) if not tree.children[v])
    if leaves:
        lid = np.array([cu[i] for i in leaves])
        lbc = np.array([cols[i] for i in leaves])
        blk = (lid, lbc, layout.pre[lid] - p0, *_leaf_masks(c, leaves))
        # the leaves' block spans every x candidate
        blocks.append((sum(1 << i for i in leaves), slice(0, 0), lid, 1, leaf_step, blk))
        stats.bip_entries += lacking * len(leaves)
        stats.quad_evals += pairing * len(leaves) * (xs.size - 1)
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
        y_ids = ids_u[span][live]
        stats.bip_entries += lacking * B.shape[0]
        stats.extension_evals += lacking * (kept.shape[1] - 1) * (B.shape[0] // 2)
        stats.quad_evals += pairing * y_ids.size * (xs.size - kept.shape[1])
        blocks.append((1 << i, span, y_ids, B.shape[0], child_step, (
            1 << i, y_ids, B[:, live], kept, np.arange(lo, span.stop)[keep], *bridges[v])))

    # hold a block that more than three masks read and that fits the cap
    # (see "Order" above): its d(x, y) over the x candidates outside its span
    held, loose = [], []
    for bits, span, y_ids, W, step, blk in blocks:
        reads = (1 << c) - (1 << (c - bits.bit_count())) - 1  # masks V with V & bits != bits
        xcols = xs[(xs < span.start) | (xs >= span.stop)] if reads > 3 else xs
        if reads > 3 and xcols.size * y_ids.size <= HELD_BLOCK_ENTRIES:
            x_ids = ids_u[xcols]
            chunk = max(1, HELD_BLOCK_ENTRIES // (max(xcols.size, W) * max(y_ids.size, W)))
            held.append((bits, xcols, x_ids, dist.pairs(x_ids[:, None], y_ids), chunk, step, blk))
        else:
            loose.append((bits, step, blk))

    # a layer reads rows of one popcount, all written by earlier layers
    for layer in layers[1:]:
        for bits, xcols, x_ids, D, chunk, step, blk in held:
            Vs = layer[layer & bits != bits]
            for lo in range(0, Vs.size, chunk):
                part = Vs[lo:lo + chunk]
                step(part, table[part[:, None], xcols], x_ids, D, blk)
        if not loose:
            continue
        # the other blocks per mask, as a chunk of one over the row's finite x
        for V in layer.tolist():
            row = table[V][xs]
            fin = row < np.inf  # in id order, so the first hit is the lowest x
            x_ids, A = xs_ids[fin], row[fin][None]
            for bits, step, blk in loose:
                if V & bits != bits:
                    step(slice(V, V + 1), A, x_ids, None, blk)


@cache
def _leaf_masks(c: int, leaves: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Over the masks V of c children and the leaf children ``leaves``: whether
    the leaf is not in V, and the row ``V | bit`` of the leaf."""
    masks, bits = np.arange(1 << c)[:, None], np.array([1 << i for i in leaves])
    return masks & bits == 0, masks | bits


@cache
def _masks(c: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The masks over c children, and those but the full one grouped by
    popcount."""
    masks = np.arange(1 << c)
    counts = np.array([V.bit_count() for V in range(1 << c)])
    return masks, [masks[counts == p] for p in range(c)]


def _heights(tree: RootedTree) -> list[list[int]]:
    """The nodes but the leaves grouped by height (longest path down to a
    leaf), lowest height first; each group in postorder."""
    height = [0] * tree.n
    for u in tree.postorder:
        for v in tree.children[u]:
            height[u] = max(height[u], height[v] + 1)
    out: list[list[int]] = [[] for _ in range(height[tree.root])]
    for u in tree.postorder:
        if height[u]:
            out[height[u] - 1].append(u)
    return out


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
    tables = {u: _LEAF for u, cu in enumerate(tree.children) if not cu}
    live = np.zeros(inst.n, dtype=np.intp)  # finite entries of each table but its row 0
    for nodes in _heights(tree):
        built = _empty_masks(inst, layout, nodes, tables, k, stats, bridges)
        for u, (table, bw, bxy) in zip(nodes, built):
            if len(tree.children[u]) > 1:
                _nonempty_masks(inst, layout, u, table, bw, bxy, tables, k, stats, bridges)
            live[u] = np.count_nonzero(table[1:] < np.inf)
            for v in tree.children[u]:
                del tables[v]
            tables[u] = table
    # live entries as a postorder pass holds them: it releases each child's
    # table once the parent's is built
    now, live = 0, live.tolist()
    for u in tree.postorder:
        now += live[u]
        stats.max_live_entries = max(stats.max_live_entries, now)
        for v in tree.children[u]:
            now -= live[v]
    stats.live_entries = now

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
