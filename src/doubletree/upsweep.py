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
Layer 0 of every node of a height, then layer 1 of its two-child nodes, run
as batched steps over items (u, V, v): x is u alone with A_0 = 0 at layer
0, else the finite columns of row V in id order; y is v's live columns, a
leaf being y = [leaf], B = 0.  The items are sorted by their number of x
and cut into batches whose padded (x, y) sums and (W, y) arrays stay within
``HELD_BLOCK_ENTRIES``.  A batch puts every item's y side by side; the x
lists are padded with inf at the end, which keeps the first argmin, and the
tables with nan rows up to the widest, which no minimum or tie picks.  A
two-child node with an item over the cap, and a node with three or more
children, runs its layers 1 and up on its own: one child step per non-leaf
child and one leaf step for the leaf children, each over a chunk of masks,
their rows A over the x candidates (inf outside V's subtrees) and the block
d(x, y) to the child's live y.  A block is held, d(x, y) computed once over
the x outside its subtrees, when more than three masks read it and it has
at most ``HELD_BLOCK_ENTRIES`` entries; its masks run in chunks of at most
that many sums.  Any other block is taken per mask over the row's finite x,
in row tiles of at most that many sums with a running minimum.  Every tie
pass takes, at each attaining y, the first x of least full sum, the lowest
attaining x, as rounding keeps the order of the sums; a tiled block
recomputes the full sums of its attaining columns only.  Beyond its table
and bridges a node thus holds O(tile) temporaries, plus the tie pass's |x|
sums per attaining column and a leaf step's |x| sums per leaf.

Bridges are kept for tour reconstruction in one store per node u: a weight
array and a jump-edge array of shape ``(2^c_u, sum_v 2^c_v)``, where child v
owns the column block of its masks W; the stores of one height lie end to
end in one pair of arrays, so a batch writes all of its bridges at once.  A jump edge (x, y) is stored as the
key ``x * n + y`` the tie pass ranks by, -1 where the bridge is absent.  The
stores hold 4^d n entries at most.  The tables themselves are released as
soon as the parent is done; the live ones always belong to disjoint
subtrees, so at most 2^d n table entries are live at once.

Counters.  ``_work`` computes every :class:`UpsweepStats` field before the
pass, so the steps do no accounting.  Each child v of a node with c
children has bridges at the 2^(c - 1) masks without v, one per mask of v
(``bip_entries``); each sweeps v's kept destinations but v with half of v's
masks (``extension_evals``) and pairs its x (u alone, or the kept columns
of the other children, each in 2^(c - 2) masks) with v's live y
(``quad_evals``).  ``max_live_entries`` is a postorder pass's peak of
finite entries: the kept columns of each child, in half of a table's rows.

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
# The one bound on the blocks of the subset DP (see "Order" above): a batch's
# padded (x, y) sums, (W, y) arrays and side-by-side tables, a held distance
# block, and a step's chunk of masks or row tile of x stay within it.
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


@dataclass
class _Pass:
    """What the steps of one pass share: the tables whose parent is not
    built yet, and per node v how many columns of its table lie within
    k - 1 of v (those its parent keeps) and within k (its finite ones)."""

    inst: Instance
    layout: PreorderLayout
    k: Optional[int]
    bridges: list[Optional[Bridges]]
    tables: dict[int, np.ndarray]
    kept: list[int]
    live: list[int]


def _reach(tree: RootedTree, k: Optional[int]) -> tuple[list[int], list[int]]:
    """The ``kept`` and ``live`` counts of :class:`_Pass` for every node."""
    if k is None:
        return tree.subtree_size, tree.subtree_size
    n = tree.n
    up = np.array([n if p is None else p for p in tree.parent] + [n])
    above, count = np.arange(n), np.zeros(n + 1, dtype=np.intp)
    for _ in range(min(k, max(tree.depth) + 1)):  # each node counts at its ancestors 0, 1, ... up
        count += np.bincount(above, minlength=n + 1)
        above = up[above]
    kept = count[:n].tolist()
    count += np.bincount(above, minlength=n + 1)
    return kept, count[:n].tolist()


def _work(tree: RootedTree, kept: list[int], live: list[int]) -> UpsweepStats:
    """The counters of a pass over ``tree`` (see "Counters" above), from the
    ``kept`` and ``live`` counts of :class:`_Pass`."""
    c, kept, live = np.array([len(cu) for cu in tree.children]), np.array(kept), np.array(live)
    u, v = np.arange(tree.n).repeat(c), np.array([w for cu in tree.children for w in cu], dtype=np.intp)
    half, wv = 1 << (c[u] - 1), 1 << c[v]
    xs = np.bincount(u, kept[v], tree.n).astype(np.int64)  # each node's x candidates
    # each table's finite entries, its children's, and a postorder pass's after each node
    own = (xs << c) >> 1
    below = np.bincount(u, own[v], tree.n).astype(np.int64)[list(tree.postorder)]
    after = np.cumsum(own[list(tree.postorder)] - below)
    quad = live[v] * (1 + (half >> 1) * (xs[u] - kept[v]))
    return UpsweepStats(int(quad.sum()), int((half * (kept[v] - 1) * (wv >> 1)).sum()),
                        int(after[-1]), int((after + below).max()), int((half * wv).sum()))


def _build(p: _Pass, nodes: list[int]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Table and bridge store (weights, jump edges) of each of ``nodes``,
    none of them a leaf and all of their children's tables built."""
    tree = p.layout.tree
    widths = [[len(p.tables[v]) for v in tree.children[u]] for u in nodes]
    # the nodes' bridge stores, end to end in one weight and one jump-edge array
    starts = [0, *accumulate((1 << len(w)) * sum(w) for w in widths)]
    store = np.empty(starts[-1]), np.empty(starts[-1], dtype=np.intp)
    store[0].fill(np.inf)
    store[1].fill(-1)
    out, items = [], []
    for u, w, s, e in zip(nodes, widths, starts, starts[1:]):
        table = np.empty((1 << len(w), tree.subtree_size[u]))
        table.fill(np.inf)
        table[0, 0] = 0.0
        bw, bxy = store[0][s:e].reshape(len(table), -1), store[1][s:e].reshape(len(table), -1)
        # child i owns columns [cols[i], cols[i + 1]) of u's store
        cols = [0, *accumulate(w)]
        for i, v in enumerate(tree.children[u]):
            p.bridges[v] = (bw[:, cols[i]:cols[i + 1]], bxy[:, cols[i]:cols[i + 1]])
            items.append((table, u, 0, 1 << i, v, None, s + cols[i]))
        out.append((table, bw, bxy))
    _layer(p, items, store)
    # layer 1 of a two-child node extends each child's row by the other
    # child, in batches unless one of the two is over the cap on its own
    items, alone = [], []
    for u, w, s, (table, bw, bxy) in zip(nodes, widths, starts, out):
        cu = tree.children[u]
        if len(cu) == 2 and all(max(p.kept[cu[1 - i]], w[i]) * p.live[cu[i]] <= HELD_BLOCK_ENTRIES for i in (0, 1)):
            items += [(table, u, 2 >> i, 1 << i, cu[i], cu[1 - i], s + (2 >> i) * sum(w) + i * w[0]) for i in (0, 1)]
        elif len(cu) > 1:
            alone.append((u, table, bw, bxy))
    _layer(p, items, store)
    for u, table, bw, bxy in alone:
        _nonempty_masks(p, u, table, bw, bxy)
    return out


def _layer(p: _Pass, items: list[tuple], store: Bridges) -> None:
    """The steps of ``items``, each (u's table, u, mask V, bit of v, v, w,
    where bridge[V, 0] of v sits in ``store``): row V of u extended by its
    child v.  Its x are u alone, where A_0 = 0, when w is None (V = 0), and
    otherwise the finite columns of row V, all below u's child w.  No item
    reads a row that another one writes.  The items are sorted by their
    number of x, then by the width 2^c_v of v's table, and cut into batches
    (see "Order" above)."""
    size = p.layout.tree.subtree_size
    run = sorted((1 if w is None else p.kept[w], len(p.tables[v]), j, v, w) for j, (*_, v, w, _) in enumerate(items))
    while run:
        # the most items whose padded (x, y) and (W, y) sums, and the table
        # columns that they put side by side, stay within the cap
        hi = top = y = sv = sw = 0
        for x, W, _, v, w in run:
            top, y, sv, sw = max(top, W), y + p.live[v], sv + size[v], sw + (0 if w is None else size[w])
            if hi and (max(x, top) * y > HELD_BLOCK_ENTRIES or top * sv + sw > HELD_BLOCK_ENTRIES):
                break
            hi += 1
        _batch(p, [items[r[2]] for r in run[:hi]], store)
        del run[:hi]


def _batch(p: _Pass, batch: list[tuple], store: Bridges) -> None:
    """The steps of the items of ``_layer`` in ``batch`` as one step: every
    item's y side by side, each column with its item's x, padded with inf in
    A up to the most x, and its table's W rows, padded with nan up to the
    widest table."""
    layout, k, dist, n = p.layout, p.k, p.inst.distances, p.inst.n
    pre, order = layout.pre, layout.order
    tabs, us, Vs, bits, vs, ws, bases = zip(*batch)
    m, Wv = len(batch), np.array([len(p.tables[v]) for v in vs])
    W, size = int(Wv.max()), [layout.tree.subtree_size[v] for v in vs]
    Y, K = np.array([p.live[v] for v in vs]), [p.kept[v] for v in vs]
    offs, pv, pu = [0, *accumulate(size)], pre[list(vs)], pre[list(us)]
    # y: the live columns of each child's table, in preorder
    at = np.arange(offs[-1]) + (pv - offs[:-1]).repeat(size)
    if k is not None:  # every finite column of B, and those still within k of u
        below = layout.depth[at] - layout.depth[pv].repeat(size)
        cut, below = below < k, below <= k
        at = at[below]
    yi = order[at]
    del at
    item = np.arange(m).repeat(Y)  # each column's item
    if ws[0] is None:  # the empty mask: x is u alone, with A_0 = 0
        xi, M = np.array(us)[None], None
        inner = dist.pairs(xi[0, item], yi)
    else:  # row V below w: its finite columns in id order, then inf
        X, zw, pw = np.array([p.kept[w] for w in ws]), [layout.tree.subtree_size[w] for w in ws], pre[list(ws)]
        A = np.concatenate([t[V, a:a + z] for t, V, a, z in zip(tabs, Vs, (pw - pu).tolist(), zw)])
        xi = order[np.arange(A.size) + (pw - [0, *accumulate(zw[:-1])]).repeat(zw)]
        if k is not None:
            fin = A < np.inf
            A, xi = A[fin], xi[fin]
        o = (np.arange(0, m * n, n).repeat(X) + xi).argsort()
        pad = np.arange(X.max()) < X[:, None]  # (item, x slot)
        Ap, xp = np.full(pad.shape, np.inf), np.zeros(pad.shape, dtype=np.intp)
        Ap[pad], xp[pad] = A[o], xi[o]
        A, xi = Ap.T, xp.T
        if dist.cached:  # the inner sums A[x] + d(x, y) of every column
            M = dist.pairs(xi[:, item], yi)
        else:  # from the coordinates of each item's x
            M = dist.to_points(yi, dist.xy[:, 0][xi][:, item], dist.xy[:, 1][xi][:, item])
        M += A[:, item]
        inner = M.min(axis=0)
    B = np.full((W, offs[-1]), np.nan)
    for v, lo, hi in zip(vs, offs, offs[1:]):
        B[:len(p.tables[v]), lo:hi] = p.tables[v]
    if k is not None:
        B = B.compress(below, axis=1)
    S = inner + B
    del inner
    ends = Y.cumsum()
    best = np.minimum.reduceat(S, ends - Y, axis=1)
    # the jump edge: the tie rule of _child_bridges, the first x of least
    # full sum at each attaining (W, y), then the lowest (x, y) per (W, item)
    Ws, ys = (S == best.repeat(Y, axis=1)).nonzero()
    del S
    im = item[ys]
    if M is None:  # one x, which attains
        key = xi[0, im] * n + yi[ys]
    else:
        M = M[:, ys]
        M += B[Ws, ys]
        key = xi[M.argmin(axis=0), im] * n + yi[ys]
        del M
    pair = np.full(best.shape, n * n)
    np.minimum.at(pair, (Ws, im), key)
    # row V | bit over v's kept columns: the minimum over W of bridge[V, full ^ W] + B_W
    ext = best[(Wv - 1 - np.arange(W)[:, None]) % W, np.arange(m)].repeat(K, axis=1)
    ext += B if k is None else B.compress(cut[below], axis=1)
    ext = np.fmin.reduce(ext, axis=0)
    if k is not None:  # over every column of T(v), inf where cut
        ext, kept_ext = np.full(offs[-1], np.inf), ext
        ext[cut] = kept_ext
    # write back: v's bridges at mask V, and row V | bit of u's table
    mine = np.arange(W) < Wv[:, None]  # (item, W): the rows of v's table
    at = (np.array(bases)[:, None] + np.arange(W))[mine]
    store[0][at], store[1][at] = best.T[mine], pair.T[mine]
    for t, V, bit, lo, z, a in zip(tabs, Vs, bits, (pv - pu).tolist(), size, offs):
        t[V | bit, lo:lo + z] = ext[a:a + z]


def _child_bridges(
    inst: Instance, A: np.ndarray, x_ids: np.ndarray, y_ids: np.ndarray, B: np.ndarray, D: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bridge weights and jump edges, both (masks, W), of masks with rows A
    over the x candidates ``x_ids``, in id order, into a child's table B over
    its live columns ``y_ids``; D is d(x, y), or None to look it up in row
    tiles of x."""
    dist, n = inst.distances, inst.n
    tile = max(1, HELD_BLOCK_ENTRIES // (A.shape[0] * y_ids.size))
    M = A[:, :tile, None] + (dist.pairs(x_ids[:tile, None], y_ids) if D is None else D)
    inner = M.min(axis=1)
    for lo in range(tile, x_ids.size, tile):
        t = slice(lo, lo + tile)
        M = A[:, t, None] + dist.pairs(x_ids[t, None], y_ids)
        np.minimum(inner, M.min(axis=1), out=inner)
    S = inner[:, None] + B
    best = S.min(axis=2)
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
    M += B[Ws, ys, None]
    pair = x_ids[M.argmin(axis=1)] * n + y_ids[ys]
    del M  # free the tie sums before the extension's
    if pair.size > best.size:  # tied pairs: keep the lowest per (mask, W)
        lowest = np.full(best.size, pair.max())
        np.minimum.at(lowest, ms * best.shape[1] + Ws, pair)
        pair = lowest
    return best, pair.reshape(best.shape)


def _nonempty_masks(p: _Pass, u: int, table: np.ndarray, bw: np.ndarray, bxy: np.ndarray) -> None:
    """The masks of popcount 1 and more, on its own, at a node with three or
    more children or two with an item over the cap, whose empty mask is
    done (see "Order" above)."""
    inst, layout, k, bridges, tables = p.inst, p.layout, p.k, p.bridges, p.tables
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
        """A non-leaf child's step."""
        bit, y_ids, B_live, kept, kcols, w, xy = blk
        best, pair = _child_bridges(inst, A, x_ids, y_ids, B_live, D)
        w[Vs], xy[Vs] = best, pair
        rows = masks[Vs] | bit  # a row index and a slice at k = inf
        table[rows if limit is None else rows[:, None], kcols] = (best[:, ::-1, None] + kept).min(axis=1)

    # one block per non-leaf child and one for the leaf children together:
    # (mask bits, span of its subtrees, y ids, width of its tables, step, blk)
    blocks = []
    leaves = tuple(i for i, v in enumerate(cu) if not tree.children[v])
    if leaves:
        lid = np.array([cu[i] for i in leaves])
        lbc = np.array([cols[i] for i in leaves])
        blk = (lid, lbc, layout.pre[lid] - p0, *_leaf_masks(c, leaves))
        # the leaves' block spans every x candidate
        blocks.append((sum(1 << i for i in leaves), slice(0, 0), lid, 1, leaf_step, blk))
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
        blocks.append((1 << i, span, y_ids, B.shape[0], child_step, (
            1 << i, y_ids, B[:, live], kept, span if limit is None else np.arange(lo, span.stop)[keep],
            *bridges[v])))

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
    the leaf is not in V, and the row ``V | bit`` of the leaf; both read-only,
    as every node shares them."""
    masks, bits = np.arange(1 << c)[:, None], np.array([1 << i for i in leaves])
    free, rows = masks & bits == 0, masks | bits
    free.flags.writeable = rows.flags.writeable = False
    return free, rows


@cache
def _masks(c: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The masks over c children, and those but the full one grouped by
    popcount; all read-only, as every node shares them."""
    masks = np.arange(1 << c)
    counts = np.array([V.bit_count() for V in range(1 << c)])
    layers = [masks[counts == p] for p in range(c)]
    for a in (masks, *layers):
        a.flags.writeable = False
    return masks, layers


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
    tables = {u: _LEAF for u, cu in enumerate(tree.children) if not cu}
    p = _Pass(inst, PreorderLayout.of(tree), k, [None] * inst.n, tables, *_reach(tree, k))
    stats = _work(tree, p.kept, p.live)
    for nodes in _heights(tree):
        for u, (table, _, _) in zip(nodes, _build(p, nodes)):
            for v in tree.children[u]:
                del tables[v]
            tables[u] = table

    r = tree.root
    total = tables[r][-1] + inst.distances.pairs(r, p.layout.order)
    weight = float(total.min())
    if weight == np.inf:
        raise InternalInvariantError("no tour candidates at the root")
    best_a = int(p.layout.order[total == weight].min())
    return UpsweepResult(weight, best_a, inst.n, r, stats, p.bridges)
