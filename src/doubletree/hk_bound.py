"""Held-Karp style lower bound via Lagrangian ascent on node potentials.

A 1-tree (spanning tree over nodes 1..n-1 plus the two cheapest edges out of
node 0) relaxes the tour polytope, so its weight under any potential vector
is a valid lower bound on the optimal tour.  Subgradient ascent pushes the
potentials toward equal node degrees (Held & Karp 1970/71).

The ascent runs its steps on two graphs (Helsgaun 2000, as in LKH):

* Step 1 is the exact 1-tree at zero potentials.  Its spanning part is an
  MST of the graph less node 0, the tree the MST's build spans before it
  adds node 0.  Where that build shows the dense scan would have no tie (no
  two light pairs of one length, no tie test of its component Prim fired),
  ``minimum_spanning_tree`` hands the tree over with the zero-potential
  scan's bits, and the caller passes it on, so step 1 needs no O(n^2)
  scan.  Otherwise step 1 takes the dense Prim scan
  (``spanning_tree.prim_scan``), which reads one distance row per step.
* Steps 2..N build their 1-trees on a sparse candidate graph by the
  vectorised Boruvka pass that also spans the MST's light pairs
  (``spanning_tree.boruvka``).  The graph holds, for each node, its
  ``NEAREST`` nearest neighbours and its ``PER_QUADRANT`` nearest in each
  quadrant around it, plus the spanning edges of step 1's 1-tree, so nodes
  1..n-1 are always connected.  Up to ``COMPLETE_UP_TO`` nodes it
  holds every pair.  Node 0's two edges still come from its dense row.  The
  graph is built only when a second step runs.
* The candidate picks come from a grid of about ``CELL_POINTS`` points a
  cell over the bounding box of nodes 1..n-1: a node reads the cells within
  ``REACH`` of its own.  It keeps those picks only where they are certified:
  each pick strictly nearer than the next candidate, so there is no tie at
  the cut, and than every point outside the cells it read.  Every other
  node reads its full row, as the build did before the grid, so the graph
  does not depend on which nodes the grid certified.
* Certificates: the steps run in ``ROUNDS`` rounds of equal length.  At
  the end of a round and at the step where the ascent stops, the
  potentials of the best step so far get a dense 1-tree unless they have
  one.  The exact value becomes the one later steps must beat, and the
  dense tree's spanning edges join the candidate graph, so the graph grows
  where it overstated the 1-tree.

A sparse 1-tree may miss a lighter edge, so its value is no bound by
itself.  The result is the largest value of a dense 1-tree: step 1's or a
certificate's, so it is a valid lower bound whatever the candidate graph
missed.

The ascent stops at its last step, at a 1-tree that is a tour, or at one
that reaches the step target: the weight of the depth-first traversal tour
of the rooted minimum spanning tree.  The step factor starts at 2.0 and
halves after every ``patience = max(5, iterations // 20)`` consecutive
non-improving steps.  (With ``iterations // 10`` the ascent was still
climbing at its last steps, and where it ended moved by half a percent
under a small change of its path; the floor of 5 keeps short ascents from
halving every step or two.)

Memory: the dense scans read one row at a time (above the distance cache
over the nodes not yet in the tree), and the candidate graph is built from
blocks of at most ``BLOCK_ENTRIES`` distances, grid reads and full rows
alike (recomputed from coordinates above the distance cache), so beyond the
instance's distance object the ascent needs O(n K) memory for K candidate
edges per node (each certificate adds at most n - 2 edges).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import InternalInvariantError
from .instances import Instance, PairwiseDistances
from .oracles import depth_first_shortcut
from .spanning_tree import RootedTree, boruvka, prim_scan

NEAREST = 5  # nearest neighbours per node in the candidate graph
PER_QUADRANT = 2  # nearest neighbours per quadrant, for clustered points
COMPLETE_UP_TO = 12  # up to this n every pair is a candidate
BLOCK_ENTRIES = 1 << 17  # distances per block while the candidates are picked
CELL_POINTS = 2  # points per grid cell, on average, when the candidates are picked
REACH = 2  # a row reads the cells up to this many steps away in x and in y
ROUNDS = 5  # each ascent is cut into this many rounds, each ended by a certificate
HK_ITERATIONS = 1000  # default ascent length


def _add_node_zero(
    d0: np.ndarray, pi: np.ndarray, spanning: float, degrees: np.ndarray
) -> tuple[float, np.ndarray]:
    """Close a spanning tree of 1..n-1 into a 1-tree with node 0's two edges.

    ``d0`` is node 0's distance row.  The two cheapest reduced edges are
    taken, ties to the smaller id; ``degrees`` is updated in place.
    """
    row0 = (d0 - pi[0]) - pi
    row0[0] = np.inf
    e1 = int(row0.argmin())
    w1 = row0[e1]
    row0[e1] = np.inf
    e2 = int(row0.argmin())
    degrees[0] += 2
    degrees[e1] += 1
    degrees[e2] += 1
    return spanning + float(w1 + row0[e2]), degrees


def _one_tree(
    dist: PairwiseDistances,
    pi: np.ndarray,
    spanning: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimum 1-tree under distances reduced by the potentials.

    Returns its reduced weight, the node degree vector and the parent links
    of its spanning part (-1 at nodes 0 and 1).  Node 0 is the special node;
    the spanning tree over 1..n-1 is ``prim_scan``'s with potentials (ties to
    the smallest index), and the weight is summed left to right in pick
    order.  ``spanning``, when given, is what that scan returns (links and
    picked keys), as ``minimum_spanning_tree`` hands it over at zero
    potentials.
    """
    parent, picked = prim_scan(dist, pi) if spanning is None else spanning
    degrees = np.zeros(dist.n, dtype=np.int64)
    degrees[2:] = 1
    np.add.at(degrees, parent[2:], 1)
    # node 1 is picked first, with key 0.0 and no parent
    total, degrees = _add_node_zero(dist.pairs(0, slice(None)), pi,
                                    np.add.accumulate(picked)[-1], degrees)
    return total, degrees, parent


def _candidate_edges(inst: Instance, spanning: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate edges over nodes 1..n-1 as (u, v) arrays with u < v, sorted.

    ``spanning`` holds the parent links of a spanning tree of 1..n-1 (-1 at
    its root and at node 0); its edges are always candidates.  Each row's
    picks come from the grid (``_grid_picks``) where it can certify them,
    and otherwise from the dense row pass (``_dense_picks``); both pick the
    same set, so the edges do not depend on which row went which way.
    """
    n = inst.n
    if n <= COMPLETE_UP_TO:
        u, v = np.triu_indices(n - 1, 1)
        return u + 1, v + 1
    us, vs, rest = _grid_picks(inst)
    step = max(1, BLOCK_ENTRIES // n)
    for lo in range(0, rest.size, step):
        _dense_picks(inst, rest[lo:lo + step], us, vs)
    return _with_tree_edges(n, np.concatenate(us), np.concatenate(vs), spanning)


def _dense_picks(inst: Instance, rows: np.ndarray, us: list, vs: list) -> None:
    """Append the picks of ``rows`` (``NEAREST`` nearest and ``PER_QUADRANT``
    nearest in each quadrant, among nodes 1..n-1) to ``us`` and ``vs``.

    One block of ``rows.size`` full distance rows.  The quadrants around a
    node are half-open: east and not south, north and not east, west and not
    north, south and not west.  A coincident point is in none of them; it is
    among the nearest.  ``argpartition`` picks arbitrarily among equal
    distances at the cut; the grid never certifies such a row.
    """
    xy = inst.coords
    block = inst.distances.pairs(rows[:, None], np.arange(inst.n))
    block[:, 0] = np.inf
    block[np.arange(rows.size), rows] = np.inf
    us.append(np.repeat(rows, NEAREST))
    vs.append(np.argpartition(block, NEAREST - 1, axis=1)[:, :NEAREST].ravel())
    east, west = xy[:, 0] > xy[rows, 0, None], xy[:, 0] < xy[rows, 0, None]
    north, south = xy[:, 1] > xy[rows, 1, None], xy[:, 1] < xy[rows, 1, None]
    for quadrant in (east & ~south, north & ~east, west & ~north, south & ~west):
        masked = np.where(quadrant, block, np.inf)
        pick = np.argpartition(masked, PER_QUADRANT - 1, axis=1)[:, :PER_QUADRANT]
        found = np.take_along_axis(masked, pick, axis=1) < np.inf
        us.append(np.broadcast_to(rows[:, None], pick.shape)[found])
        vs.append(pick[found])


def _grid_picks(inst: Instance) -> tuple[list, list, np.ndarray]:
    """The picks ``_dense_picks`` would make, for every row the grid certifies,
    as lists of (u, v) arrays, and the rows it does not certify.

    Nodes 1..n-1 go into a grid of about ``CELL_POINTS`` points a cell over
    their bounding box, and each row reads the points in the window of
    ``(2 REACH + 1)^2`` cells around its own.  A point outside the window
    lies beyond one of its four sides, at least as far off in that
    coordinate as the nearest outside point there; distances are monotone in
    each coordinate difference, so the distance to that coordinate bounds
    every point beyond the side from below, bit for bit.  A quadrant reaches
    outside points beyond two sides only.  A row is certified when its
    ``NEAREST``-th nearest read is below the bound and below the next read,
    and in each quadrant the ``PER_QUADRANT``-th nearest read is below the
    next one and below the quadrant's bound (or no outside point is in
    reach).  Then the nearest set and each quadrant's set are unique, so an
    exact pass over the full row picks them too.
    """
    n = inst.n
    dist = inst.distances
    xy = inst.coords[1:]
    lo = xy.min(axis=0)
    span = xy.max(axis=0) - lo
    cells = max(1, (n - 1) // CELL_POINTS)
    side = np.sqrt(span.prod() / cells) if span.prod() > 0 else span.max() / cells
    shape = np.ones(2, dtype=np.intp)  # columns, rows
    if side > 0:
        shape = np.clip(np.ceil(span / side), 1, cells).astype(np.intp)
    frac = np.divide(xy - lo, span, out=np.zeros_like(xy), where=span > 0)  # in [0, 1]
    cell = np.minimum((frac * shape).astype(np.intp), shape - 1)  # monotone in x and in y
    flat = cell[:, 1] * shape[0] + cell[:, 0]
    order = np.argsort(flat, kind="stable")
    start = np.zeros(shape.prod() + 1, dtype=np.intp)
    np.cumsum(np.bincount(flat, minlength=shape.prod()), out=start[1:])
    first, last = cell - REACH, cell + REACH  # the window, clipped below
    np.maximum(first, 0, out=first)
    np.minimum(last, shape - 1, out=last)

    def beyond(axis):
        """Per node, the nearest outside coordinate past its window's high
        side on ``axis`` and past its low side (+-inf where none is)."""
        least = np.full(shape[axis] + 1, np.inf)  # per cell line, and none past the last
        np.minimum.at(least, cell[:, axis], xy[:, axis])
        greatest = np.full(shape[axis] + 1, -np.inf)  # shifted by one: none before the first
        np.maximum.at(greatest, cell[:, axis] + 1, xy[:, axis])
        return (np.minimum.accumulate(least[::-1])[::-1][last[:, axis] + 1],
                np.maximum.accumulate(greatest)[first[:, axis]])

    nodes = np.arange(1, n)
    (east_x, west_x), (north_y, south_y) = beyond(0), beyond(1)
    to_east, to_west = (dist.to_points(nodes, e, xy[:, 1]) for e in (east_x, west_x))
    to_north, to_south = (dist.to_points(nodes, xy[:, 0], e) for e in (north_y, south_y))
    quadrant_bounds = (np.minimum(to_east, to_north), np.minimum(to_north, to_west),
                       np.minimum(to_west, to_south), np.minimum(to_south, to_east))
    nearest_bound = np.minimum(quadrant_bounds[0], quadrant_bounds[2])

    # each cell row of a window is one run of the sorted points
    band = cell[:, 1, None] + np.arange(-REACH, REACH + 1)
    inside = (band >= 0) & (band < shape[1])
    base = np.clip(band, 0, shape[1] - 1) * shape[0]
    run_start = np.where(inside, start[base + first[:, 0, None]], 0)
    run_length = np.where(inside, start[base + last[:, 0, None] + 1], 0) - run_start
    reads = run_length.sum(axis=1)
    # rows in order of their reads, so a block pads to a similar width.  A
    # read costs about two entries of a full row, so a window reading over
    # an eighth of the points would save little and lose up to a quarter of
    # a full row where the grid cannot certify
    rows = np.argsort(reads)
    read = int(np.searchsorted(reads[rows], n // 8, side="right"))  # rows[:read] use the grid
    us, vs, rest = [], [], [rows[read:] + 1]
    b = 0
    while b < read:
        # as many rows as fit at the first one's width, cut to fit the last one's
        end = min(read, b + BLOCK_ENTRIES // max(NEAREST + 1, reads[rows[b]]))
        end = b + max(1, min(end - b, BLOCK_ENTRIES // max(NEAREST + 1, reads[rows[end - 1]])))
        p, b = rows[b:end], end
        width = max(NEAREST + 1, int(reads[p[-1]]))
        lens = run_length[p].ravel()
        at = np.arange(lens.sum())
        member = order[at + np.repeat(run_start[p].ravel() - (np.cumsum(lens) - lens), lens)]
        row = np.repeat(np.arange(p.size), reads[p])
        col = at - np.repeat(np.cumsum(reads[p]) - reads[p], reads[p])
        other = member != p[row]
        cand = np.zeros((p.size, width), dtype=np.intp)  # node 0 pads: its read is inf
        cand[row[other], col[other]] = member[other] + 1
        vals = np.full((p.size, width), np.inf)
        vals[row[other], col[other]] = dist.pairs(p[row[other]] + 1, member[other] + 1)

        cut = np.partition(vals, [NEAREST - 1, NEAREST], axis=1)
        kth = cut[:, NEAREST - 1]
        ok = (kth < cut[:, NEAREST]) & (kth < nearest_bound[p])
        picks = vals <= kth[:, None]
        px, py = inst.coords[cand, 0], inst.coords[cand, 1]
        east, west = px > xy[p, 0, None], px < xy[p, 0, None]
        north, south = py > xy[p, 1, None], py < xy[p, 1, None]
        quadrants = (east & ~south, north & ~east, west & ~north, south & ~west)
        for quadrant, bound in zip(quadrants, quadrant_bounds):
            masked = np.where(quadrant, vals, np.inf)
            cut = np.partition(masked, [PER_QUADRANT - 1, PER_QUADRANT], axis=1)
            kth, bound = cut[:, PER_QUADRANT - 1], bound[p]
            # fewer than PER_QUADRANT read (kth inf) is fine only with none in reach
            ok &= (kth < cut[:, PER_QUADRANT]) | (kth == np.inf)
            ok &= (kth < bound) | (bound == np.inf)
            picks |= (masked <= kth[:, None]) & (masked < np.inf)
        rest.append(p[~ok] + 1)
        picks &= ok[:, None]
        us.append(np.broadcast_to(p[:, None] + 1, picks.shape)[picks])
        vs.append(cand[picks])
    return us, vs, np.concatenate(rest)


def _with_tree_edges(
    n: int, u: np.ndarray, v: np.ndarray, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The edges (u, v) and the tree edges of ``parent`` (-1 where a node
    has none) as sorted (u, v) arrays with u < v and no repeats."""
    children = np.flatnonzero(parent >= 0)
    u, v = np.concatenate([u, children]), np.concatenate([v, parent[children]])
    key = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    return key // n, key % n


def _sparse_one_tree(
    n: int, u: np.ndarray, v: np.ndarray, length: np.ndarray, d0: np.ndarray, pi: np.ndarray
) -> tuple[float, np.ndarray]:
    """Minimum 1-tree whose spanning part uses only the candidate edges (u, v).

    ``u < v`` holds for every edge, sorted by (u, v).  The spanning part is
    ``boruvka``'s forest under the strict edge order (reduced weight, edge
    id), so the tree is unique even under ties; its value sums the taken
    edges in id order.  Node 0's two edges come from its dense row ``d0``.
    """
    w = (length - pi[u]) - pi[v]
    tree = np.flatnonzero(boruvka(n, u, v, w)[0])
    if tree.size != n - 2:
        raise InternalInvariantError("the candidate graph does not span nodes 1..n-1")
    degrees = np.bincount(u[tree], minlength=n) + np.bincount(v[tree], minlength=n)
    return _add_node_zero(d0, pi, w[tree].sum(), degrees)


class AscentSummary(NamedTuple):
    """How a subgradient ascent went (a named tuple: cheaper to define at
    import than a frozen dataclass, and as immutable).

    ``iterations`` counts the steps taken (fewer than asked when a step's
    1-tree was a tour or reached the step target), ``best_iteration`` is
    the 1-based iteration whose potentials gave ``bound``, and ``final_gap``
    is the depth-first tour weight minus ``bound``.  ``sparse_gap`` is the
    highest value any step reached minus ``bound``: how far the candidate
    graph's 1-trees overstated the bound (0.0 when no step beat step 1).
    It can also be a few ulps below 0, since the dense and the sparse
    1-tree sum their edges in different orders and round differently.
    """

    bound: float
    iterations: int
    halvings: int
    best_iteration: int
    final_gap: float
    sparse_gap: float


def held_karp_ascent(inst: Instance, tree: RootedTree, iterations: int = HK_ITERATIONS,
                     spanning: Optional[tuple[np.ndarray, np.ndarray]] = None) -> AscentSummary:
    """Subgradient ascent on 1-tree potentials, with its summary.

    ``tree`` is the instance's rooted minimum spanning tree (``root_tree`` of
    the parent links ``minimum_spanning_tree`` returns); its depth-first tour
    sets the step target.  ``spanning`` passes on the third value of
    ``minimum_spanning_tree``, its scan's tree over nodes 1..n-1 where the
    scan had no tie; step 1's 1-tree is then closed from it, with the dense
    scan's bits, and otherwise (None) from a dense scan of its own.
    The bound is the value of a dense 1-tree, so it is always a valid lower
    bound on the optimal tour weight; deterministic for fixed (inst,
    iterations).
    """
    n = inst.n
    if n < 3:
        raise ValueError("the 1-tree bound needs n >= 3")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    dist = inst.distances
    upper = depth_first_shortcut(inst, tree).weight

    def exact(pi: np.ndarray, spanning=None) -> tuple[float, np.ndarray, np.ndarray]:
        reduced, degrees, parent = _one_tree(dist, pi, spanning)
        return reduced + 2.0 * float(pi.sum()), degrees, parent

    pi = best_pi = np.zeros(n)
    # step 1, at zero potentials: from the MST's scan, else (None) a dense scan
    bound, degrees, parent = exact(pi, spanning)
    best = peak = certified = bound
    it = best_at = certified_at = checked_at = 1
    lam = 2.0
    patience = max(5, iterations // 20)
    round_length = -(-iterations // ROUNDS)
    stall = halvings = 0
    while True:
        g = 2.0 - degrees
        norm_sq = float(g @ g)
        gap = upper - bound
        # stop at the last step, at a tour (no step moves the potentials) or at the step target
        stop = it == iterations or norm_sq == 0.0 or gap <= 0.0
        if (stop or it % round_length == 0) and best_at > checked_at:
            # certify the best potentials, make the exact value the one to
            # beat, and add the dense tree's edges to the candidate graph
            best, _, parent = exact(best_pi)
            checked_at = best_at
            if best > certified:
                certified, certified_at = best, best_at
            u, v = _with_tree_edges(n, u, v, parent)
            length = dist.pairs(u, v)
        if stop:
            break
        pi = pi + lam * gap / norm_sq * g
        it += 1
        if it == 2:  # the first sparse step: candidates around step 1's tree
            u, v = _candidate_edges(inst, parent)
            length, d0 = dist.pairs(u, v), dist.pairs(0, slice(None))
        reduced, degrees = _sparse_one_tree(n, u, v, length, d0, pi)
        bound = reduced + 2.0 * float(pi.sum())
        peak = max(peak, bound)
        if bound > best:
            best, best_at, best_pi, stall = bound, it, pi, 0
        else:
            stall += 1
            if stall >= patience:
                lam *= 0.5
                halvings += 1
                stall = 0
    return AscentSummary(float(certified), it, halvings, certified_at,
                         float(upper - certified), float(peak - certified))


def held_karp_lower_bound(inst: Instance, tree: RootedTree, iterations: int = HK_ITERATIONS,
                          spanning: Optional[tuple[np.ndarray, np.ndarray]] = None) -> float:
    """Best 1-tree Lagrangian bound found by ``held_karp_ascent``."""
    return held_karp_ascent(inst, tree, iterations, spanning).bound
