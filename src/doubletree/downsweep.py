"""Tour reconstruction from the bridges of the bottom-up subset pass.

The weight pass (:mod:`doubletree.upsweep`) yields the optimal weight and,
per child, every bridge weight with its jump edge.  One function,
:func:`sweep`, recovers the tour: it walks the tree path between a sweep's
two endpoints and splits every path node's other children into those swept
on entry and those swept on exit.  The splits come from one min-plus pass
along the path: the step into path node v adds, to the best cost of each
split of its parent, the bridge weights of v, read as one slice of v's
bridge array.  Among equal costs the earliest tail (the parent's lowest
entry mask) wins.  One backward pass then picks the splits, and each chosen
bridge's jump edge fixes where the subtree sweeps end; those sweeps go on an
explicit work stack, so path-shaped trees of any depth are safe.  A path
node ends its entry sweep where its exit sweep starts, so a node is emitted
only when it differs from the last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InternalInvariantError
from .instances import Instance, cycle_weight
from .spanning_tree import RootedTree
from .upsweep import UpsweepResult

_REL_TOL = 1e-9
_ABS_TOL = 1e-9
_FIRST = (0,)  # the pick of a min-plus step over one split


@dataclass(frozen=True)
class Tour:
    """A Hamiltonian cycle: visiting order plus its closed-cycle weight."""

    order: tuple[int, ...]
    weight: float


def write_tour_tsplib(tour: Tour, name: str = "tour") -> str:
    """TSPLIB TOUR_SECTION serialisation (1-based, -1 terminated)."""
    lines = [
        f"NAME : {name}",
        "TYPE : TOUR",
        f"DIMENSION : {len(tour.order)}",
        "TOUR_SECTION",
    ]
    lines.extend(str(v + 1) for v in tour.order)
    lines.append("-1")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def write_tour_plain(tour: Tour) -> str:
    """Newline-separated 0-based node list."""
    return "\n".join(str(v) for v in tour.order) + "\n"


@cache
def _submasks(am: int) -> tuple[np.ndarray, np.ndarray]:
    """The submasks of ``am`` in ascending order, and their complements in
    ``am`` as a column; both read-only, as every sweep shares them.  The
    cache keeps at most 2^D entries, D the largest child count seen."""
    m = np.arange(am + 1)
    heads = m[(m & ~am) == 0]
    rows = (am ^ heads)[:, None]
    heads.flags.writeable = rows.flags.writeable = False
    return heads, rows


def sweep(
    tree: RootedTree, result: UpsweepResult, u: int, V: int, a: int
) -> tuple[list[int], int]:
    """The optimal sweep of u plus the subtrees of its children in mask V,
    from u to a, and the number of tree-path edges its rebuild walked."""
    children, parent, bridges = tree.children, tree.parent, result.bridges
    out: list[int] = []
    path_edges = 0
    stack: list[tuple[int, int, int, bool]] = [(u, V, a, False)]
    while stack:
        u, V, a, rev = stack.pop()
        if V == 0:
            if a != u:
                raise InternalInvariantError("empty sweep must start and end at its root")
            if not out or out[-1] != u:  # an entry sweep hands over to an exit sweep
                out.append(u)
            continue
        path = [a]
        while path[-1] != u:
            x = parent[path[-1]]
            if x is None:
                raise InternalInvariantError(f"{a} is not inside the subtree of {u}")
            path.append(x)
        path.reverse()
        if len(path) < 2 or not V >> children[u].index(path[1]) & 1:
            raise InternalInvariantError(
                f"destination {a} is outside the subtrees selected at {u}"
            )
        k = len(path) - 1
        path_edges += k
        # avail: each path node's children off the path (at u, those in V)
        avail = [V ^ 1 << children[u].index(path[1])]
        for p, q in zip(path[1:], path[2:] + [None]):
            full = (1 << len(children[p])) - 1
            avail.append(full if q is None else full ^ 1 << children[p].index(q))
        # forward min-plus pass: the best cost of each split of each path
        # node into children swept on entry (heads) and on exit
        dist = [0.0]
        tails, rows = np.zeros(1, dtype=np.intp), np.array([[avail[0]]])
        back = []
        for i in range(1, k + 1):
            heads, next_rows = _submasks(avail[i])
            if i == k:
                heads = heads[-1:]  # the last node sweeps all of its children
            weights = bridges[path[i]][0]
            if len(dist) == 1 and heads.size == 1:
                # one split on each side: the same addition on Python floats
                dist = [dist[0] + weights.item(rows.item(0), heads.item(0))]
                back.append((tails, _FIRST))
            else:
                # one min-plus step; argmin keeps the earliest tail among ties
                cand = np.asarray(dist)[:, None] + weights[rows, heads]
                back.append((tails, cand.argmin(axis=0)))
                dist = cand.min(axis=0)
            tails, rows = heads, next_rows
        if not dist[0] < np.inf:
            raise InternalInvariantError(f"no finite split along the path {path}")
        # backward pass: per arc i -> i+1, the chosen split of node i; the
        # bridge's jump edge (x, y) ends the tail's exit sweep and starts
        # the head's entry sweep.  Arcs go on the stack last first, so the
        # first arc is popped first.
        head, j, segments = avail[k], 0, []
        for i in range(k - 1, -1, -1):
            tails, pick = back[i]
            j = pick[j]
            entry = int(tails[j])
            tail = avail[i] ^ entry
            _w, x, y = result.bridge(path[i + 1], tail, head)
            segments += [(path[i + 1], head, y, not rev), (path[i], tail, x, rev)]
            head = entry
        stack.extend(reversed(segments) if rev else segments)
    return out, path_edges


def downsweep(inst: Instance, tree: RootedTree, result: UpsweepResult) -> Tour:
    """Extract the optimal admissible tour from the bridges of a weight pass."""
    if result.n != inst.n or result.tree_root != tree.root:
        raise ValueError("upsweep result does not match this instance/tree")
    root = tree.root
    order, path_edges = sweep(
        tree, result, root, (1 << len(tree.children[root])) - 1, result.best_a
    )
    if len(order) != inst.n or len(set(order)) != inst.n:
        raise InternalInvariantError("reconstructed tour is not a permutation")
    if path_edges > inst.n:
        raise InternalInvariantError(
            f"reconstruction used {path_edges} tree-path edges on {inst.n} nodes"
        )
    weight = cycle_weight(inst, order)
    if abs(weight - result.weight) > max(_ABS_TOL, _REL_TOL * abs(result.weight)):
        raise InternalInvariantError(
            f"reconstructed weight {weight!r} disagrees with table weight {result.weight!r}"
        )
    return Tour(tuple(order), weight)
