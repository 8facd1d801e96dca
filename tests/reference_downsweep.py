"""Tour reconstruction from the bridges of the bottom-up subset pass.

The weight pass (:mod:`doubletree.upsweep`) yields the optimal weight and,
per child, every bridge weight with its jump edge.  To recover the tour
itself we walk the tree path between each sweep's two endpoints and split
every path node's other children into those swept on entry and those swept
on exit.  The splits come from one min-plus pass along the path: the step
into path node v adds, to the best cost of each split of its parent, the
bridge weights of v, read as one slice of v's bridge array.  Among equal
costs the earliest tail (the parent's lowest entry mask) wins.  Each chosen
bridge's jump edge then fixes where the subtree sweeps end, and those sweeps
are rebuilt the same way.  An explicit work stack drives the recursion, so
path-shaped trees of any depth are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from doubletree.errors import InternalInvariantError
from doubletree.instances import Instance, cycle_weight
from doubletree.spanning_tree import RootedTree
from doubletree.upsweep import UpsweepResult

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


def _tree_path(tree: RootedTree, u: int, a: int) -> list[int]:
    """Path u -> ... -> a where a lies in u's subtree."""
    path = [a]
    x = a
    while x != u:
        x = tree.parent[x]
        if x is None:
            raise InternalInvariantError(f"{a} is not inside the subtree of {u}")
        path.append(x)
    path.reverse()
    return path


class TourReconstructor:
    def __init__(self, tree: RootedTree, result: UpsweepResult):
        self.tree = tree
        self.result = result
        self.path_edges = 0
        self._submask_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def full_mask(self, v: int) -> int:
        return (1 << len(self.tree.children[v])) - 1

    def _bit(self, u: int, v: int) -> int:
        return 1 << self.tree.children[u].index(v)

    def _submasks(self, am: int) -> tuple[np.ndarray, np.ndarray]:
        """The submasks of ``am`` in ascending order, and their complements
        in ``am`` as a column."""
        if am not in self._submask_cache:
            m = np.arange(am + 1)
            heads = m[(m & ~am) == 0]
            self._submask_cache[am] = heads, (am ^ heads)[:, None]
        return self._submask_cache[am]

    def _solve_layers(self, path: list[int], V: int) -> tuple[list[int], list[int]]:
        """Choose the child-set splits along ``path``.

        Returns ``labels`` and ``avail``, one mask per path node: ``avail``
        holds its children off the path (those in V at ``path[0]``) and
        ``labels`` the part of them it sweeps on entry; it sweeps the rest
        on exit.  ``path[0]`` sweeps nothing on entry, ``path[-1]`` all.
        """
        bridges = self.result.bridges
        k = len(path) - 1
        avail = [V & ~self._bit(path[0], path[1])]
        avail += [self.full_mask(p) & ~self._bit(p, q) for p, q in zip(path[1:-1], path[2:])]
        avail.append(self.full_mask(path[k]))
        dist = [0.0]
        tails, rows = np.zeros(1, dtype=np.intp), np.array([[avail[0]]])
        back = []
        for i in range(k):
            heads, next_rows = self._submasks(avail[i + 1])
            if i + 1 == k:
                heads = heads[-1:]  # the last node sweeps all of its children
            weights = bridges[path[i + 1]][0]
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
        labels = [avail[k]]
        j = 0
        for tails, pick in reversed(back):
            j = pick[j]
            labels.append(int(tails[j]))
        labels.reverse()
        return labels, avail

    def reconstruct(self, u: int, V: int, a: int) -> list[int]:
        """Node sequence sweeping u plus the subtrees selected by mask V,
        starting at u and finishing at a."""
        out: list[int] = []
        stack: list[tuple[int, int, int, bool]] = [(u, V, a, False)]
        while stack:
            u, V, a, rev = stack.pop()
            if V == 0:
                if a != u:
                    raise InternalInvariantError("empty sweep must start and end at its root")
                out.append(u)
                continue
            path = _tree_path(self.tree, u, a)
            if len(path) < 2 or not V & self._bit(u, path[1]):
                raise InternalInvariantError(
                    f"destination {a} is outside the subtrees selected at {u}"
                )
            k = len(path) - 1
            self.path_edges += k
            labels, avail = self._solve_layers(path, V)
            # per arc i -> i+1: tail keeps behind avail[i] ^ labels[i],
            # head sweeps labels[i+1] on entry; the stored argmin gives the
            # jump edge endpoints inside those subtrees
            segments: list[tuple[int, int, int, bool]] = []  # forward order
            for i in range(k):
                tail_mask = avail[i] ^ labels[i]
                head_mask = labels[i + 1]
                _w, x, y = self.result.bridge(path[i + 1], tail_mask, head_mask)
                segments.append((path[i], tail_mask, x, False))
                segments.append((path[i + 1], head_mask, y, True))
            if rev:
                segments = [(uu, vv, aa, not rr) for (uu, vv, aa, rr) in reversed(segments)]
            stack.extend(reversed(segments))
        # adjacent duplicates appear exactly where an entry sweep hands over
        # to the exit sweep of the same path node
        dedup = [out[0]]
        for x in out[1:]:
            if x != dedup[-1]:
                dedup.append(x)
        return dedup


def downsweep(inst: Instance, tree: RootedTree, result: UpsweepResult) -> Tour:
    """Extract the optimal admissible tour from the bridges of a weight pass."""
    if result.n != inst.n or result.tree_root != tree.root:
        raise ValueError("upsweep result does not match this instance/tree")
    rec = TourReconstructor(tree, result)
    order = rec.reconstruct(tree.root, rec.full_mask(tree.root), result.best_a)
    if len(order) != inst.n or len(set(order)) != inst.n:
        raise InternalInvariantError("reconstructed tour is not a permutation")
    if rec.path_edges > inst.n:
        raise InternalInvariantError(
            f"reconstruction used {rec.path_edges} tree-path edges on {inst.n} nodes"
        )
    weight = cycle_weight(inst, order)
    if abs(weight - result.weight) > max(_ABS_TOL, _REL_TOL * abs(result.weight)):
        raise InternalInvariantError(
            f"reconstructed weight {weight!r} disagrees with table weight {result.weight!r}"
        )
    return Tour(tuple(order), weight)
