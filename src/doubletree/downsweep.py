"""Tour reconstruction from the bridges of the bottom-up subset pass.

The weight pass (:mod:`doubletree.upsweep`) yields the optimal weight and,
per child, every bridge weight with its jump edge.  To recover the tour
itself we walk the tree path between each sweep's two endpoints, pick the
optimal split of every intermediate node's children via a shortest path in
a small layered graph, and recurse into the resulting subtree sweeps.  All
recursion is driven by an explicit work stack so path-shaped trees of any
depth are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InternalInvariantError
from .instances import Instance, cycle_weight
from .spanning_tree import RootedTree
from .upsweep import UpsweepResult

_REL_TOL = 1e-9
_ABS_TOL = 1e-9


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


@dataclass(frozen=True)
class LayeredGraph:
    """Layered DAG over child-set splits along one tree path.

    ``layers[i]`` lists the vertex labels of layer i in the order they should
    be scanned (ties in the shortest-path pass resolve toward earlier labels).
    ``weight(i, tail, head)`` returns the arc weight from label ``tail`` in
    layer i to label ``head`` in layer i+1.
    """

    layers: Sequence[Sequence[int]]
    weight: Callable[[int, int, int], float]


def layered_shortest_path(g: LayeredGraph) -> tuple[list[int], float]:
    """Exact forward relaxation; returns one label per layer plus the total."""
    layers = g.layers
    if len(layers) < 2:
        raise ValueError("layered graph needs at least source and sink layers")
    dist: list[float] = [0.0] * len(layers[0])
    back: list[list[int]] = []
    for i in range(1, len(layers)):
        nxt = [float("inf")] * len(layers[i])
        choice = [-1] * len(layers[i])
        for hj, head in enumerate(layers[i]):
            best = float("inf")
            pick = -1
            for tj, tail in enumerate(layers[i - 1]):
                d = dist[tj]
                if d == float("inf"):
                    continue
                cand = d + g.weight(i - 1, tail, head)
                if cand < best:
                    best = cand
                    pick = tj
            nxt[hj] = best
            choice[hj] = pick
        if all(p < 0 for p in choice):
            raise InternalInvariantError(f"layer {i} unreachable in layered graph")
        dist = nxt
        back.append(choice)
    # unique sink by construction of the reconstruction graphs; general case:
    # smallest-index minimum for determinism
    end = min(range(len(dist)), key=lambda j: (dist[j], j))
    total = dist[end]
    path = [end]
    for choice in reversed(back):
        path.append(choice[path[-1]])
    path.reverse()
    return [layers[i][j] for i, j in enumerate(path)], total


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
        self.bridge = result.bridge
        self.child_pos: list[dict[int, int]] = [
            {c: i for i, c in enumerate(ch)} for ch in tree.children
        ]
        self.path_edges = 0

    def full_mask(self, v: int) -> int:
        return (1 << len(self.tree.children[v])) - 1

    def _solve_layers(self, path: list[int], V: int) -> tuple[list[int], list[int], float]:
        """Choose the child-set splits along ``path``; returns per-layer
        (kept-behind mask, swept-on-entry mask) pairs encoded as avail/labels."""
        tree = self.tree
        k = len(path) - 1
        avail: list[int] = []
        layers: list[list[int]] = []
        # layer 0: everything except the branch toward path[1] still ahead
        v1_bit = 1 << self.child_pos[path[0]][path[1]]
        avail.append(V & ~v1_bit)
        layers.append([0])
        for i in range(1, k):
            nxt_bit = 1 << self.child_pos[path[i]][path[i + 1]]
            am = self.full_mask(path[i]) & ~nxt_bit
            avail.append(am)
            labels = [x for x in range(am + 1) if (x & ~am) == 0]
            layers.append(labels)
        avail.append(self.full_mask(path[k]))
        layers.append([avail[k]])

        def weight(i: int, tail: int, head: int) -> float:
            return self.bridge(path[i + 1], avail[i] ^ tail, head)[0]

        labels, total = layered_shortest_path(LayeredGraph(layers, weight))
        return labels, avail, total

    def reconstruct(self, u: int, V: int, a: int) -> list[int]:
        """Node sequence sweeping u plus the subtrees selected by mask V,
        starting at u and finishing at a."""
        out: list[int] = []
        # stack items: ("emit", node) or ("task", u, V, a, reversed)
        stack: list[tuple] = [("task", u, V, a, False)]
        while stack:
            item = stack.pop()
            if item[0] == "emit":
                out.append(item[1])
                continue
            _, u, V, a, rev = item
            if V == 0:
                if a != u:
                    raise InternalInvariantError("empty sweep must start and end at its root")
                out.append(u)
                continue
            path = _tree_path(self.tree, u, a)
            if len(path) < 2 or not (V >> self.child_pos[u][path[1]]) & 1:
                raise InternalInvariantError(
                    f"destination {a} is outside the subtrees selected at {u}"
                )
            k = len(path) - 1
            self.path_edges += k
            labels, avail, _total = self._solve_layers(path, V)
            # per arc i -> i+1: tail keeps behind avail[i] ^ labels[i],
            # head sweeps labels[i+1] on entry; the stored argmin gives the
            # jump edge endpoints inside those subtrees
            segments: list[tuple] = []  # forward order
            for i in range(k):
                tail_mask = avail[i] ^ labels[i]
                head_mask = labels[i + 1]
                _w, x, y = self.bridge(path[i + 1], tail_mask, head_mask)
                segments.append(("task", path[i], tail_mask, x, False))
                segments.append(("task", path[i + 1], head_mask, y, True))
            if rev:
                segments = [(t, uu, vv, aa, not rr) for (t, uu, vv, aa, rr) in segments]
                segments.reverse()
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
