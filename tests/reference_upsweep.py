"""Frozen reference: the per-mask subset DP the dense upsweep replaced.

This is the upsweep as it stood before the dense preorder layout, kept
verbatim (only its imports and its one scalar distance call changed) so the
differential tests can compare the shipped tables bit for bit against it.
Do not edit or optimise it.

Bottom-up subset dynamic program for the optimal tree-admissible tour.

For a rooted tree, a tour is admissible when every subtree occupies a
contiguous arc of the cycle.  The weight of the best admissible tour is
computed bottom-up: for each node u, child subset V (a bitmask over u's
ordered child list) and destination a inside the selected subtrees, we keep
the weight of the cheapest path that starts at u, visits u plus exactly the
subtrees of V with each subtree contiguous, and stops at a.

Processing node u extends its table one child v at a time.  The bridge
values needed for that step describe paths that sweep u's part first, then
enter T(v), visit a child subset W of v plus v itself, and stop at v; these
come in four shapes depending on whether either side of the jump is empty.
The per-destination extension then splits v's children into the part swept
before reaching v and the part swept after it.

With a finite search depth k, a destination is kept only while its tree
distance from the table's node stays within k; minimisations range over kept
destinations only.  Every child sits at distance 1, so the tables never go
empty and the final minimisation at the root always has a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from doubletree.errors import GuardError, InternalInvariantError
from doubletree.instances import Instance
from doubletree.spanning_tree import RootedTree

from conftest import distance

# 4^d tables explode well before this; planar Euclidean trees stay <= 4-5
MASK_WIDTH_LIMIT = 20


@dataclass
class UpsweepStats:
    """Work and memory counters matching the advertised complexity bounds."""

    quad_evals: int = 0  # route-shape candidates examined (x, y pairs)
    extension_evals: int = 0  # per-destination split candidates examined
    live_entries: int = 0
    max_live_entries: int = 0
    bip_entries: int = 0


class BipartitionTable:
    """Bridge-sweep values keyed by (child v, parent-side mask, child-side mask).

    Each value keeps the weight together with the jump-edge endpoints (x, y)
    that attained it, which is exactly what tour reconstruction needs.
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: dict[tuple[int, int, int], tuple[float, int, int]] = {}

    def put(self, v: int, V: int, W: int, weight: float, x: int, y: int) -> None:
        self._data[(v, V, W)] = (weight, x, y)

    def entry(self, v: int, V: int, W: int) -> tuple[float, int, int]:
        try:
            return self._data[(v, V, W)]
        except KeyError:
            raise InternalInvariantError(
                f"missing bridge value for child {v}, masks ({V:b}, {W:b})"
            ) from None

    def weight(self, v: int, V: int, W: int) -> float:
        return self.entry(v, V, W)[0]

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: tuple[int, int, int]) -> bool:
        return key in self._data


@dataclass
class UpsweepResult:
    weight: float
    best_a: int
    n: int
    k: Optional[int]
    tree_root: int
    max_children: int
    root_table: dict[int, tuple[np.ndarray, np.ndarray]]
    bipartitions: Optional[BipartitionTable]
    stats: UpsweepStats
    sweep_tables: Optional[dict[int, dict[int, tuple[np.ndarray, np.ndarray]]]] = None


class UpsweepRun:
    """Mutable state of one weight pass.

    ``upsweep`` drives this in postorder; tests may construct a run and call
    :meth:`process_node` in any valid bottom-up order themselves.
    """

    def __init__(
        self,
        inst: Instance,
        tree: RootedTree,
        k: Optional[int] = None,
        keep_bipartitions: bool = False,
        keep_sweep_tables: bool = False,
    ):
        if tree.n != inst.n:
            raise ValueError("instance and tree disagree on n")
        if tree.max_children > MASK_WIDTH_LIMIT:
            raise GuardError(
                f"max_children={tree.max_children} exceeds mask width limit "
                f"{MASK_WIDTH_LIMIT}; subset tables would not fit"
            )
        if k is not None and k < 1:
            raise ValueError("depth limit k must be >= 1 (or None for unlimited)")
        self.inst = inst
        self.tree = tree
        self.k = k
        self.dist = inst.distances
        self.depth = np.array(tree.depth, dtype=np.int64)
        self.stats = UpsweepStats()
        self.bip: Optional[BipartitionTable] = BipartitionTable() if keep_bipartitions else None
        self.keep_sweep_tables = keep_sweep_tables
        self.tables: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        self.processed = [False] * inst.n
        self._scratch = np.full(inst.n, np.inf)
        self._empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=float))

    # -- table access -------------------------------------------------------

    def dests(self, u: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """Stored (destination ids, weights) for node u and child mask."""
        if mask == 0:
            return self._empty
        return self.tables[u][mask]

    def _store(self, u: int, mask: int, ids: np.ndarray, w: np.ndarray) -> None:
        self.tables[u][mask] = (ids, w)
        self.stats.live_entries += ids.size
        if self.stats.live_entries > self.stats.max_live_entries:
            self.stats.max_live_entries = self.stats.live_entries

    def _release(self, u: int) -> None:
        table = self.tables.pop(u, None)
        if table is not None:
            self.stats.live_entries -= sum(ids.size for ids, _ in table.values())

    # -- the two inner computations ----------------------------------------

    def bipartition_path_weight(
        self, u: int, V: int, v: int, W: int
    ) -> Optional[tuple[float, int, int]]:
        """Cheapest sweep of u + T(V) then T(W) + v, from u to v.

        Returns (weight, x, y) where (x, y) is the jump edge between the two
        phases, or None when a required destination range is empty (possible
        only if a caller bypasses the standard storage rule).
        """
        if V == 0 and W == 0:
            self.stats.quad_evals += 1
            return (distance(self.inst, u, v), u, v)
        if V == 0:
            ids, wts = self.dests(v, W)
            if ids.size == 0:
                return None
            cand = self.dist.pairs(u, ids) + wts
            self.stats.quad_evals += ids.size
            j = int(np.argmin(cand))
            return (float(cand[j]), u, int(ids[j]))
        if W == 0:
            ids, wts = self.dests(u, V)
            if ids.size == 0:
                return None
            cand = wts + self.dist.pairs(v, ids)
            self.stats.quad_evals += ids.size
            j = int(np.argmin(cand))
            return (float(cand[j]), int(ids[j]), v)
        ids_x, w_x = self.dests(u, V)
        ids_y, w_y = self.dests(v, W)
        if ids_x.size == 0 or ids_y.size == 0:
            return None
        m = w_x[:, None] + self.dist.pairs(ids_x[:, None], ids_y) + w_y[None, :]
        self.stats.quad_evals += m.size
        flat = int(np.argmin(m))
        xi, yi = divmod(flat, m.shape[1])
        return (float(m[xi, yi]), int(ids_x[xi]), int(ids_y[yi]))

    def extend_sweep(self, u: int, V: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Destination slice inside T(v) for the mask V extended by v.

        Computes all bridge values for (u, V, v) first, then the minimum over
        child splits of v for every kept destination.  Returns (ids, weights)
        sorted by node id; the entry for v itself uses the full-mask bridge.
        """
        nb = len(self.tree.children[v])
        full = (1 << nb) - 1
        bip_w = np.empty(full + 1)
        for W in range(full + 1):
            r = self.bipartition_path_weight(u, V, v, W)
            if r is None:
                raise InternalInvariantError(
                    f"empty destination range for ({u}, {V:b}, {v}, {W:b})"
                )
            bip_w[W] = r[0]
            if self.bip is not None:
                self.bip.put(v, V, W, r[0], r[1], r[2])
        if self.bip is not None:
            self.stats.bip_entries = len(self.bip)
        if nb == 0:
            return np.array([v], dtype=np.int64), np.array([bip_w[0]])

        max_depth = None if self.k is None else int(self.depth[u]) + self.k
        ids_all, _ = self.dests(v, full)
        if max_depth is not None:
            ids_all = ids_all[self.depth[ids_all] <= max_depth]
        scratch = self._scratch
        # descending Wbar scans the swept-before masks in ascending order, so
        # ties keep the lowest split mask
        for Wbar in range(full, 0, -1):
            ids, wts = self.dests(v, Wbar)
            if max_depth is not None:
                keep = self.depth[ids] <= max_depth
                ids, wts = ids[keep], wts[keep]
            if ids.size == 0:
                continue
            self.stats.extension_evals += ids.size
            scratch[ids] = np.minimum(scratch[ids], bip_w[full ^ Wbar] + wts)
        vals = scratch[ids_all].copy()
        scratch[ids_all] = np.inf
        out_ids = np.concatenate([ids_all, np.array([v], dtype=np.int64)])
        out_w = np.concatenate([vals, np.array([bip_w[full]])])
        order = np.argsort(out_ids)
        return out_ids[order], out_w[order]

    # -- per-node driver ----------------------------------------------------

    def process_node(self, u: int) -> None:
        """Fill u's table for every child mask, smallest masks first."""
        cu = self.tree.children[u]
        if any(not self.processed[v] for v in cu):
            raise ValueError(f"children of {u} not processed yet")
        c = len(cu)
        self.tables[u] = {}
        if c > 0:
            by_level: list[list[int]] = [[] for _ in range(c + 1)]
            for m in range(1 << c):
                by_level[m.bit_count()].append(m)
            pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
            for s in range(c):
                for V in by_level[s]:
                    for vi in range(c):
                        bit = 1 << vi
                        if V & bit:
                            continue
                        pending.setdefault(V | bit, []).append(
                            self.extend_sweep(u, V, cu[vi])
                        )
                for mask in by_level[s + 1]:
                    parts = pending.pop(mask)
                    ids = np.concatenate([p[0] for p in parts])
                    w = np.concatenate([p[1] for p in parts])
                    order = np.argsort(ids)
                    self._store(u, mask, ids[order], w[order])
        self.processed[u] = True
        if not self.keep_sweep_tables:
            for v in cu:
                self._release(v)

    def finish(self) -> UpsweepResult:
        """Close the cycle at the root and package the result."""
        tree = self.tree
        r = tree.root
        if not self.processed[r]:
            raise ValueError("root not processed")
        full = (1 << len(tree.children[r])) - 1
        ids, w = self.dests(r, full)
        if ids.size == 0:
            raise InternalInvariantError("no tour candidates at the root")
        total = w + self.dist.pairs(r, ids)
        j = int(np.argmin(total))
        weight = float(total[j])
        best_a = int(ids[j])

        d = tree.max_children
        n = self.inst.n
        if self.stats.quad_evals > (4**d) * n * n:
            raise InternalInvariantError(
                f"route-candidate count {self.stats.quad_evals} exceeds 4^d n^2"
            )
        if not self.keep_sweep_tables and self.stats.max_live_entries > (2**d) * n:
            raise InternalInvariantError(
                f"live table entries {self.stats.max_live_entries} exceed 2^d n"
            )
        if self.bip is not None and len(self.bip) > (4**d) * n:
            raise InternalInvariantError("bridge table larger than 4^d n")

        return UpsweepResult(
            weight=weight,
            best_a=best_a,
            n=n,
            k=self.k,
            tree_root=r,
            max_children=d,
            root_table=dict(self.tables[r]),
            bipartitions=self.bip,
            stats=self.stats,
            sweep_tables=self.tables if self.keep_sweep_tables else None,
        )


def upsweep(
    inst: Instance,
    tree: RootedTree,
    k: Optional[int] = None,
    keep_bipartitions: bool = False,
    keep_sweep_tables: bool = False,
) -> UpsweepResult:
    """Optimal admissible-tour weight for ``tree``; k=None searches exactly.

    ``keep_bipartitions`` retains the bridge tables needed by tour
    reconstruction (space grows from 2^d n to 4^d n).
    """
    if inst.n < 2:
        raise ValueError("tour search needs at least two nodes")
    run = UpsweepRun(
        inst,
        tree,
        k=k,
        keep_bipartitions=keep_bipartitions,
        keep_sweep_tables=keep_sweep_tables,
    )
    for u in tree.postorder:
        run.process_node(u)
    return run.finish()
