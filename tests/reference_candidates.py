"""Frozen reference: the dense candidate-graph build before the grid.

This is ``hk_bound._candidate_edges`` as it stood before the rows it can
certify were read from a grid, kept verbatim (only its imports changed) so
the differential tests can compare its (u, v) arrays against the grid
build's.  Do not edit or optimise it.
"""

from __future__ import annotations

import numpy as np

from doubletree.hk_bound import (
    BLOCK_ENTRIES,
    COMPLETE_UP_TO,
    NEAREST,
    PER_QUADRANT,
    _with_tree_edges,
)
from doubletree.instances import Instance


def _candidate_edges(inst: Instance, spanning: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate edges over nodes 1..n-1 as (u, v) arrays with u < v, sorted.

    ``spanning`` holds the parent links of a spanning tree of 1..n-1 (-1 at
    its root and at node 0); its edges are always candidates.  The nearest
    neighbours come from row blocks of at most ``BLOCK_ENTRIES`` distances,
    so no n x n block is ever held.  The quadrants around a node are
    half-open: east and not south, north and not east, west and not north,
    south and not west.  A coincident point is in none of them; it is among
    the nearest.
    """
    n = inst.n
    if n <= COMPLETE_UP_TO:
        u, v = np.triu_indices(n - 1, 1)
        return u + 1, v + 1
    xy = inst.coords
    dist = inst.distances
    cols = np.arange(n)
    us, vs = [], []
    step = max(1, BLOCK_ENTRIES // n)
    for lo in range(1, n, step):
        rows = np.arange(lo, min(n, lo + step))
        block = dist.pairs(rows[:, None], cols)
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
    return _with_tree_edges(n, np.concatenate(us), np.concatenate(vs), spanning)

