"""Ground-truth machinery for small instances.

Everything here works straight from definitions: admissibility of a tour is
checked as "every subtree occupies one contiguous arc of the cycle", and the
optima come from exhaustive enumeration of Hamiltonian cycles (canonicalised
by fixing node 0 first and orienting so the second node is smaller than the
last).  These functions are the reference the dynamic program is tested
against, so they deliberately share none of its machinery.  Subtree
membership comes from the tree's stored preorder, in which T(u) is the run
of ``subtree_size[u]`` nodes starting at u; ``is_conforming`` walks parent
links alone.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence, Union

import numpy as np

from .downsweep import Tour
from .errors import GuardError
from .instances import Instance, cycle_weight
from .spanning_tree import RootedTree

# (n-1)!/2 cycles; 11 keeps a full scan under a minute
ORACLE_SIZE_LIMIT = 11
_CHUNK = 120_000


def _order_of(tour: Union[Tour, Sequence[int]]) -> tuple[int, ...]:
    if isinstance(tour, Tour):
        return tour.order
    return tuple(tour)


def is_conforming(tour: Union[Tour, Sequence[int]], tree: RootedTree) -> bool:
    """True iff every subtree's node set is one contiguous arc of the cycle.

    Counts, for each node, how many cycle edges cross its subtree boundary: a
    proper nonempty set is contiguous on a cycle exactly when two edges cross.
    Each cycle edge charges every node strictly below the meeting point of its
    endpoints' root paths.
    """
    order = _order_of(tour)
    n = tree.n
    if len(order) != n:
        raise ValueError(f"tour has {len(order)} nodes, tree has {n}")
    if sorted(order) != list(range(n)):
        raise ValueError("tour is not a permutation of the tree's nodes")
    depth, parent = tree.depth, tree.parent
    crossings = [0] * n
    for i in range(n):
        a, b = order[i], order[(i + 1) % n]
        da, db = depth[a], depth[b]
        while da > db:
            crossings[a] += 1
            a = parent[a]
            da -= 1
        while db > da:
            crossings[b] += 1
            b = parent[b]
            db -= 1
        while a != b:
            crossings[a] += 1
            crossings[b] += 1
            a = parent[a]
            b = parent[b]
    root = tree.root
    return all(crossings[u] == 2 for u in range(n) if u != root)


# ---------------------------------------------------------------------------
# exhaustive enumeration


def check_oracle_size(n: int) -> None:
    """Refuse (GuardError) an instance too large for exhaustive enumeration."""
    if n > ORACLE_SIZE_LIMIT:
        raise GuardError(
            f"exhaustive search limited to n <= {ORACLE_SIZE_LIMIT}, got n={n}"
        )


def _cycle_chunks(n: int) -> Iterator[np.ndarray]:
    """Canonical Hamiltonian cycles as (m, n) index arrays, in lex order.

    Node 0 is fixed first; reflections are removed by requiring
    order[1] < order[n-1].
    """
    if n <= 2:
        yield np.arange(n, dtype=np.int64)[None, :]
        return
    if n <= 9:
        yield _small_cycles(n)
        return
    it = itertools.permutations(range(1, n))
    while True:
        block = list(itertools.islice(it, _CHUNK))
        if not block:
            return
        perms = np.array(block, dtype=np.int64)
        perms = perms[perms[:, 0] < perms[:, -1]]
        if perms.size:
            full = np.empty((perms.shape[0], n), dtype=np.int64)
            full[:, 0] = 0
            full[:, 1:] = perms
            yield full


@lru_cache(maxsize=8)
def _small_cycles(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(1, n))), dtype=np.int64)
    perms = perms[perms[:, 0] < perms[:, -1]]
    full = np.empty((perms.shape[0], n), dtype=np.int64)
    full[:, 0] = 0
    full[:, 1:] = perms
    full.setflags(write=False)
    return full


def conforming_mask(tree: RootedTree, cycles: np.ndarray) -> np.ndarray:
    """Boolean mask of admissible cycles (contiguity of every proper subtree)."""
    n = tree.n
    mask = np.ones(cycles.shape[0], dtype=bool)
    pos = np.empty(n, dtype=np.intp)
    pos[np.array(tree.preorder)] = np.arange(n)
    at = pos[cycles]  # preorder position of every cycle entry
    for u in range(n):
        if u == tree.root or tree.subtree_size[u] < 2:
            continue  # leaves and the whole tree are always contiguous
        lo = pos[u]
        inside = (at >= lo) & (at < lo + tree.subtree_size[u])
        crossings = np.count_nonzero(inside != np.roll(inside, -1, axis=1), axis=1)
        mask &= crossings == 2
    return mask


def _chunk_weights(dist: np.ndarray, cycles: np.ndarray) -> np.ndarray:
    return dist[cycles, np.roll(cycles, -1, axis=1)].sum(axis=1)


def _best_cycle(inst: Instance, tree: RootedTree | None) -> Tour:
    n = inst.n
    check_oracle_size(n)
    dist = inst.distances.matrix()
    best_w = np.inf
    best: np.ndarray | None = None
    for cycles in _cycle_chunks(n):
        if tree is not None:
            cycles = cycles[conforming_mask(tree, cycles)]
            if cycles.shape[0] == 0:
                continue
        w = _chunk_weights(dist, cycles)
        j = int(np.argmin(w))
        if w[j] < best_w:
            best_w = float(w[j])
            best = cycles[j]
    if best is None:
        raise GuardError("no admissible cycle found; tree and instance disagree")
    order = tuple(int(x) for x in best)
    return Tour(order, cycle_weight(inst, order))


def enumerate_conforming_min(inst: Instance, tree: RootedTree) -> Tour:
    """Exhaustive minimum over tours admissible for ``tree``."""
    if tree.n != inst.n:
        raise ValueError("instance and tree disagree on n")
    return _best_cycle(inst, tree)


def brute_force_optimal(inst: Instance) -> Tour:
    """Exhaustive global minimum-weight Hamiltonian cycle."""
    return _best_cycle(inst, None)


def depth_first_shortcut(inst: Instance, tree: RootedTree) -> Tour:
    """Preorder traversal of the tree taken as a tour; always admissible."""
    if tree.n != inst.n:
        raise ValueError("instance and tree disagree on n")
    return Tour(tree.preorder, cycle_weight(inst, tree.preorder))
