"""Time the upsweep (the subset DP) on its own and print the figures as JSON.

Usage (from the repository root; any checkout's ``src`` can be put first on
the path, so two versions can be timed in turn on the same machine):

    PYTHONPATH=src python tools/time_upsweep.py [--repeats 5]

It prints:

* ``upsweep_ms``: one ``upsweep`` call, the fastest of ``--repeats``, for
  uniform and clustered n=1000 at DT (exact search on the MST), DT_5_16
  (degree 5, depth 16) and DT_5_inf, and for uniform and clustered n=4000
  at DT and DT_1_16.  The tree is built once per case, outside the timing.
* ``held_share``: for the same cases, the share of (node, block) pairs
  whose distance block the upsweep holds for all of the node's masks.  A
  node has one block per non-leaf child and one for its leaf children
  together; a block is held when more than three masks read it and it has
  at most ``upsweep.HELD_BLOCK_ENTRIES`` entries.
* ``tree``: for the same cases, ``heights``, the number of heights with a
  node that is not a leaf; ``batch_steps``, the batched steps one upsweep
  runs (each height's layer 0, and the layer 1 of its two-child nodes, cut
  at the cap), counted by wrapping ``upsweep._batch`` (null on a checkout
  without it); and ``node_steps``, the nodes that run their nonempty masks
  on their own, counted by wrapping ``upsweep._nonempty_masks`` (on this
  tree those with three or more children and two-child nodes over the cap).
* ``peak_mb``: for the same cases, the tracemalloc peak of one more,
  untimed upsweep in MB (10^6 bytes): its tables, bridges and temporaries.
  The distance object is built before it, so a cached matrix is not
  counted.

Wall times vary with the machine and its load; compare only figures from
one run of two checkouts, interleaved.  This script is a measurement, not a
test: nothing gates on it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import time
import tracemalloc

import numpy as np

from doubletree import degree_increase, generate_clustered, generate_uniform, minimum_spanning_tree, root_tree
from doubletree.upsweep import PreorderLayout, upsweep

# the package exports the function under the module's name
upsweep_mod = importlib.import_module("doubletree.upsweep")

BOX = 1e6
SEED = 1
# (class, n, degree limit D, depth k); D=1 is the MST itself, k=None exact
CASES = tuple((klass, 1000, d, k) for klass in ("uniform", "clustered")
              for d, k in ((1, None), (5, 16), (5, None))) + tuple(
    (klass, 4000, 1, k) for klass in ("uniform", "clustered") for k in (None, 16))
GENERATORS = {"uniform": generate_uniform, "clustered": generate_clustered}


def _label(klass: str, n: int, d: int, k) -> str:
    cell = "DT" if d == 1 and k is None else f"DT_{d}_{'inf' if k is None else k}"
    return f"{klass}-n{n}-{cell}"


def _case(klass: str, n: int, d: int):
    inst = GENERATORS[klass](n, SEED, BOX)
    mst = root_tree(minimum_spanning_tree(inst)[0])
    return inst, degree_increase(mst, d) if d >= 3 else mst


def time_upsweep(inst, tree, k, repeats: int) -> float:
    """Milliseconds of the fastest of ``repeats`` upsweeps."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        upsweep(inst, tree, k)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def peak_mb(inst, tree, k) -> float:
    """Tracemalloc peak of one upsweep, in MB."""
    tracemalloc.start()
    try:
        upsweep(inst, tree, k)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def steps(inst, tree, k) -> tuple:
    """Numbers of ``upsweep._batch`` and ``upsweep._nonempty_masks`` calls in
    one upsweep (None for a function the checkout does not have)."""
    names = [name for name in ("_batch", "_nonempty_masks") if hasattr(upsweep_mod, name)]
    kept, counts = {name: getattr(upsweep_mod, name) for name in names}, {name: [] for name in names}
    for name in names:
        setattr(upsweep_mod, name, lambda *a, _c=counts[name], _s=kept[name]: _c.append(1) or _s(*a))
    try:
        upsweep(inst, tree, k)
    finally:
        for name in names:
            setattr(upsweep_mod, name, kept[name])
    return tuple(len(counts[name]) if name in counts else None for name in ("_batch", "_nonempty_masks"))


def held_share(tree, k) -> float:
    """Share of (node, block) pairs whose block is held, by the rule above."""
    cap = upsweep_mod.HELD_BLOCK_ENTRIES
    layout = PreorderLayout.of(tree)
    held = total = 0
    for u, cu in enumerate(tree.children):
        if not cu:
            continue
        p0 = int(layout.pre[u])
        depth = layout.depth[p0:p0 + tree.subtree_size[u]]
        limit = np.inf if k is None else tree.depth[u] + k
        # x candidates: columns within k of u, u excluded
        xs = np.flatnonzero(depth <= limit)[1:]
        leaves = [v for v in cu if not tree.children[v]]
        # (children in the block, x candidates, live y) of each block
        blocks = [(len(leaves), xs.size, len(leaves))] if leaves else []
        for v in cu:
            if tree.children[v]:
                lo = int(layout.pre[v]) - p0
                hi = lo + tree.subtree_size[v]
                x = np.count_nonzero((xs < lo) | (xs >= hi))
                blocks.append((1, x, np.count_nonzero(depth[lo:hi] <= limit + 1)))
        total += len(blocks)
        # masks that read a block: nonempty, not full, missing one of its children
        c = len(cu)
        held += sum((1 << c) - (1 << (c - m)) - 1 > 3 and x * y <= cap for m, x, y in blocks)
    return held / total


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    times, shares, peaks, shape = {}, {}, {}, {}
    for klass, n, d, k in CASES:
        inst, tree = _case(klass, n, d)
        label = _label(klass, n, d, k)
        times[label] = round(time_upsweep(inst, tree, k, args.repeats), 1)
        shares[label] = round(held_share(tree, k), 3)
        peaks[label] = round(peak_mb(inst, tree, k), 2)
        batch, node = steps(inst, tree, k)
        shape[label] = {"heights": len(upsweep_mod._heights(tree)), "batch_steps": batch, "node_steps": node}
    out = {
        "upsweep_ms": times,
        "held_share": shares,
        "peak_mb": peaks,
        "tree": shape,
        "source": os.path.dirname(upsweep_mod.__file__),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
