"""Time the upsweep and the Held-Karp bound's parts and print them as JSON.

Usage (from the repository root; any checkout's ``src`` can be put first on
the path, so two versions can be timed in turn on the same machine):

    PYTHONPATH=src python tools/time_parts.py [upsweep] [bound] [--repeats 5]

It prints the sections named (both by default); each figure in ms is the
fastest of ``--repeats`` runs.  ``upsweep`` times the subset DP on its own,
each tree built outside the timing, at uniform and clustered n=1000 for DT
(exact search on the MST), DT_5_16 (degree 5, depth 16) and DT_5_inf, and
at n=4000 for DT and DT_1_16:

* ``upsweep_ms``: one ``upsweep`` call.
* ``held_share``: the share of (node, block) pairs whose distance block
  the upsweep holds for all of the node's masks, over the nodes that run
  their masks one node at a time (those ``node_steps`` counts; 0 where
  there are none).  Such a node has one block per non-leaf child and one
  for its leaf children together; a block is held when more than three
  masks read it and it has at most ``upsweep.HELD_BLOCK_ENTRIES`` entries.
* ``peak_mb``: the tracemalloc peak of one more, untimed upsweep in MB
  (10^6 bytes): its tables, bridges and temporaries.  The distance object
  is built before it, so a cached matrix is not counted.
* ``tree``: ``heights``, the number of heights with a node that is not a
  leaf; ``batch_steps``, the batched steps of that upsweep (each height's
  layer 0, and the layer 1 of its two-child nodes, cut at the cap), the
  calls of ``upsweep._batch``; and ``node_steps``, the nodes that run their
  nonempty masks on their own, the calls of ``upsweep._nonempty_masks`` (on
  this tree those with three or more children and two-child nodes over
  the cap).

``bound`` prints:

* ``sparse_one_tree_ms``: one ``hk_bound._sparse_one_tree`` call at uniform
  and clustered n=1000 and uniform n=4000, on the inputs a 100-step ascent
  passes: its candidate graph and the potentials of every tenth sparse
  step; the fastest pass over those calls, divided by their number.
* ``ascent_100_steps_ms``: the fastest 100-step ascent at uniform n=1000,
  split into the candidate build (``_candidate_edges``), the dense 1-trees
  (``_one_tree``) and the sparse steps (``_sparse_one_tree``); ``other`` is
  the rest of the ascent.
* ``candidate_build_ms``: one ``_candidate_edges`` call at uniform and
  clustered n=1000, 4000 and 10^4, around step 1's 1-tree (the fastest of
  at most 3 at n=10^4).  ``dense_rows`` is the share of rows that went
  through the dense row pass.
* ``mst_ms``: the fastest ``minimum_spanning_tree`` at uniform and
  clustered n=1000, 4000 and 10^4 (the fastest of at most 3 at n=10^4),
  split into the light pairs (``_light_pairs``), their Boruvka pass
  (``boruvka``), the component Prim (``_join_components``), the replay of
  the dense scan from node 1 and the pass that adds node 0 (both
  ``_tree_prim``); ``other`` is the rest, all of it in a checkout without
  these functions.
* ``step_one_ms``: the bound's step 1, ``hk_bound._one_tree`` at zero
  potentials, from the tree the MST hands over and from a dense scan of its
  own, at uniform and clustered n=1000 (distance matrix cached) and 4000
  (rows computed from coordinates).  ``derived_seeds`` counts, of uniform
  and of clustered seeds 1-5 at n=1000, those whose step 1 comes from the
  MST; the rest take the dense scan.

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
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

import doubletree.hk_bound as hk_bound
import doubletree.spanning_tree as spanning_tree
from doubletree import degree_increase, minimum_spanning_tree, root_tree
from doubletree.cli import GENERATORS

# the package exports the function under the module's name
upsweep_mod = importlib.import_module("doubletree.upsweep")

BOX = 1e6
SEED = 1
STEPS = 100
# (class, n, degree limit D, depth k); D=1 is the MST itself, k=None exact
UPSWEEP_CASES = tuple((klass, n, d, k) for klass in ("uniform", "clustered") for n, d, k in (
    (1000, 1, None), (1000, 5, 16), (1000, 5, None), (4000, 1, None), (4000, 1, 16)))
# the ascent is timed at the first sparse case, derived_seeds at the first size
SPARSE_CASES = (("uniform", 1000), ("clustered", 1000), ("uniform", 4000))
BUILD_CASES = tuple((klass, n) for klass in ("uniform", "clustered") for n in (1000, 4000, 10_000))
STEP_ONE_SIZES = (1000, 4000)


def _case(klass: str, n: int, d: int = 1):
    """An instance and its rooted MST, degree-increased to D=d when d >= 3."""
    inst = GENERATORS[klass](n, SEED, BOX)
    mst = root_tree(minimum_spanning_tree(inst)[0])
    return inst, degree_increase(mst, d) if d >= 3 else mst


def _fastest(call, repeats: int) -> float:
    """Milliseconds of the fastest of ``repeats`` calls."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


@contextmanager
def _patched(module, name: str, wrapper):
    """``module.name`` replaced by ``wrapper(original)`` inside the block."""
    original = getattr(module, name)
    setattr(module, name, wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def traced(inst, tree, k) -> tuple[float, int, list[int]]:
    """One upsweep's tracemalloc peak (MB), ``_batch`` calls and ``_nonempty_masks`` nodes."""
    batches, alone = [], []
    with _patched(upsweep_mod, "_batch", lambda f: lambda *a: batches.append(1) or f(*a)), \
            _patched(upsweep_mod, "_nonempty_masks", lambda f: lambda p, u, *a: alone.append(u) or f(p, u, *a)):
        tracemalloc.start()
        upsweep_mod.upsweep(inst, tree, k)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    return peak, len(batches), alone


def held_share(tree, k, alone: list[int]) -> float:
    """Share of the (node, block) pairs of the nodes ``alone`` held by the rule above."""
    kept, live = upsweep_mod._reach(tree, k)  # columns within k of a child's parent, and within k + 1
    cap, held, total = upsweep_mod.HELD_BLOCK_ENTRIES, 0, 0
    for cu in (tree.children[u] for u in alone):
        c, xs, leaves = len(cu), sum(kept[v] for v in cu), sum(not tree.children[v] for v in cu)
        # (children in the block, x candidates outside them, live y) of each block
        blocks = [(1, xs - kept[v], live[v]) for v in cu if tree.children[v]]
        blocks += [(leaves, xs, leaves)] if leaves else []
        total += len(blocks)
        # masks that read a block: nonempty, not full, missing one of its children
        held += sum((1 << c) - (1 << (c - m)) - 1 > 3 and x * y <= cap for m, x, y in blocks)
    return held / max(total, 1)


def upsweep_section(repeats: int) -> dict:
    out = {key: {} for key in ("upsweep_ms", "held_share", "peak_mb", "tree")}
    for klass, n, d, k in UPSWEEP_CASES:
        inst, tree = _case(klass, n, d)
        label = f"{klass}-n{n}-" + ("DT" if d == 1 and k is None else f"DT_{d}_{'inf' if k is None else k}")
        out["upsweep_ms"][label] = round(_fastest(lambda: upsweep_mod.upsweep(inst, tree, k), repeats), 1)
        peak, batch, alone = traced(inst, tree, k)
        out["held_share"][label] = round(held_share(tree, k, alone), 3)
        out["peak_mb"][label] = round(peak, 2)
        out["tree"][label] = {"heights": len(upsweep_mod._heights(tree)), "batch_steps": batch,
                              "node_steps": len(alone)}
    return out


def time_sparse_one_tree(klass: str, n: int, repeats: int) -> float:
    """Milliseconds per ``_sparse_one_tree`` call, fastest pass of ``repeats``."""
    calls = []
    with _patched(hk_bound, "_sparse_one_tree", lambda f: lambda *a: calls.append(a) or f(*a)):
        hk_bound.held_karp_ascent(*_case(klass, n), STEPS)
    calls = calls[::10]
    return round(_fastest(lambda: [hk_bound._sparse_one_tree(*a) for a in calls], repeats) / len(calls), 3)


def _split(module, parts: dict, call, repeats: int) -> dict[str, float]:
    """The fastest of ``repeats`` runs of ``call`` (ms), split into the time
    spent in the functions of ``module`` that ``parts`` names (those it has),
    under their labels: a string, or a function of the call's arguments."""
    def timed(f, label):
        def wrapped(*args):
            out = []
            spent[label(args) if callable(label) else label] += _fastest(lambda: out.append(f(*args)), 1)
            return out[0]
        return wrapped

    best = {"total": np.inf}
    for _ in range(repeats):
        spent = defaultdict(float)
        with ExitStack() as stack:
            for name, label in ((k, v) for k, v in parts.items() if hasattr(module, k)):
                stack.enter_context(_patched(module, name, lambda f, label=label: timed(f, label)))
            total = _fastest(call, 1)
        if total < best["total"]:
            best = {"total": total, **spent, "other": total - sum(spent.values())}
    return {key: round(ms, 2) for key, ms in best.items()}


def time_ascent(klass: str, n: int, repeats: int) -> dict[str, float]:
    """The fastest of ``repeats`` ``STEPS``-step ascents, split into its parts (ms)."""
    inst, tree = _case(klass, n)
    parts = {"_candidate_edges": "candidate_build", "_one_tree": "dense_one_trees",
             "_sparse_one_tree": "sparse_steps"}
    return _split(hk_bound, parts, lambda: hk_bound.held_karp_ascent(inst, tree, STEPS), repeats)


def time_mst(klass: str, n: int, repeats: int) -> dict[str, float]:
    """The fastest ``minimum_spanning_tree``, split into its parts (ms)."""
    inst = _case(klass, n)[0]
    parts = {"_light_pairs": "light_pairs", "boruvka": "boruvka", "_join_components": "component_prim",
             # the replay of the scan starts at node 1, the pass that adds node 0 at node 0
             "_tree_prim": lambda args: "replay" if args[3] == 1 else "node_zero"}
    return _split(spanning_tree, parts, lambda: minimum_spanning_tree(inst), min(repeats, 3) if n > 4000 else repeats)


def time_candidate_build(klass: str, n: int, repeats: int) -> dict[str, float]:
    """One candidate build around step 1's 1-tree, and its share of dense rows."""
    inst = GENERATORS[klass](n, SEED, BOX)
    _, _, spanning = hk_bound._one_tree(inst.distances, np.zeros(n))
    ms = _fastest(lambda: hk_bound._candidate_edges(inst, spanning), min(repeats, 3) if n > 4000 else repeats)
    return {"ms": round(ms, 2), "dense_rows": round(hk_bound._grid_picks(inst)[2].size / (n - 1), 3)}


def time_step_one(klass: str, n: int, repeats: int) -> dict[str, float]:
    """Step 1 from the MST's tree and from a dense scan of its own (ms)."""
    inst = GENERATORS[klass](n, SEED, BOX)
    dist, zeros, spanning = inst.distances, np.zeros(n), minimum_spanning_tree(inst)[2]
    return {"handed_over": round(_fastest(lambda: hk_bound._one_tree(dist, zeros, spanning), repeats), 2),
            "dense_scan": round(_fastest(lambda: hk_bound._one_tree(dist, zeros), repeats), 2)}


def bound_section(repeats: int) -> dict:
    return {
        "sparse_one_tree_ms": {f"{klass}-n{n}": time_sparse_one_tree(klass, n, repeats) for klass, n in SPARSE_CASES},
        "ascent_100_steps_ms": time_ascent(*SPARSE_CASES[0], repeats),
        "candidate_build_ms": {f"{klass}-n{n}": time_candidate_build(klass, n, repeats) for klass, n in BUILD_CASES},
        "mst_ms": {f"{klass}-n{n}": time_mst(klass, n, repeats) for klass, n in BUILD_CASES},
        "step_one_ms": {f"{c}-n{n}": time_step_one(c, n, repeats) for c in GENERATORS for n in STEP_ONE_SIZES},
        "derived_seeds": {klass: sum(minimum_spanning_tree(GENERATORS[klass](STEP_ONE_SIZES[0], s, BOX))[2]
                                     is not None for s in range(1, 6)) for klass in GENERATORS},
    }


SECTIONS = {"upsweep": upsweep_section, "bound": bound_section}


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sections", nargs="*", default=list(SECTIONS), help="upsweep, bound or both (the default)")
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    if set(args.sections) - set(SECTIONS):
        p.error(f"the sections are {' and '.join(SECTIONS)}")
    out = {key: v for name in dict.fromkeys(args.sections) for key, v in SECTIONS[name](args.repeats).items()}
    out.update(source=os.path.dirname(upsweep_mod.__file__), python=platform.python_version(),
               numpy=np.__version__, cpus=os.cpu_count())
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
