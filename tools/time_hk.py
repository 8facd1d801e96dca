"""Time the Held-Karp ascent's parts and print them as JSON.

Usage (from the repository root; any checkout's ``src`` can be put first on
the path, so two versions can be timed in turn on the same machine):

    PYTHONPATH=src python tools/time_hk.py [--repeats 7]

It prints:

* ``sparse_one_tree_ms``: the time of one ``hk_bound._sparse_one_tree``
  call at uniform and clustered n=1000 and uniform n=4000.  The inputs are
  the ones a 100-step ascent passes: its candidate graph and the potentials
  of every tenth sparse step.  Each figure is the fastest of ``--repeats``
  passes over those calls, divided by their number.
* ``ascent_100_steps_ms``: a 100-step ascent at uniform n=1000, split into
  the candidate build (``_candidate_edges``), the dense 1-trees
  (``_one_tree``) and the sparse steps (``_sparse_one_tree``); ``other`` is
  the rest of the ascent.  The fastest of ``--repeats`` ascents is shown.
* ``candidate_build_ms``: one ``_candidate_edges`` call at uniform and
  clustered n=1000, 4000 and 10^4, around step 1's 1-tree, the fastest of
  ``--repeats`` (of at most 3 at n=10^4).  ``dense_rows`` is the share of
  rows that went through the dense row pass.
* ``prim_scan_ms``: one ``spanning_tree.prim_scan`` without potentials (the
  MST's scan) and one at zero potentials (the 1-tree's), at uniform n=1000
  (distance matrix cached) and n=4000 (rows computed from coordinates), the
  fastest of ``--repeats``.  Both scans span nodes 1..n-1.
* ``step_one_ms``: what the MST and the ascent's step 1 cost beyond that one
  scan: the pass that adds node 0 (``minimum_spanning_tree`` given its
  scan's result), at uniform and clustered n=1000 and 4000, the fastest of
  ``--repeats``.  ``derived_seeds`` counts, of uniform and of clustered
  seeds 1-5 at n=1000, those whose step 1 comes from the MST's scan; the
  rest take a dense scan of their own.

Wall times vary with the machine and its load; compare only figures from
one run of two checkouts, interleaved.  This script is a measurement, not a
test: nothing gates on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

import doubletree.hk_bound as hk_bound
from doubletree import generate_clustered, generate_uniform, minimum_spanning_tree, root_tree
import doubletree.spanning_tree as spanning_tree
from doubletree.spanning_tree import prim_scan

BOX = 1e6
SEED = 1
STEPS = 100
CASES = (("uniform", 1000), ("clustered", 1000), ("uniform", 4000))
BUILD_CASES = tuple((klass, n) for klass in ("uniform", "clustered") for n in (1000, 4000, 10_000))
PRIM_SIZES = (1000, 4000)
GENERATORS = {"uniform": generate_uniform, "clustered": generate_clustered}


def _instance(klass: str, n: int):
    inst = GENERATORS[klass](n, SEED, BOX)
    return inst, root_tree(minimum_spanning_tree(inst)[0])


def _recorded_sparse_calls(inst, tree) -> list[tuple]:
    """The arguments of every sparse step of a ``STEPS``-step ascent."""
    calls = []
    original = hk_bound._sparse_one_tree

    def record(*args):
        calls.append(args)
        return original(*args)

    hk_bound._sparse_one_tree = record
    try:
        hk_bound.held_karp_ascent(inst, tree, STEPS)
    finally:
        hk_bound._sparse_one_tree = original
    return calls


def _fastest(call, repeats: int) -> float:
    """Milliseconds of the fastest of ``repeats`` calls."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def time_sparse_one_tree(klass: str, n: int, repeats: int) -> float:
    """Milliseconds per ``_sparse_one_tree`` call, fastest pass of ``repeats``."""
    calls = _recorded_sparse_calls(*_instance(klass, n))[::10]

    def every_call():
        for args in calls:
            hk_bound._sparse_one_tree(*args)

    return _fastest(every_call, repeats) / len(calls)


def time_ascent(repeats: int) -> dict[str, float]:
    """A ``STEPS``-step ascent at uniform n=1000, split into its parts (ms)."""
    inst, tree = _instance("uniform", 1000)
    parts = {"_candidate_edges": "candidate_build", "_one_tree": "dense_one_trees",
             "_sparse_one_tree": "sparse_steps"}
    originals = {name: getattr(hk_bound, name) for name in parts}
    spent = dict.fromkeys(parts, 0.0)

    def timed(name):
        def call(*args):
            start = time.perf_counter()
            try:
                return originals[name](*args)
            finally:
                spent[name] += time.perf_counter() - start
        return call

    best = None
    for name in parts:
        setattr(hk_bound, name, timed(name))
    try:
        for _ in range(repeats):
            spent.update(dict.fromkeys(parts, 0.0))
            start = time.perf_counter()
            hk_bound.held_karp_ascent(inst, tree, STEPS)
            total = time.perf_counter() - start
            if best is None or total < best["total"]:
                best = {"total": total, **spent}
    finally:
        for name, fn in originals.items():
            setattr(hk_bound, name, fn)
    return {
        "total": round(1e3 * best["total"], 2),
        **{label: round(1e3 * best[name], 2) for name, label in parts.items()},
        "other": round(1e3 * (best["total"] - sum(best[name] for name in parts)), 2),
    }


def time_candidate_build(klass: str, n: int, repeats: int) -> dict[str, float]:
    """One candidate build around step 1's 1-tree, and its share of dense rows."""
    inst = GENERATORS[klass](n, SEED, BOX)
    _, _, spanning = hk_bound._one_tree(inst.distances, np.zeros(n))
    ms = _fastest(lambda: hk_bound._candidate_edges(inst, spanning),
                  min(repeats, 3) if n > 4000 else repeats)
    dense = hk_bound._grid_picks(inst)[2].size / (n - 1)
    return {"ms": round(ms, 2), "dense_rows": round(dense, 3)}


def time_prim_scan(n: int, repeats: int) -> dict[str, float]:
    """The MST scan and the zero-potential 1-tree scan at uniform n."""
    dist = GENERATORS["uniform"](n, SEED, BOX).distances
    return {"mst": round(_fastest(lambda: prim_scan(dist), repeats), 2),
            "one_tree": round(_fastest(lambda: prim_scan(dist, np.zeros(n)), repeats), 2)}


def time_step_one(klass: str, n: int, repeats: int) -> float:
    """The MST and step 1 beyond the MST's scan (ms): the pass that adds node 0."""
    inst = GENERATORS[klass](n, SEED, BOX)
    scan = prim_scan(inst.distances)
    spanning_tree.prim_scan = lambda dist: scan
    try:
        return round(_fastest(lambda: minimum_spanning_tree(inst), repeats), 2)
    finally:
        spanning_tree.prim_scan = prim_scan


def derived_seeds(klass: str, n: int = 1000) -> int:
    """How many of seeds 1-5 take step 1 from the MST's scan."""
    taken = 0
    for seed in range(1, 6):
        inst = GENERATORS[klass](n, seed, BOX)
        taken += minimum_spanning_tree(inst)[2] is not None
    return taken


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=7)
    args = p.parse_args()
    out = {
        "sparse_one_tree_ms": {
            f"{klass}-n{n}": round(time_sparse_one_tree(klass, n, args.repeats), 3)
            for klass, n in CASES
        },
        "ascent_100_steps_ms": time_ascent(args.repeats),
        "candidate_build_ms": {f"{klass}-n{n}": time_candidate_build(klass, n, args.repeats)
                               for klass, n in BUILD_CASES},
        "prim_scan_ms": {f"uniform-n{n}": time_prim_scan(n, args.repeats) for n in PRIM_SIZES},
        "step_one_ms": {f"{klass}-n{n}": time_step_one(klass, n, args.repeats)
                        for klass in GENERATORS for n in PRIM_SIZES},
        "derived_seeds": {klass: derived_seeds(klass) for klass in GENERATORS},
        "source": os.path.dirname(hk_bound.__file__),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
