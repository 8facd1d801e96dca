"""Quality gate: the sparse Held-Karp ascent against the dense reference.

``held_karp_lower_bound`` runs its ascent on a sparse candidate graph and
certifies the result with dense 1-trees; ``reference_prim`` keeps the dense
ascent it replaced.  This script runs both on 1000-node instances: the ten
uniform instances of acceptance criterion 3, ten clustered ones, and five
each of two tie-heavy kinds, rounded (EUC_2D) lattice points and
duplicated points.  It runs every instance at 50 and at 1000 steps and
prints one line per run with the certified bound's relative difference
from the dense one.

At each step count the gate passes when the mean difference is at least
``MEAN_FLOOR`` and no instance is below ``EACH_FLOOR`` (percent).  Run it
from the repository root; the dense reference takes about fifteen minutes
on two cores:

    PYTHONPATH=src:tests python tests/hk_gate.py

The exit code is 0 when both gates pass and 1 otherwise.  pytest does not
collect this file; ``test_hk_bound.TestQualityGate`` runs a small version
of it.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from doubletree import (
    Instance,
    Metric,
    generate_clustered,
    generate_uniform,
    held_karp_lower_bound,
    minimum_spanning_tree,
    root_tree,
)

import reference_prim

MEAN_FLOOR = -0.1
EACH_FLOOR = -0.5
BOX = 1e6  # criterion 3's box


def rounded_lattice(n: int, seed: int) -> Instance:
    """n integer points on a square grid with about 1.44 n cells, rounded
    distances: many equal edges and some coincident points."""
    side = int(np.ceil(1.2 * np.sqrt(n)))
    xy = np.random.default_rng(seed).integers(0, side, size=(n, 2)).astype(float)
    return Instance(f"lattice-n{n}-s{seed}", xy, Metric.EUC_2D)


def duplicates(n: int, seed: int) -> Instance:
    """n // 2 uniform points, each given twice."""
    base = generate_uniform(n // 2, seed, BOX).coords
    return Instance(f"duplicates-n{n}-s{seed}", np.concatenate([base, base[::-1]]),
                    Metric.EUC_2D_REAL)


GENERATORS = {
    "uniform": lambda n, seed: generate_uniform(n, seed, BOX),
    "clustered": lambda n, seed: generate_clustered(n, seed, BOX),
    "lattice": rounded_lattice,
    "duplicates": duplicates,
}
GATE = {"uniform": 10, "clustered": 10, "lattice": 5, "duplicates": 5}  # seeds 1..k
N = 1000
STEPS = (50, 1000)


def compare(klass: str, n: int, seed: int, steps: int) -> tuple[str, float, float, float]:
    """(instance name, dense bound, certified sparse bound, difference in %)."""
    inst = GENERATORS[klass](n, seed)
    tree = root_tree(minimum_spanning_tree(inst)[0])
    dense = reference_prim.held_karp_lower_bound(inst, tree, steps)
    sparse = held_karp_lower_bound(inst, tree, steps)
    return inst.name, dense, sparse, 100.0 * (sparse / dense - 1.0)


def passes(diffs: list[float]) -> bool:
    return statistics.fmean(diffs) >= MEAN_FLOOR and min(diffs) >= EACH_FLOOR


def main() -> int:
    ok = True
    for steps in STEPS:
        diffs = {klass: [] for klass in GATE}
        for klass, seeds in GATE.items():
            for seed in range(1, seeds + 1):
                start = time.perf_counter()
                name, dense, sparse, diff = compare(klass, N, seed, steps)
                diffs[klass].append(diff)
                print(f"{steps:5d} steps  {name:28s} dense {dense:.6f} sparse {sparse:.6f}"
                      f" {diff:+.3f} %  ({time.perf_counter() - start:.1f} s)", flush=True)
        every = [d for ds in diffs.values() for d in ds]
        for label, ds in [*diffs.items(), ("all", every)]:
            print(f"{steps:5d} steps  {label:10s} mean {statistics.fmean(ds):+.3f} %"
                  f"  min {min(ds):+.3f} %")
        passed = passes(every)
        ok = ok and passed
        print(f"{steps:5d} steps  gate (mean >= {MEAN_FLOOR} %, each >= {EACH_FLOOR} %):"
              f" {'PASS' if passed else 'FAIL'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
