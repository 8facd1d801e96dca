"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to watch).

The heavy fixtures are module-scoped: a 500-instance small corpus solved
both by the dynamic program and by exhaustive enumeration, and the
benchmark sweep of ten 1000-node uniform instances across the heuristic
grid with a shared lower bound per instance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import pytest

from doubletree import (
    brute_force_optimal,
    degree_increase,
    depth_first_shortcut,
    downsweep,
    enumerate_conforming_min,
    generate_uniform,
    held_karp_lower_bound,
    is_conforming,
    minimum_spanning_tree,
    root_tree,
    upsweep,
)
from doubletree.cli import run_suite
from doubletree.downsweep import sweep
from doubletree.oracles import _small_cycles, conforming_mask

SMALL_CORPUS_SIZE = 500
BIG_N = 1000
BIG_SEEDS = range(1, 11)
BOX = 1e6

# benchmark targets: mean excess over the lower bound on 1000-node uniform
# instances, with tolerance for instance draw and for the ascent's slack
TARGET_EXCESS = {"DT": 7.36, "DT_1_16": 8.64, "DT_5_16": 5.67}
EXCESS_TOL = 1.5


def _passline(idx: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {idx} ({name}): PASS - {detail}")


@dataclass
class SmallCase:
    inst: object
    tree: object
    result: object
    tour: object
    oracle: object
    optimal: object
    dfs: object


@pytest.fixture(scope="module")
def small_corpus():
    cases = []
    start = time.perf_counter()
    for i in range(SMALL_CORPUS_SIZE):
        n = 4 + i % 6
        inst = generate_uniform(n, seed=10_000 + i, box=1.0)
        tree = root_tree(minimum_spanning_tree(inst)[0])
        result = upsweep(inst, tree)
        tour = downsweep(inst, tree, result)
        cases.append(
            SmallCase(
                inst=inst,
                tree=tree,
                result=result,
                tour=tour,
                oracle=enumerate_conforming_min(inst, tree),
                optimal=brute_force_optimal(inst),
                dfs=depth_first_shortcut(inst, tree),
            )
        )
    elapsed = time.perf_counter() - start
    return cases, elapsed


@pytest.fixture(scope="module")
def benchmark_runs():
    """Per-seed weights for every grid heuristic on 1000-node instances."""
    grid = [
        ("DT", 1, None),
        ("DT_1_16", 1, 16),
        ("DT_1_32", 1, 32),
        ("DT_3_16", 3, 16),
        ("DT_3_32", 3, 32),
        ("DT_4_16", 4, 16),
        ("DT_4_32", 4, 32),
        ("DT_5_16", 5, 16),
        ("DT_5_32", 5, 32),
    ]
    rows = []
    for seed in BIG_SEEDS:
        inst = generate_uniform(BIG_N, seed=seed, box=BOX)
        parent, mst_w, _ = minimum_spanning_tree(inst)
        tree = root_tree(parent)
        hk = held_karp_lower_bound(inst, tree)
        weights = {}
        trees = {1: tree}
        for label, d, k in grid:
            if d not in trees:
                trees[d] = degree_increase(tree, d)
            weights[label] = upsweep(inst, trees[d], k=k).weight
        rows.append(
            {
                "seed": seed,
                "inst": inst,
                "tree": tree,
                "mst_weight": mst_w,
                "hk": hk,
                "weights": weights,
            }
        )
    return rows, [label for label, _, _ in grid]


def _mean_excess(rows, label):
    return sum(100.0 * (r["weights"][label] / r["hk"] - 1.0) for r in rows) / len(rows)


def test_criterion_1_oracle_exactness(small_corpus):
    cases, elapsed = small_corpus
    assert len(cases) >= 500
    worst = 0.0
    for c in cases:
        worst = max(worst, abs(c.result.weight - c.oracle.weight))
        assert abs(c.result.weight - c.oracle.weight) <= 1e-9
        assert abs(c.tour.weight - c.oracle.weight) <= 1e-9
        assert is_conforming(c.tour, c.tree)
    assert elapsed < 60.0
    _passline(
        1,
        "oracle exactness",
        f"{len(cases)} instances, max deviation {worst:.2e}, corpus built in {elapsed:.1f}s",
    )


def test_criterion_2_approximation_guarantee(small_corpus):
    cases, _ = small_corpus
    violations = 0
    for c in cases:
        if c.tour.weight > 2.0 * c.optimal.weight + 1e-9:
            violations += 1
        if c.tour.weight > c.dfs.weight + 1e-9:
            violations += 1
    assert violations == 0
    _passline(
        2,
        "approximation guarantee",
        f"{len(cases)} instances, 0 violations of the factor-2 and traversal bounds",
    )


def test_criterion_3_benchmark_quality(benchmark_runs):
    rows, _ = benchmark_runs
    detail = []
    for label, target in TARGET_EXCESS.items():
        got = _mean_excess(rows, label)
        detail.append(f"{label}={got:.2f}% (target {target}+-{EXCESS_TOL})")
        assert abs(got - target) <= EXCESS_TOL, f"{label}: {got:.2f} vs {target}"
    _passline(3, "benchmark quality", ", ".join(detail))


def test_criterion_4_grid_ordering(benchmark_runs):
    rows, _ = benchmark_runs
    chain = ["DT_1_16", "DT_3_16", "DT_4_16", "DT_5_16"]
    means = {label: _mean_excess(rows, label) for label in chain}
    for a, b in zip(chain, chain[1:]):
        assert means[a] > means[b], f"expected {a} worse than {b}: {means}"
    for d in (1, 3, 4, 5):
        m16 = _mean_excess(rows, f"DT_{d}_16")
        m32 = _mean_excess(rows, f"DT_{d}_32")
        assert m32 <= m16 + 1e-12, f"depth 32 worse than 16 at degree {d}"
    _passline(
        4,
        "grid ordering",
        " > ".join(f"{label} {means[label]:.2f}%" for label in chain)
        + "; depth-32 never above depth-16",
    )


def test_criterion_5_scaling_and_counters():
    def best_time(n):
        inst = generate_uniform(n, seed=7, box=BOX)
        tree = root_tree(minimum_spanning_tree(inst)[0])
        best, res = math.inf, None
        for _ in range(3):
            t0 = time.perf_counter()
            res = upsweep(inst, tree)
            best = min(best, time.perf_counter() - t0)
        return best, res, tree

    t1000, res1000, tree1000 = best_time(1000)
    t2000, res2000, tree2000 = best_time(2000)
    # the gate is the work counter: wall times drift with the host's load
    q1000, q2000 = res1000.stats.quad_evals, res2000.stats.quad_evals
    ratio = q2000 / q1000
    assert 2.5 <= ratio <= 6.5, f"quad_evals scaling ratio {ratio:.2f} outside [2.5, 6.5]"
    for n, res, tree in ((1000, res1000, tree1000), (2000, res2000, tree2000)):
        d = tree.max_children
        assert res.stats.quad_evals <= (4**d) * n * n
        assert res.stats.max_live_entries <= (2**d) * n
    _passline(
        5,
        "scaling",
        f"quad_evals(2000)/quad_evals(1000) = {q2000}/{q1000} = {ratio:.2f}, "
        f"t(2000)/t(1000) = {t2000*1e3:.0f}ms/{t1000*1e3:.0f}ms = {t2000 / t1000:.2f}, "
        "counters within 4^d n^2 and 2^d n",
    )


def test_criterion_6_reconstruction_edge_budget(small_corpus, benchmark_runs):
    cases, _ = small_corpus
    checked = 0
    for c in cases:
        full = (1 << len(c.tree.children[c.tree.root])) - 1
        _order, edges = sweep(c.tree, c.result, c.tree.root, full, c.result.best_a)
        assert edges <= c.inst.n
        checked += 1
    rows, _ = benchmark_runs
    for r in rows[:3]:
        res = upsweep(r["inst"], r["tree"])
        root = r["tree"].root
        full = (1 << len(r["tree"].children[root])) - 1
        order, edges = sweep(r["tree"], res, root, full, res.best_a)
        assert len(order) == r["inst"].n
        assert edges <= r["inst"].n
        checked += 1
    _passline(6, "reconstruction edge budget", f"path edges <= n on {checked} instances")


def test_criterion_7_degree_increase_soundness():
    checked = 0
    for i in range(200):
        n = 4 + i % 5  # 4..8
        inst = generate_uniform(n, seed=20_000 + i, box=1.0)
        tree = root_tree(minimum_spanning_tree(inst)[0])
        wider = degree_increase(tree, 5)
        cycles = _small_cycles(n)
        before = conforming_mask(tree, cycles)
        after = conforming_mask(wider, cycles)
        assert not (before & ~after).any(), f"instance {i}: admissible set shrank"
        w0 = upsweep(inst, tree).weight
        w1 = upsweep(inst, wider).weight
        assert w1 <= w0 + 1e-9
        checked += 1
    _passline(
        7,
        "degree-increase soundness",
        f"{checked} instances: admissible sets only grow, weights never rise",
    )


def test_criterion_8_lower_bound_validity(small_corpus, benchmark_runs):
    cases, _ = small_corpus
    violations = 0
    for c in cases:
        hk = held_karp_lower_bound(c.inst, c.tree)
        if hk > c.optimal.weight + 1e-9:
            violations += 1
        if hk > c.tour.weight + 1e-9:
            violations += 1
    extra = 0
    for i in range(60):  # top up the corpus at the largest oracle-friendly size
        inst = generate_uniform(10, seed=30_000 + i, box=1.0)
        hk = held_karp_lower_bound(inst, root_tree(minimum_spanning_tree(inst)[0]))
        if hk > brute_force_optimal(inst).weight + 1e-9:
            violations += 1
        extra += 1
    rows, labels = benchmark_runs
    for r in rows:
        for label in labels:
            if r["hk"] > r["weights"][label] + 1e-9:
                violations += 1
    assert violations == 0
    _passline(
        8,
        "lower bound validity",
        f"{len(cases)}+{extra} small instances and {len(rows)} benchmark instances, 0 violations",
    )


def test_criterion_9_suite_determinism(tmp_path):
    kwargs = dict(sizes=[8, 12], seeds=2, grid=[(1, 4), (3, 4)], hk_iterations=100)
    first = run_suite(**kwargs)
    second = run_suite(**kwargs)
    assert first == second
    assert first.encode() == second.encode()
    _passline(9, "suite determinism", "identical config twice -> byte-identical CSV")
