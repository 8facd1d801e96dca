#!/usr/bin/env python3
"""Benchmark of ``dt run``: wall time, tour quality, memory and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deg5-n1000 --seed 1 --seconds 35 --trace 0

One process is one closed-loop client.  It writes the workload's instances as
TSPLIB files from ``--seed`` and then calls
``doubletree.cli.main(["run", "--input", FILE, ..., "--csv", "--tour-out", FILE])``
in process, one call after the other, for every (instance, cell) of the
workload; a pass is one such call per pair.  Another pass runs while it
should still end within ``--seconds`` of the first timed call; at least one
always runs.

On a host whose cores other tenants share, the CPU's speed can drift by a
fifth and more over tens of seconds, so a raw wall time of one run cannot be
compared with another run's.  A fixed reference block (``reference_block``) is timed
between every two calls, and each call's time is divided by the mean of the
two reference times around it.  ``run_ref`` sums, over the calls of a pass,
each call's median over the passes of that ratio: the workload's wall time in
units of the reference block, which a faster program lowers and a slower host
does not raise.  The raw seconds of each pass are printed on the line before
the result.  ``setup_s`` is the median time for a fresh interpreter to import
``doubletree.cli``, the cost every ``dt`` invocation pays first; it is sampled
before the first call and after every call, so that its median too spans the
whole run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a traced
pass, an untraced pass and a second traced pass.  The traced passes wrap every
public layer function wherever the package binds it, so each call from the
CLI glue into a layer, and from one layer into another, gets a span; the
per-layer numbers are self times and work counters summed over the cells.

Every call's outputs are checked (see ``check_cell`` and ``check_pass``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes the
environment and the cells.  The exit code is 1 if any check failed and 2 if
the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / "perfbench" / "work"

# one single-threaded client: numpy must not spread its work over other cores
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BOX = 1e6
# set-up samples taken before the first call; one more follows every call
SETUP_SAMPLES = 5
# instance i > 0 of a class uses seed + i * SEED_STRIDE, so seeds never collide
SEED_STRIDE = 1_000_000
REL_TOL = 1e-9
# the CSV prints weights with 6 decimals
ABS_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    classes: tuple[str, ...]
    n: int
    cells: tuple[str, ...]
    hk_iterations: int
    per_class: int


# BENCHMARK.json gives the reason for each workload.  Several instances per
# class keep the seed-to-seed spread of tree shape, memory peak and excess small.
# The bound workload runs 100 ascent steps, not the CLI's default 1000: a call
# then takes 2-3 s, not 20 s, so a run holds a dozen calls or more, and on
# the n=1000 instances tried the bound was within 0.3-0.7 % of the 1000-step one.
WORKLOADS: dict[str, Workload] = {
    "deg5-n1000": Workload(
        classes=("uniform", "clustered"),
        n=1000,
        cells=("dt", "5x16", "5xinf"),
        hk_iterations=1,
        per_class=3,
    ),
    "deg1-n4000": Workload(
        classes=("uniform", "clustered"),
        n=4000,
        cells=("dt", "1x16"),
        hk_iterations=1,
        per_class=4,
    ),
    "bound-n1000": Workload(
        classes=("uniform",),
        n=1000,
        cells=("dt",),
        hk_iterations=100,
        per_class=4,
    ),
}

# (module, function) pairs whose calls get spans in a traced pass
LAYER_FUNCTIONS = (
    ("instances", "parse_tsplib"),
    ("spanning_tree", "minimum_spanning_tree"),
    ("spanning_tree", "root_tree"),
    ("spanning_tree", "degree_increase"),
    ("upsweep", "upsweep"),
    ("downsweep", "downsweep"),
    ("oracles", "is_conforming"),
    ("oracles", "depth_first_shortcut"),
    ("hk_bound", "held_karp_lower_bound"),
)
DISTANCES_SPAN = "instances.PairwiseDistances"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in LAYER_FUNCTIONS) + (DISTANCES_SPAN,)
# deterministic per-cell counters; they must repeat exactly between traced passes
COUNTERS = (
    "upsweep.quad_evals",
    "upsweep.extension_evals",
    "upsweep.max_live_entries",
    "upsweep.bip_entries",
    "spanning_tree.reattached_nodes",
    "spanning_tree.max_children",
    "spanning_tree.height",
)


# ---------------------------------------------------------------------------
# cells and instances


def parse_cell(cell: str) -> tuple[int, Optional[int]]:
    """``dt`` is (1, None); ``DxK`` is (D, K) with K an int or ``inf``."""
    if cell == "dt":
        return 1, None
    d, _, k = cell.partition("x")
    return int(d), None if k == "inf" else int(k)


def cell_argv(cell: str) -> list[str]:
    d, k = parse_cell(cell)
    if (d, k) == (1, None):
        return ["--heuristic", "dt"]
    depth = "inf" if k is None else str(k)
    return ["--heuristic", "dtk", "--degree-limit", str(d), "--depth", depth]


@dataclass(frozen=True)
class BenchInstance:
    name: str
    path: Path
    coords: Any  # (n, 2) float array the tour weights are recomputed from


def write_instances(wl: Workload, seed: int, workdir: Path) -> list[BenchInstance]:
    from doubletree.instances import generate_clustered, generate_uniform, write_tsplib

    generators = {"uniform": generate_uniform, "clustered": generate_clustered}
    out = []
    for klass in wl.classes:
        for i in range(wl.per_class):
            inst = generators[klass](wl.n, seed + i * SEED_STRIDE, BOX)
            path = workdir / f"{inst.name}.tsp"
            path.write_text(write_tsplib(inst), encoding="utf-8")
            out.append(BenchInstance(inst.name, path, inst.coords))
    return out


# ---------------------------------------------------------------------------
# output checks


def read_tour(path: Path) -> list[int]:
    """0-based node order from a TSPLIB TOUR_SECTION file."""
    lines = path.read_text(encoding="utf-8").split()
    start = lines.index("TOUR_SECTION") + 1
    order = []
    for tok in lines[start:]:
        if tok == "-1":
            return order
        order.append(int(tok) - 1)
    raise ValueError("tour section has no -1 terminator")


def cycle_weight(coords: Any, order: list[int]) -> float:
    import numpy as np

    xy = coords[np.asarray(order)]
    d = xy - np.roll(xy, -1, axis=0)
    return float(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).sum())


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def check_cell(inst: BenchInstance, rc: int, stdout: str, tour_path: Path) -> tuple[dict, list[str]]:
    """Parse and check one ``dt run`` call; returns (record, problems)."""
    if rc != 0:
        return {}, [f"exit code {rc}"]
    lines = stdout.strip().splitlines()
    if len(lines) != 2:
        return {}, [f"expected a CSV header and one row, got {len(lines)} lines"]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    try:
        rec = {key: float(row[key]) for key in ("mst_weight", "tour_weight", "hk_bound", "excess_pct")}
        order = read_tour(tour_path)
    except (KeyError, ValueError, OSError) as exc:
        return {}, [f"unreadable output: {exc!r}"]
    n = len(inst.coords)
    if sorted(order) != list(range(n)):
        return rec, [f"tour is not a permutation of 0..{n - 1}"]
    problems = []
    weight = cycle_weight(inst.coords, order)
    rec["order"] = order
    if not close(weight, rec["tour_weight"]):
        problems.append(f"tour file weighs {weight!r}, CSV says {rec['tour_weight']!r}")
    if weight > 2.0 * rec["mst_weight"] * (1.0 + REL_TOL):
        problems.append(f"tour weight {weight!r} exceeds twice the MST {rec['mst_weight']!r}")
    if weight < rec["hk_bound"] * (1.0 - REL_TOL):
        problems.append(f"tour weight {weight!r} is below the bound {rec['hk_bound']!r}")
    return rec, problems


def check_pass(records: dict[tuple[str, str], dict]) -> dict[tuple[str, str], list[str]]:
    """Exact search never loses to a cell it dominates on the same instance.

    An exact cell (D, inf) must weigh at most every cell with the same D or
    with D = 1: the degree pass only adds admissible tours and a depth limit
    only removes them.
    """
    problems: dict[tuple[str, str], list[str]] = {}
    weights = {key: rec["tour_weight"] for key, rec in records.items() if "tour_weight" in rec}
    for (name, cell), mine in weights.items():
        d, k = parse_cell(cell)
        if k is not None:
            continue
        for (other_name, other), theirs in weights.items():
            if (other_name == name and other != cell and parse_cell(other)[0] in (1, d)
                    and mine > theirs * (1.0 + REL_TOL)):
                problems.setdefault((name, cell), []).append(
                    f"{cell} weighs {mine!r}, more than {other} at {theirs!r}"
                )
    return problems


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory as [name, start, end, parent index or -1]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, probe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return traced

    def self_times(self, first: int = 0) -> dict[str, tuple[float, int]]:
        """name -> (summed self time, call count) over spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        agg: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _) in enumerate(spans):
            total, calls = agg.get(name, (0.0, 0))
            agg[name] = (total + (end - start) - child[i], calls + 1)
        return agg


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def make_probes(cell: dict) -> dict[str, Callable]:
    """Probes that copy counters and the emitted tour into ``cell``."""

    def upsweep(args, kwargs, result):
        tree = _arg(args, kwargs, 1, "tree")
        s = result.stats
        cell["upsweep.quad_evals"] = s.quad_evals
        cell["upsweep.extension_evals"] = s.extension_evals
        cell["upsweep.max_live_entries"] = s.max_live_entries
        cell["upsweep.bip_entries"] = s.bip_entries
        cell["spanning_tree.max_children"] = tree.max_children
        cell["spanning_tree.height"] = max(tree.depth)

    def degree_increase(args, kwargs, result):
        before = _arg(args, kwargs, 0, "tree")
        cell["spanning_tree.reattached_nodes"] = sum(
            a != b for a, b in zip(before.parent, result.parent)
        )

    def downsweep(args, kwargs, result):
        cell["tree"] = _arg(args, kwargs, 1, "tree")
        cell["tour"] = result

    return {"upsweep.upsweep": upsweep, "spanning_tree.degree_increase": degree_increase,
            "downsweep.downsweep": downsweep}


@contextlib.contextmanager
def instrumented(tracer: Tracer, probes: dict[str, Callable]) -> Iterator[None]:
    """Wrap each layer function in every package module that binds it."""
    import doubletree.instances

    modules = [m for name, m in list(sys.modules.items())
               if name == "doubletree" or name.startswith("doubletree.")]
    patched = []
    try:
        for mod, fn in LAYER_FUNCTIONS:
            name = f"{mod}.{fn}"
            orig = getattr(sys.modules[f"doubletree.{mod}"], fn)
            wrapped = tracer.wrap(name, orig, probes.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        patched.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        cls = doubletree.instances.PairwiseDistances
        patched.append((cls, "__init__", cls.__init__))
        cls.__init__ = tracer.wrap(DISTANCES_SPAN, cls.__init__)
        yield
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# passes


def call_dt(argv: list[str]) -> tuple[int, str, float]:
    """One in-process ``dt`` call: (exit code, stdout, seconds)."""
    from doubletree import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an uncaught error is a failed cell, not a crashed benchmark
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - t0
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return rc, out.getvalue(), seconds


def reference_block() -> float:
    """Fixed work shaped like the layers' inner loops, to time the host's speed.

    Three parts of about 30 ms each on an idle 2.1 GHz Xeon core: dense Prim
    steps over 1000 keys (the MST and the ascent), dict updates keyed by tuples
    (the upsweep's tables) and distance rows over 4000 points (the rows
    recomputed above the distance cache).
    """
    import numpy as np

    rows = np.random.default_rng(0).random((64, 1000))
    key = np.full(1000, np.inf)
    acc = 0.0
    for i in range(10_000):
        key = np.minimum(key, rows[i & 63])
        j = int(key.argmin())
        acc += float(key[j])
        key[j] = np.inf
    table: dict[tuple[int, int], int] = {}
    for i in range(60_000):
        k = (i & 1023, (i >> 10) & 7)
        v = table.get(k, 0) + i
        table[k] = v if v < 1_000_000 else 0
    pts = np.random.default_rng(1).random((4000, 2))
    for i in range(600):
        d = pts - pts[i]
        acc += float(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).min())
    return acc + len(table)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_block()
    return time.perf_counter() - t0


class Run:
    """Cells attempted and failed, with the reason for each failure."""

    def __init__(self, wl: Workload, instances: list[BenchInstance], workdir: Path):
        self.wl = wl
        self.instances = instances
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_cells: set[tuple[int, str, str]] = set()
        self.passes: list[dict] = []
        self.ref_s = 0.0  # the latest reference time; 0 before the first
        self.setup_samples: Optional[list[float]] = None  # None: not measured

    def fail(self, pass_no: int, name: str, cell: str, problems: list[str]) -> None:
        for p in problems:
            msg = f"pass {pass_no} {name} {cell}: {p}"
            self.failures.append(msg)
            print(f"perfbench: FAILED {msg}", file=sys.stderr)
        self.failed_cells.add((pass_no, name, cell))

    def run_pass(self, tracer: Optional[Tracer] = None) -> dict:
        """One call per (instance, cell); returns the pass's records and time."""
        pass_no = len(self.passes)
        first_span = len(tracer.spans) if tracer else 0
        records: dict[tuple[str, str], dict] = {}
        total = 0.0
        for inst in self.instances:
            for cell in self.wl.cells:
                tour_path = self.workdir / f"{inst.name}.{cell}.tour"
                argv = ["run", "--input", str(inst.path), *cell_argv(cell),
                        "--hk-iterations", str(self.wl.hk_iterations),
                        "--csv", "--tour-out", str(tour_path)]
                captured: dict = {}
                if not self.ref_s:
                    reference_block()  # warm-up, untimed
                    self.ref_s = time_reference()
                ref_before = self.ref_s
                if tracer is None:
                    rc, stdout, seconds = call_dt(argv)
                else:
                    with instrumented(tracer, make_probes(captured)), tracer.span("cell"):
                        rc, stdout, seconds = call_dt(argv)
                self.ref_s = time_reference()
                if self.setup_samples is not None:
                    self.setup_samples.append(time_setup())
                self.attempted += 1
                total += seconds
                rec, problems = check_cell(inst, rc, stdout, tour_path)
                if tracer is not None and not problems:
                    problems = self._check_traced(rec, captured)
                rec["seconds"] = seconds
                rec["ref_s"] = 0.5 * (ref_before + self.ref_s)
                rec["counters"] = {k: captured.get(k, 0) for k in COUNTERS}
                records[(inst.name, cell)] = rec
                if problems:
                    self.fail(pass_no, inst.name, cell, problems)
        for (name, cell), problems in check_pass(records).items():
            self.fail(pass_no, name, cell, problems)
        self._check_repeat(pass_no, records)
        result = {"seconds": total, "records": records,
                  "ref_units": sum(r["seconds"] / r["ref_s"] for r in records.values())}
        if tracer is not None:
            result["self_times"] = tracer.self_times(first_span)
        self.passes.append(result)
        return result

    def _check_traced(self, rec: dict, captured: dict) -> list[str]:
        from doubletree.oracles import is_conforming

        if "tour" not in captured:
            return ["no downsweep call was traced"]
        tour, tree = captured["tour"], captured["tree"]
        problems = []
        if not is_conforming(tour, tree):
            problems.append("traced tour is not admissible for its tree")
        if list(tour.order) != rec["order"] or not close(tour.weight, rec["tour_weight"]):
            problems.append("traced tour differs from the tour file")
        return problems

    def _check_repeat(self, pass_no: int, records: dict) -> None:
        """Outputs are a pure function of the input: every pass repeats the first."""
        if pass_no == 0:
            return
        first = self.passes[0]["records"]
        for key, rec in records.items():
            ref = first.get(key, {})
            fields = ("mst_weight", "tour_weight", "hk_bound", "excess_pct")
            if any(rec.get(f) != ref.get(f) for f in fields):
                self.fail(pass_no, key[0], key[1], ["CSV values differ from pass 0"])

    @property
    def failed(self) -> int:
        return len(self.failed_cells)


# ---------------------------------------------------------------------------
# metrics


def time_setup() -> float:
    """Seconds for a fresh interpreter to finish ``import doubletree.cli``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import doubletree.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end_metrics(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    recs = [r for r in run.passes[0]["records"].values() if "tour_weight" in r]
    return {
        "run_ref": (sum(statistics.median(p["records"][key]["seconds"] / p["records"][key]["ref_s"]
                                          for p in run.passes)
                        for key in run.passes[0]["records"]), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "tour_mst_ratio": (statistics.fmean(r["tour_weight"] / r["mst_weight"] for r in recs)
                           if recs else float("nan"), "ratio"),
        "excess_pct": (statistics.fmean(r["excess_pct"] for r in recs)
                       if recs else float("nan"), "%"),
        "ok_frac": (1.0 - run.failed / run.attempted, "ratio"),
    }


def per_layer_metrics(run: Run, traced: list[dict], untraced: dict) -> dict[str, tuple[float, str]]:
    def mean_self(name: str) -> tuple[float, int]:
        vals = [p["self_times"].get(name, (0.0, 0)) for p in traced]
        return statistics.fmean(v[0] for v in vals), vals[0][1]

    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        secs, calls = mean_self(name)
        out[f"{name}_s"] = (secs, "s")
        out[f"{name}.calls"] = (calls, "count")
    for key in COUNTERS:
        out[key] = (sum(r["counters"][key] for r in traced[0]["records"].values()), "count")
    traced_s = statistics.fmean(p["seconds"] for p in traced)
    out["trace.unattributed_s"] = (mean_self("cell")[0], "s")
    out["trace.traced_s"] = (traced_s, "s")
    # in reference units, like run_ref, so that the host's drift between passes cancels
    traced_ref = statistics.fmean(p["ref_units"] for p in traced)
    out["trace.overhead_pct"] = (100.0 * (traced_ref / untraced["ref_units"] - 1.0), "%")
    return out


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# entry point


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, details)."""
    import doubletree.cli  # noqa: F401  (the import is set-up, not measured)

    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(wl, write_instances(wl, seed, workdir), workdir)
    tracer = Tracer() if trace else None
    if trace:
        traced = [run.run_pass(tracer)]
        untraced = run.run_pass()
        traced.append(run.run_pass(tracer))
        for key, rec in traced[1]["records"].items():
            if rec["counters"] != traced[0]["records"][key]["counters"]:
                run.fail(2, key[0], key[1], ["counters differ between traced passes"])
        calls = [{n: c for n, (_, c) in p["self_times"].items()} for p in traced]
        if calls[0] != calls[1]:
            run.fail(2, "*", "*", ["span call counts differ between traced passes"])
        metrics = per_layer_metrics(run, traced, untraced)
    else:
        time_setup()  # writes the bytecode cache
        run.setup_samples = [time_setup() for _ in range(SETUP_SAMPLES)]
        # another pass runs only if it should end within the time budget
        t0 = time.perf_counter()
        while not run.passes or (time.perf_counter() - t0) * (len(run.passes) + 1) / len(
                run.passes) <= seconds:
            run.run_pass()
        metrics = end_to_end_metrics(run, statistics.median(run.setup_samples))

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": environment(),
        "spec": {"classes": wl.classes, "n": wl.n, "per_class": wl.per_class,
                 "cells": wl.cells, "hk_iterations": wl.hk_iterations},
        "passes": [round(p["seconds"], 6) for p in run.passes],
        "ref_s": statistics.median(r["ref_s"] for p in run.passes for r in p["records"].values()),
        "cells": [
            {"instance": inst, "cell": cell,
             **{k: v for k, v in rec.items() if k not in ("order", "counters")},
             **({"counters": rec["counters"]} if trace else {})}
            for (inst, cell), rec in run.passes[0]["records"].items()
        ],
        "failures": run.failures,
    }
    if trace:
        traced_s = metrics["trace.traced_s"][0]
        details["shares"] = {n: round(metrics[f"{n}_s"][0] / traced_s, 4) for n in SPAN_NAMES}
        details["shares"]["unattributed"] = round(metrics["trace.unattributed_s"][0] / traced_s, 4)
        (workdir / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    return result, details


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "doubletree" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, details = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), workdir)
    (workdir / "result.json").write_text(json.dumps({**details, **result}, indent=1),
                                          encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
