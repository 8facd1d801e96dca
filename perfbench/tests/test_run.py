"""Tests of the benchmark itself: tiny-n smoke runs and the output checks.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules["perfbench_run"] = bench
_spec.loader.exec_module(bench)
if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))


def tiny(wl: bench.Workload) -> bench.Workload:
    """The same workload shape at a size that runs in well under a second."""
    return dataclasses.replace(wl, n=30, hk_iterations=min(wl.hk_iterations, 20))


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_each_workload_shape(name, trace, tmp_path):
    wl = tiny(bench.WORKLOADS[name])
    result, details = bench.run_workload(name, wl, 7, 0.0, trace, tmp_path)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0
    cells = len(wl.classes) * wl.per_class * len(wl.cells)
    assert result["attempted"] == cells * (3 if trace else 1)
    expected = (
        {f"{s}_s" for s in bench.SPAN_NAMES}
        | {f"{s}.calls" for s in bench.SPAN_NAMES}
        | set(bench.COUNTERS)
        | {"trace.unattributed_s", "trace.traced_s", "trace.overhead_pct"}
        if trace
        else {"run_ref", "setup_s", "peak_rss_mb", "tour_mst_ratio", "excess_pct", "ok_frac"}
    )
    assert set(result["metrics"]) == expected
    if trace:
        m = result["metrics"]
        # the CLI builds the MST once for the tour and once inside the bound
        assert m["spanning_tree.minimum_spanning_tree.calls"]["value"] == 2 * cells
        assert m["upsweep.quad_evals"]["value"] > 0
        assert (tmp_path / "spans.json").is_file()


def test_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    wl = tiny(bench.WORKLOADS["bound-n1000"])
    result, _ = bench.run_workload("bound-n1000", wl, 1, 0.0, True, tmp_path)
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])


def test_same_seed_same_inputs(tmp_path):
    wl = tiny(bench.WORKLOADS["deg5-n1000"])
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = bench.write_instances(wl, 3, tmp_path / "a")
    b = bench.write_instances(wl, 3, tmp_path / "b")
    assert [x.path.read_bytes() for x in a] == [y.path.read_bytes() for y in b]


def _corrupting(mode):
    real = bench.call_dt

    def call(argv):
        rc, out, secs = real(argv)
        path = Path(argv[argv.index("--tour-out") + 1])
        lines = path.read_text().splitlines()
        start = lines.index("TOUR_SECTION") + 1
        if mode == "swap":  # still a permutation, but the weight no longer matches
            lines[start], lines[start + 2] = lines[start + 2], lines[start]
        else:  # a repeated node: not a permutation
            lines[start + 1] = lines[start]
        path.write_text("\n".join(lines) + "\n")
        return rc, out, secs

    return call


@pytest.mark.parametrize("mode", ["swap", "duplicate"])
def test_bad_tour_counts_as_failed(mode, monkeypatch, tmp_path, capsys):
    wl = tiny(bench.WORKLOADS["deg1-n4000"])
    monkeypatch.setattr(bench, "call_dt", _corrupting(mode))
    result, details = bench.run_workload("deg1-n4000", wl, 2, 0.0, False, tmp_path)
    cells = len(wl.classes) * wl.per_class * len(wl.cells)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == cells
    assert details["failures"]

    monkeypatch.setattr(bench, "WORKLOADS", {"deg1-n4000": wl})
    monkeypatch.setattr(bench, "WORK_DIR", tmp_path)
    capsys.readouterr()
    assert bench.main(["--workload", "deg1-n4000", "--seed", "2", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["failed"] == cells and last["metrics"]["ok_frac"]["value"] == 0.0


def test_exact_search_must_not_lose():
    recs = {("a", "dt"): {"tour_weight": 10.0}, ("a", "5x16"): {"tour_weight": 9.0},
            ("a", "5xinf"): {"tour_weight": 9.5}, ("b", "5xinf"): {"tour_weight": 1.0}}
    assert set(bench.check_pass(recs)) == {("a", "5xinf")}
    recs[("a", "5xinf")]["tour_weight"] = 8.0
    assert bench.check_pass(recs) == {}
    recs[("a", "1x16")] = {"tour_weight": 9.9}  # dt must not lose to 1x16 either
    assert set(bench.check_pass(recs)) == {("a", "dt")}
