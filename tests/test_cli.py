import csv
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import doubletree.cli as cli_mod
from doubletree.instances import PairwiseDistances
from doubletree.spanning_tree import minimum_spanning_tree, prim_scan, root_tree

from doubletree import (
    Instance,
    Metric,
    enumerate_conforming_min,
    generate_uniform,
    parse_tsplib,
    write_tsplib,
)
from doubletree.cli import (
    CSV_HEADER,
    DEFAULT_BOX,
    MAX_NODES,
    _grid_label,
    build_records,
    main,
    parse_grid,
    run_suite,
)
from doubletree.errors import ConfigError

from conftest import mst_tree


class TestRunConfig:
    """What ``dt run`` rejects (exit 2) before it builds any tree."""

    def test_rejects_degree_two(self, build_counts):
        assert main(["run", "--gen", "uniform:n=8,seed=1", "--heuristic", "dtk",
                     "--degree-limit", "2"]) == 2
        assert build_counts["mst"] == 0

    def test_rejects_zero_depth(self, build_counts):
        assert main(["run", "--gen", "uniform:n=8,seed=1", "--heuristic", "dtk",
                     "--depth", "0"]) == 2
        assert main(["run", "--gen", "uniform:n=8,seed=1", "--heuristic", "dtk",
                     "--depth", "deep"]) == 2
        assert build_counts["mst"] == 0

    def test_requires_exactly_one_source(self, build_counts):
        assert main(["run"]) == 2
        assert main(["run", "--input", "x.tsp", "--gen", "uniform:n=4"]) == 2
        assert build_counts["mst"] == 0

    def test_labels(self):
        assert _grid_label(1, None) == "DT"
        assert _grid_label(5, 16) == "DT_5_16"
        assert _grid_label(3, None) == "DT_3_inf"


class TestGridParsing:
    def test_default_style_tokens(self):
        assert parse_grid("dt,1x16,5x32") == [(1, None), (1, 16), (5, 32)]
        assert parse_grid("3xinf") == [(3, None)]

    def test_bad_tokens(self):
        for bad in ("", "5", "2x16", "5x0", "axb"):
            with pytest.raises(ConfigError):
                parse_grid(bad)


class TestRunSingle:
    """One instance, one cell through ``build_records``, as ``dt run`` does it."""

    def test_record_fields_and_bounds(self):
        inst = generate_uniform(40, 2, 1.0)
        [record] = build_records(inst, [(1, None)], 200, 2)
        tour = record.tour
        assert record.error is None
        assert (record.instance, record.n, record.seed) == ("uniform-n40-s2", 40, 2)
        assert record.heuristic == "DT"
        assert record.tour_weight == pytest.approx(tour.weight)
        assert record.tour_weight <= 2 * record.mst_weight + 1e-9
        assert record.excess_pct >= 0.0
        assert record.hk_bound <= record.tour_weight + 1e-9
        assert record.wall_time_ms > 0.0

    def test_unrestricted_solver_matches_oracle(self):
        inst = generate_uniform(8, 5, 1.0)
        [record] = build_records(inst, [(1, None)], 50, 5)
        oracle = enumerate_conforming_min(inst, mst_tree(inst))
        assert record.tour.weight == pytest.approx(oracle.weight, abs=1e-9)

    def test_depth_limited_run(self):
        inst = generate_uniform(60, 3, 1.0)
        [record] = build_records(inst, [(5, 8)], 100, 3)
        assert record.heuristic == "DT_5_8"
        assert record.excess_pct >= 0.0

    def test_bad_gen_spec(self, build_counts):
        for spec in ("hexagonal:n=5", "uniform:n=5,bogus=1", "uniform:seed=1",
                     "uniform:n=5,seed", "uniform:n=five", "clustered:n=5,clusters=9"):
            assert main(["run", "--gen", spec]) == 2, spec
        assert build_counts["mst"] == 0


class TestGenSpec:
    def test_clusters_only_for_the_clustered_generator(self, tmp_path, capsys, build_counts):
        assert main(["run", "--gen", "uniform:n=10,seed=1,clusters=3"]) == 2
        assert "takes no clusters parameter" in capsys.readouterr().err
        out = tmp_path / "u.tsp"
        assert main(["gen", "uniform", "--n", "5", "--clusters", "7", "-o", str(out)]) == 2
        assert "takes no clusters parameter" in capsys.readouterr().err
        assert not out.exists()
        assert build_counts["mst"] == 0

    def test_repeated_key_rejected(self, capsys, build_counts):
        assert main(["run", "--gen", "uniform:n=10,seed=1,n=12"]) == 2
        assert "'n' given twice" in capsys.readouterr().err
        assert main(["run", "--gen", "uniform:n=10,SEED=1,seed=2"]) == 2
        assert build_counts["mst"] == 0


class TestSuite:
    def test_row_counts_and_header(self):
        csv = run_suite([8], seeds=3, grid=[(1, 4)], hk_iterations=50)
        lines = csv.strip().splitlines()
        assert lines[0] == CSV_HEADER
        data = [l for l in lines[1:] if not l.startswith("mean-")]
        means = [l for l in lines[1:] if l.startswith("mean-")]
        assert len(data) == 3
        assert len(means) == 1

    def test_byte_identical_rerun(self):
        kwargs = dict(sizes=[8, 10], seeds=2, grid=[(1, 4), (3, 4)], hk_iterations=50)
        assert run_suite(**kwargs) == run_suite(**kwargs)

    def test_wider_grid_entries_never_worse_on_average(self):
        csv = run_suite([40], seeds=3, grid=[(1, None), (3, None), (5, None)],
                        hk_iterations=100)
        means = {}
        for line in csv.strip().splitlines()[1:]:
            if line.startswith("mean-"):
                cols = line.split(",")
                means[cols[2]] = float(cols[6])  # tour_weight column
        assert means["DT_3_inf"] <= means["DT"] + 1e-9
        assert means["DT_5_inf"] <= means["DT_3_inf"] + 1e-9

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ConfigError):
            run_suite([3], seeds=1, grid=[(1, 4)])

    def test_failed_cells_marked_and_suite_continues(self, monkeypatch):
        import doubletree.cli as cli_mod
        from doubletree import GuardError

        orig = cli_mod.degree_increase

        def flaky(tree, limit_D):
            if limit_D == 3:
                raise GuardError("forced failure")
            return orig(tree, limit_D)

        monkeypatch.setattr(cli_mod, "degree_increase", flaky)
        csv = run_suite([8], seeds=2, grid=[(1, 4), (3, 4)], hk_iterations=50)
        lines = csv.strip().splitlines()[1:]
        assert sum("#FAILED" in l for l in lines) == 2
        ok_rows = [l for l in lines if "#FAILED" not in l and not l.startswith("mean-")]
        assert len(ok_rows) == 2
        # only the surviving heuristic gets a mean row
        assert sum(l.startswith("mean-") for l in lines) == 1

    def test_full_search_size_cap(self):
        with pytest.raises(ConfigError):
            run_suite([40000], seeds=1, grid=[(1, None)])

    @pytest.mark.parametrize("sizes", ["8,x", ","])
    def test_bad_sizes(self, tmp_path, sizes, build_counts):
        assert main(["suite", "--sizes", sizes, "--seeds", "1", "--grid", "1x4",
                     "-o", str(tmp_path / "s.csv")]) == 2
        assert build_counts["mst"] == 0

    def test_rejects_zero_seeds(self):
        with pytest.raises(ConfigError, match="at least one seed"):
            run_suite([8], seeds=0, grid=[(1, 4)])

    def test_failed_cell_reported_on_stderr(self, monkeypatch, tmp_path, capsys):
        from doubletree import GuardError

        def failing(tree, limit_D):
            raise GuardError("forced failure")

        monkeypatch.setattr(cli_mod, "degree_increase", failing)
        out = tmp_path / "s.csv"
        assert main(["suite", "--sizes", "8", "--seeds", "1", "--grid", "1x4,3x4",
                     "--hk-iterations", "50", "-o", str(out)]) == 0
        assert capsys.readouterr().err == "FAILED uniform-n8-s1 DT_3_4: forced failure\n"
        assert "uniform-n8-s1#FAILED,8,DT_3_4," in out.read_text()

    def test_repeated_grid_cells_rejected(self, tmp_path, capsys, build_counts):
        out = tmp_path / "s.csv"
        base = ["suite", "--sizes", "8", "--seeds", "1", "--hk-iterations", "50", "-o", str(out)]
        assert main(base + ["--grid", "1x4,1x4,dt,1xinf"]) == 2
        assert "grid token '1x4' repeats cell DT_1_4" in capsys.readouterr().err
        assert main(base + ["--grid", "dt,1x4,1xinf"]) == 2  # dt and 1xinf are one cell
        assert "grid token '1xinf' repeats cell DT" in capsys.readouterr().err
        assert build_counts["mst"] == 0
        assert not out.exists()
        # --include-full still drops a full search the grid already holds
        assert main(base + ["--grid", "1x4,1xinf", "--include-full"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["DT", "DT_1_4", "DT", "DT_1_4"]

    def test_repeated_sizes_rejected(self, tmp_path, capsys, build_counts):
        out = tmp_path / "s.csv"
        assert main(["suite", "--sizes", "6,8,6", "--seeds", "1", "--grid", "1x4",
                     "-o", str(out)]) == 2
        assert "suite size 6 is repeated" in capsys.readouterr().err
        assert build_counts["mst"] == 0
        assert not out.exists()

    def test_wall_times_only_with_timing(self):
        wall = CSV_HEADER.split(",").index("wall_time_ms")
        kwargs = dict(sizes=[8], seeds=2, grid=[(1, 4), (3, None)], hk_iterations=50)
        timed = run_suite(timing=True, **kwargs).splitlines()[1:]
        assert len(timed) == 6 and sum(l.startswith("mean-") for l in timed) == 2
        assert all(float(l.split(",")[wall]) > 0.0 for l in timed)
        plain = run_suite(**kwargs).splitlines()[1:]
        assert len(plain) == 6
        assert all(l.split(",")[wall] == "0.000" for l in plain)


class TestCliCommands:
    def test_gen_roundtrip_and_determinism(self, tmp_path):
        out = tmp_path / "inst.tsp"
        argv = ["gen", "uniform", "--n", "12", "--seed", "4", "-o", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        inst = parse_tsplib(out.read_text())
        assert inst.n == 12
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_gen_writes_stdout_by_default(self, capsys):
        assert main(["gen", "uniform", "--n", "3", "--seed", "1"]) == 0
        assert capsys.readouterr().out == write_tsplib(generate_uniform(3, 1, DEFAULT_BOX))

    def test_gen_clustered(self, tmp_path):
        out = tmp_path / "c.tsp"
        assert main(["gen", "clustered", "--n", "30", "--seed", "1", "--clusters", "3",
                     "-o", str(out)]) == 0
        assert parse_tsplib(out.read_text()).n == 30

    def test_run_csv_output(self, tmp_path, capsys):
        code = main(["run", "--gen", "uniform:n=20,seed=1,box=1.0",
                     "--hk-iterations", "50", "--csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))

    @pytest.mark.parametrize("name", ["a,b", '"a" set'])
    def test_run_csv_quotes_instance_name(self, tmp_path, capsys, name):
        path = tmp_path / "named.tsp"
        coords = generate_uniform(8, 1, 1.0).coords
        path.write_text(write_tsplib(Instance(name, coords, Metric.EUC_2D_REAL)))
        assert main(["run", "--input", str(path), "--hk-iterations", "50", "--csv"]) == 0
        header, row = csv.reader(capsys.readouterr().out.splitlines())
        assert len(row) == len(header) == 11
        assert row[0] == name

    def test_run_human_output(self, capsys):
        assert main(["run", "--gen", "uniform:n=12,seed=1,box=1.0",
                     "--hk-iterations", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7 and lines[6].startswith("wall time     : ")
        assert lines[:6] == [
            "instance      : uniform-n12-s1 (n=12)",
            "heuristic     : DT",
            "tree weight   : 2.270168",
            "tour weight   : 2.849333",
            "lower bound   : 2.849333",
            "excess        : 0.0000%",
        ]
        # the bound lands one ulp above the tour weight: rounding, not a
        # negative excess
        assert main(["run", "--gen", "uniform:n=12,seed=1,box=1.0",
                     "--hk-iterations", "50", "--csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[CSV_HEADER.split(",").index("excess_pct")] == "0.0000"

    def test_run_writes_tour_files(self, tmp_path):
        plain = tmp_path / "tour.txt"
        code = main(["run", "--gen", "uniform:n=10,seed=2,box=1.0",
                     "--hk-iterations", "50",
                     "--tour-out", str(plain), "--tour-format", "plain"])
        assert code == 0
        order = [int(x) for x in plain.read_text().split()]
        assert sorted(order) == list(range(10))

        tsp = tmp_path / "tour.tour"
        code = main(["run", "--gen", "uniform:n=10,seed=2,box=1.0",
                     "--hk-iterations", "50",
                     "--tour-out", str(tsp), "--tour-format", "tsplib"])
        assert code == 0
        body = tsp.read_text().splitlines()
        sect = body[body.index("TOUR_SECTION") + 1 :]
        assert sect[-2:] == ["-1", "EOF"]
        assert sorted(int(x) for x in sect[:-2]) == list(range(1, 11))

    def test_run_dtk_flags(self, capsys):
        assert main(["run", "--gen", "uniform:n=30,seed=1,box=1.0",
                     "--heuristic", "dtk", "--degree-limit", "5", "--depth", "8",
                     "--hk-iterations", "50", "--csv"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert ",DT_5_8,5,8," in row
        assert row.endswith(",1")  # seed comes from the generator spec

    def test_run_rejects_conflicting_flags(self):
        assert main(["run", "--gen", "uniform:n=10,seed=1", "--heuristic", "dt",
                     "--depth", "4"]) == 2

    def test_plot_counts(self, tmp_path):
        svg = tmp_path / "out.svg"
        assert main(["run", "--gen", "uniform:n=9,seed=3,box=1.0",
                     "--hk-iterations", "50", "--plot", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<circle") == 9
        assert text.count('class="tour"') == 9
        assert text.count('class="tree"') == 8

    def test_suite_end_to_end(self, tmp_path):
        out = tmp_path / "suite.csv"
        argv = ["suite", "--sizes", "8", "--seeds", "2", "--grid", "1x4",
                "--hk-iterations", "50", "-o", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first  # rerun is byte-identical
        assert out.read_text().startswith(CSV_HEADER)

    def test_suite_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "suite.csv"
        assert main(["suite", "--sizes", "8", "--seeds", "1", "--grid", "1x4",
                     "--hk-iterations", "5", "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_verify_small_instance(self, tmp_path, capsys):
        inst_file = tmp_path / "v.tsp"
        assert main(["gen", "uniform", "--n", "8", "--seed", "6", "--box", "1.0",
                     "-o", str(inst_file)]) == 0
        assert main(["verify", "--input", str(inst_file)]) == 0
        out = capsys.readouterr().out
        assert "PASS: solver matches exhaustive admissible minimum" in out
        assert "FAIL" not in out

    def test_exit_codes(self, tmp_path):
        # config error: degree limit 2
        assert main(["run", "--gen", "uniform:n=10,seed=1", "--heuristic", "dtk",
                     "--degree-limit", "2"]) == 2
        # parse error: malformed file
        bad = tmp_path / "bad.tsp"
        bad.write_text("DIMENSION : x\n")
        assert main(["run", "--input", str(bad)]) == 3
        # parse error: missing file
        assert main(["run", "--input", str(tmp_path / "nope.tsp")]) == 3
        # guard violation: verify on an oversized instance
        big = tmp_path / "big.tsp"
        assert main(["gen", "uniform", "--n", "14", "--seed", "1", "-o", str(big)]) == 0
        assert main(["verify", "--input", str(big)]) == 4
        # argparse usage error
        assert main(["run"]) == 2

    def test_internal_invariant_failure_exits_5(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "is_conforming", lambda tour, tree: False)
        assert main(["run", "--gen", "uniform:n=8,seed=1", "--hk-iterations", "50"]) == 5
        assert capsys.readouterr().err == (
            "internal invariant failure: emitted tour violates subtree contiguity\n")

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "x.tsp"
        proc = subprocess.run(
            [sys.executable, "-m", "doubletree.cli", "gen", "uniform",
             "--n", "5", "--seed", "1", "-o", str(out)],
            capture_output=True,
            text=True,
            cwd=Path(cli_mod.__file__).parents[1],  # where this process found the package
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_run_on_integer_metric_file(self, tmp_path, capsys):
        # EUC_2D rounding bends the triangle inequality a little; the
        # pipeline verification must tolerate that
        from doubletree import Instance, Metric, write_tsplib

        xy = generate_uniform(30, seed=13, box=100.0).coords
        inst = Instance("int30", xy, Metric.EUC_2D)
        path = tmp_path / "int30.tsp"
        path.write_text(write_tsplib(inst))
        assert main(["run", "--input", str(path), "--hk-iterations", "100",
                     "--csv"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.startswith("int30,30,DT,")

    def test_run_clustered_gen_spec(self, capsys):
        assert main(["run", "--gen", "clustered:n=25,seed=2,box=1.0,clusters=3",
                     "--hk-iterations", "50", "--csv"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.startswith("clustered-n25-c3-s2,25,")

    def test_suite_include_full_flag(self, tmp_path):
        out = tmp_path / "full.csv"
        assert main(["suite", "--sizes", "8", "--seeds", "1", "--grid", "1x4",
                     "--include-full", "--hk-iterations", "50",
                     "-o", str(out)]) == 0
        body = out.read_text()
        assert ",DT,1,inf," in body
        # the cap rejects full search on oversized suites before any work
        assert main(["suite", "--sizes", "40000", "--seeds", "1", "--grid", "1x4",
                     "--include-full", "-o", str(tmp_path / "no.csv")]) == 2


class TestEmitPlot:
    def test_build_records_matches_components(self):
        inst = generate_uniform(25, seed=8, box=1.0)
        [record] = build_records(inst, [(1, None)], 50, 8)
        assert record.wall_time_ms >= 0.0
        assert record.tree.parent == mst_tree(inst).parent
        assert record.tour.weight == record.tour_weight <= 2 * record.mst_weight + 1e-9


@pytest.fixture
def build_counts(monkeypatch):
    """Count MST builds, rootings, dense Prim scans and distance-object
    constructions, wherever called."""
    counts = {"mst": 0, "root": 0, "scan": 0, "distances": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # keyed by identity: module globals include unhashable values
    wrappers = {id(fn): counted(key, fn)
                for key, fn in (("mst", minimum_spanning_tree), ("root", root_tree),
                                ("scan", prim_scan))}
    for name, mod in list(sys.modules.items()):
        if name == "doubletree" or name.startswith("doubletree."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(value)])
    orig_init = PairwiseDistances.__init__

    def counted_init(self, inst):
        counts["distances"] += 1
        orig_init(self, inst)

    monkeypatch.setattr(PairwiseDistances, "__init__", counted_init)
    return counts


class TestOneBuildPerInstance:
    def test_run(self, tmp_path, build_counts):
        assert main(["run", "--gen", "uniform:n=30,seed=1,box=1.0", "--heuristic", "dtk",
                     "--degree-limit", "4", "--hk-iterations", "20",
                     "--tour-out", str(tmp_path / "t.tour"),
                     "--plot", str(tmp_path / "t.svg")]) == 0
        # the MST's scan and three certificates; step 1 comes from the unique MST
        assert build_counts == {"mst": 1, "root": 1, "scan": 4, "distances": 1}

    def test_suite(self, build_counts):
        run_suite([10], seeds=2, grid=[(1, None), (1, 4), (3, 16), (5, None)],
                  hk_iterations=20)
        assert build_counts == {"mst": 2, "root": 2, "scan": 8, "distances": 2}

    def test_verify(self, tmp_path, build_counts):
        inst_file = tmp_path / "v.tsp"
        assert main(["gen", "uniform", "--n", "7", "--seed", "2", "-o", str(inst_file)]) == 0
        assert main(["verify", "--input", str(inst_file)]) == 0
        assert build_counts == {"mst": 1, "root": 1, "scan": 2, "distances": 1}

    def test_one_dense_scan_before_the_ascent(self, build_counts):
        assert main(["run", "--gen", "uniform:n=200,seed=1", "--hk-iterations", "1"]) == 0
        assert build_counts["scan"] == 1

    def test_ties_take_the_dense_step_one(self, tmp_path, build_counts):
        # a rounded lattice ties everywhere: step 1 takes its own dense scan
        lattice = [(10 * i, 10 * j) for i in range(8) for j in range(8)]
        path = write_euc2d(tmp_path / "lattice.tsp", lattice)
        assert main(["run", "--input", path, "--hk-iterations", "1"]) == 0
        assert build_counts["scan"] == 2

    def test_rounded_without_ties_takes_one_scan(self, tmp_path, build_counts):
        # rounded (EUC_2D) lengths, but no tie in the MST's scan: step 1 comes from it
        points = np.random.default_rng(2).integers(0, 1000, size=(30, 2)).tolist()
        path = write_euc2d(tmp_path / "rounded.tsp", points)
        assert main(["run", "--input", path, "--hk-iterations", "1"]) == 0
        assert build_counts["scan"] == 1


def write_euc2d(path, coords):
    rows = "".join(f"{i} {x} {y}\n" for i, (x, y) in enumerate(coords, 1))
    path.write_text(f"NAME : {path.stem}\nTYPE : TSP\nDIMENSION : {len(coords)}\n"
                    f"EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n{rows}EOF\n")
    return str(path)


class TestDegenerateBounds:
    """Two nodes have no bound (excess nan); coincident points a zero one (0 or inf)."""

    def fields(self, out):
        return dict(zip(CSV_HEADER.split(","), out.splitlines()[1].split(",")))

    def test_run_two_nodes(self, capsys):
        assert main(["run", "--gen", "uniform:n=2,seed=1", "--csv"]) == 0
        row = self.fields(capsys.readouterr().out)
        assert row["instance"] == "uniform-n2-s1"
        assert [row[f] for f in ("hk_bound", "excess_pct")] == ["nan", "nan"]

    def test_run_coincident_points(self, tmp_path, capsys):
        path = write_euc2d(tmp_path / "dup3.tsp", [(5, 5)] * 3)
        assert main(["run", "--input", path, "--csv"]) == 0
        row = self.fields(capsys.readouterr().out)
        assert [row[f] for f in ("tour_weight", "hk_bound", "excess_pct")] == [
            "0.000000", "0.000000", "0.0000"]

    def test_verify_coincident_points(self, tmp_path, capsys):
        path = write_euc2d(tmp_path / "dup3.tsp", [(5, 5)] * 3)
        assert main(["verify", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "verified dup3: tour=0.000000 optimal=0.000000" in out

    def test_positive_tour_over_zero_bound(self, tmp_path, capsys):
        # rounded distances under 0.5 are zero: the 1-tree without potentials
        # costs 0, but node 4 has one zero edge, so every tour costs >= 1
        path = write_euc2d(tmp_path / "kite4.tsp", [(0.225, 0.1), (0, 0), (0.45, 0), (0.9, 0)])
        assert main(["run", "--input", path, "--hk-iterations", "1", "--csv"]) == 0
        row = self.fields(capsys.readouterr().out)
        assert [row[f] for f in ("tour_weight", "hk_bound", "excess_pct")] == [
            "1.000000", "0.000000", "inf"]


class TestEarlyValidation:
    def test_zero_hk_iterations_rejected_before_any_tour_work(self, tmp_path, build_counts):
        with pytest.raises(ConfigError):
            run_suite([8], seeds=1, grid=[(1, 4)], hk_iterations=0)
        assert main(["run", "--gen", "uniform:n=1500,seed=1", "--hk-iterations", "0"]) == 2
        assert main(["suite", "--sizes", "8", "--seeds", "1", "--grid", "1x4",
                     "--hk-iterations", "0", "-o", str(tmp_path / "s.csv")]) == 2
        assert build_counts["mst"] == 0

    def test_full_search_cap_rejected_before_any_tour_work(self, capsys, build_counts):
        # the cap dt suite applies holds for dt run too
        assert main(["run", "--gen", "uniform:n=40000,seed=1", "--heuristic", "dt"]) == 2
        assert "capped at n <= 31623" in capsys.readouterr().err
        assert main(["run", "--gen", "uniform:n=40000,seed=1", "--heuristic", "dtk",
                     "--degree-limit", "5", "--depth", "inf"]) == 2
        assert build_counts == {"mst": 0, "root": 0, "scan": 0, "distances": 0}

    def test_verify_above_the_oracle_limit_rejected_before_any_tour_work(
        self, tmp_path, capsys, build_counts
    ):
        inst_file = tmp_path / "n12.tsp"
        assert main(["gen", "uniform", "--n", "12", "--seed", "1", "-o", str(inst_file)]) == 0
        assert main(["verify", "--input", str(inst_file)]) == 4
        assert "exhaustive search limited to n <= 11" in capsys.readouterr().err
        # no option raises the limit
        assert main(["verify", "--input", str(inst_file), "--max-n", "12"]) == 2
        assert build_counts["mst"] == 0

    def test_oversized_tables_rejected_before_the_upsweep_reads_a_distance(
        self, monkeypatch, capsys
    ):
        counts = {"upsweep": 0, "lookups": 0}
        inside = []
        orig_pairs, orig_upsweep = PairwiseDistances.pairs, cli_mod.upsweep

        def counted_pairs(self, a, b):
            counts["lookups"] += bool(inside)
            return orig_pairs(self, a, b)

        def flagged_upsweep(*args, **kwargs):
            counts["upsweep"] += 1
            inside.append(True)
            try:
                return orig_upsweep(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(PairwiseDistances, "pairs", counted_pairs)
        monkeypatch.setattr(cli_mod, "upsweep", flagged_upsweep)
        assert main(["run", "--gen", "uniform:n=1000,seed=1", "--heuristic", "dtk",
                     "--degree-limit", "12", "--depth", "16"]) == 4
        assert counts == {"upsweep": 1, "lookups": 0}
        assert "bridge entries" in capsys.readouterr().err

    def test_one_node_file_rejected_before_any_tour_work(self, tmp_path, capsys, build_counts):
        path = write_euc2d(tmp_path / "one.tsp", [(1, 2)])
        for command in ("run", "verify"):
            assert main([command, "--input", path]) == 2
            assert capsys.readouterr().err == (
                "config error: tour construction needs at least 2 nodes\n")
        assert build_counts["mst"] == 0

    @pytest.mark.parametrize("argv", [
        ["gen", "uniform", "--n", "100000000000"],
        ["run", "--gen", "uniform:n=100000000000,seed=1", "--heuristic", "dtk",
         "--depth", "16"],
        # the cap holds before the first, small instance is built
        ["suite", "--sizes", "8,100000000000", "--seeds", "1", "--grid", "1x16", "-o", "-"],
    ], ids=["gen", "run", "suite"])
    def test_generated_size_capped_before_any_point(self, argv, capsys, build_counts):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert capsys.readouterr().err == (
            f"guard violation: generated instances are capped at n <= {MAX_NODES}, "
            "got n = 100000000000\n")
        assert build_counts == {"mst": 0, "root": 0, "scan": 0, "distances": 0}
        assert peak < 1 << 20

    def test_non_finite_coordinate_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.tsp"
        bad.write_text("NAME : nan\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
                       "NODE_COORD_SECTION\n1 0 0\n2 nan 1\n3 4 4\nEOF\n")
        assert main(["run", "--input", str(bad)]) == 3
        assert "line 7: point coordinates must be finite" in capsys.readouterr().err
        assert main(["verify", "--input", str(bad)]) == 3

    def test_huge_coordinates_are_an_input_error(self, tmp_path, capsys, build_counts):
        bad = tmp_path / "huge.tsp"
        bad.write_text("NAME : huge\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
                       "NODE_COORD_SECTION\n1 0 0\n2 1e200 0\n3 0 1e200\nEOF\n")
        assert main(["run", "--input", str(bad)]) == 3
        assert capsys.readouterr().err == (
            "parse error: point coordinates too far apart: squared distances overflow\n")
        assert build_counts == {"mst": 0, "root": 0, "scan": 0, "distances": 0}


TRIANGLE = ("NAME : tri\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 3 0\n3 0 4\nEOF\n")


class TestTsplibInput:
    """``dt run --input`` on a malformed file: exit 3, with its line where it has one."""

    def run(self, tmp_path, capsys, text):
        path = tmp_path / "in.tsp"
        path.write_text(text)
        code = main(["run", "--input", str(path), "--csv"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (TRIANGLE.replace("DIMENSION : 3", "DIMENSION : 100000000000").replace("3 0 4\n", ""),
         "line 8: expected 100000000000 coordinate lines, found 2"),
        (TRIANGLE.replace("EOF", "NODE_COORD_SECTION\n1 0 0\n2 30 0\n3 0 40\nEOF"),
         "line 9: expected EOF after 3 coordinate lines, found 'NODE_COORD_SECTION'"),
        (TRIANGLE.replace("NODE_COORD_SECTION", "EDGE_WEIGHT_TYPE : EUC_2D_REAL\nNODE_COORD_SECTION"),
         "line 5: keyword 'EDGE_WEIGHT_TYPE' given twice"),
        (TRIANGLE.replace("EOF", "DIMENSION : 7\nEOF"),
         "line 9: expected EOF after 3 coordinate lines, found 'DIMENSION : 7'"),
    ], ids=["huge-dimension", "second-coord-section", "repeated-keyword", "keyword-after-coords"])
    def test_each_part_read_once(self, tmp_path, capsys, text, message):
        tracemalloc.start()
        try:
            code, err = self.run(tmp_path, capsys, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (3, f"parse error: {message}\n")
        assert peak < 1 << 20  # nothing sized by DIMENSION

    @pytest.mark.parametrize("text, message", [
        (TRIANGLE.replace("DIMENSION : 3\n", ""), "line 4: NODE_COORD_SECTION before DIMENSION"),
        ("NAME : tri\nEOF\n", "missing DIMENSION header"),
        (TRIANGLE.split("NODE_COORD_SECTION")[0], "missing NODE_COORD_SECTION"),
        (TRIANGLE.replace("EDGE_WEIGHT_TYPE : EUC_2D\n", ""), "missing EDGE_WEIGHT_TYPE header"),
        (TRIANGLE.replace("TYPE : TSP", "TSP"), "line 2: unrecognised line: 'TSP'"),
        (TRIANGLE.replace("2 3 0", "2 3"), "line 7: malformed coordinate line: '2 3'"),
        (TRIANGLE.replace("2 3 0", "2 three 0"), "line 7: malformed coordinate line: '2 three 0'"),
        (TRIANGLE.replace("DIMENSION : 3", "DIMENSION : 0"), "line 3: DIMENSION must be >= 1, got 0"),
        (TRIANGLE.replace("3 0 4\nEOF\n", ""), "line 7: expected 3 coordinate lines, found 2"),
    ], ids=["section-before-dimension", "no-dimension", "no-section", "no-edge-weight-type",
            "unrecognised", "field-count", "non-numeric", "zero-dimension", "ends-in-section"])
    def test_error_paths(self, tmp_path, capsys, text, message):
        assert self.run(tmp_path, capsys, text) == (3, f"parse error: {message}\n")
