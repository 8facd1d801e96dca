"""Outputs pinned byte for byte, so drift between versions of the code fails.

``tests/data`` holds files the package wrote before its distance and
pipeline code was restructured; every later version must reproduce them:

* ``golden_suite_{uniform,clustered}.csv``: ``dt suite --sizes 12,30
  --seeds 2 --grid 1x4,3x16,5xinf --include-full --hk-iterations 50
  --class {uniform,clustered}``.
* ``golden_int60.tsp``: ``write_tsplib`` of the 60 points of
  ``generate_uniform(60, seed=13, box=1000.0)`` under the rounded
  ``EUC_2D`` metric, named ``int60``.
* ``golden_int60_run.csv`` and ``golden_int60.tour``: ``dt run --input
  golden_int60.tsp --heuristic dtk --degree-limit 4 --depth 6
  --hk-iterations 100 --csv --tour-out golden_int60.tour``.  Its
  ``wall_time_ms`` field is a measurement and is not compared.
* ``golden_values.json``: ``repr`` of the MST weight, the 50-step bound and
  each grid cell's tour weight, plus the tour itself, for three instances;
  the CSV prints only six decimals, these pin every bit.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from doubletree import (
    Instance,
    Metric,
    generate_clustered,
    generate_uniform,
    parse_tsplib,
    write_tsplib,
)
from doubletree.cli import CSV_HEADER, build_records, main

DATA = Path(__file__).parent / "data"
WALL_COLUMN = CSV_HEADER.split(",").index("wall_time_ms")
CELLS = {"1xinf": (1, None), "1x4": (1, 4), "3x16": (3, 16), "5xinf": (5, None)}


def int60():
    xy = generate_uniform(60, seed=13, box=1000.0).coords
    return Instance("int60", xy, Metric.EUC_2D)


@pytest.mark.parametrize("klass", ["uniform", "clustered"])
def test_suite_csv(tmp_path, klass):
    out = tmp_path / "suite.csv"
    assert main(["suite", "--sizes", "12,30", "--seeds", "2", "--grid", "1x4,3x16,5xinf",
                 "--include-full", "--hk-iterations", "50", "--class", klass,
                 "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"golden_suite_{klass}.csv").read_bytes()


def test_instance_file():
    assert write_tsplib(int60()).encode() == (DATA / "golden_int60.tsp").read_bytes()


def test_run_fields_and_tour_file(tmp_path):
    tour = tmp_path / "int60.tour"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["run", "--input", str(DATA / "golden_int60.tsp"), "--heuristic", "dtk",
                     "--degree-limit", "4", "--depth", "6", "--hk-iterations", "100",
                     "--csv", "--tour-out", str(tour)])
    assert code == 0

    def fields(text):
        rows = [line.split(",") for line in text.splitlines()]
        return [row[:WALL_COLUMN] + row[WALL_COLUMN + 1:] for row in rows]

    expected = (DATA / "golden_int60_run.csv").read_text()
    assert fields(stdout.getvalue()) == fields(expected)
    assert tour.read_bytes() == (DATA / "golden_int60.tour").read_bytes()


@pytest.mark.parametrize("name", ["uniform-n30-s1", "clustered-n30-s2", "int60"])
def test_full_precision_values(name):
    inst = {
        "uniform-n30-s1": lambda: generate_uniform(30, 1, 1e6),
        "clustered-n30-s2": lambda: generate_clustered(30, 2, 1e6),
        "int60": lambda: parse_tsplib((DATA / "golden_int60.tsp").read_text()),
    }[name]()
    golden = json.loads((DATA / "golden_values.json").read_text())[name]
    records = build_records(inst, list(CELLS.values()), hk_iterations=50, seed=0)
    for label, rec in zip(CELLS, records):
        assert repr(rec.mst_weight) == golden["mst_weight"]
        assert repr(rec.hk_bound) == golden["hk_bound_50"]
        assert repr(rec.tour.weight) == golden["cells"][label]["weight"]
        assert list(rec.tour.order) == golden["cells"][label]["order"]
