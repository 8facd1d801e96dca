import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubletree import (
    Instance,
    Metric,
    ParseError,
    cycle_weight,
    generate_clustered,
    generate_uniform,
    parse_tsplib,
    write_tsplib,
)
from doubletree import instances
from doubletree.instances import PairwiseDistances

from conftest import distance, distance_matrix, make_instance, max_triangle_violation


class TestDistance:
    def test_pythagorean_triple(self):
        inst = make_instance([(0, 0), (3, 4)])
        assert distance(inst, 0, 1) == 5.0

    def test_self_distance_is_zero(self):
        inst = make_instance([(2, 3), (5, 1)])
        assert distance(inst, 0, 0) == 0.0
        assert distance(inst, 1, 1) == 0.0

    def test_rounded_unit_diagonal(self):
        inst = make_instance([(0, 0), (1, 1)], rounded=True)
        # sqrt(2) = 1.414... rounds down to 1
        assert distance(inst, 0, 1) == 1

    def test_rounding_is_half_up(self):
        inst = make_instance([(0, 0), (0.5, 0), (2.5, 0)], rounded=True)
        assert distance(inst, 0, 1) == 1  # 0.5 -> 1, not banker's 0
        assert distance(inst, 1, 2) == 2
        assert distance(inst, 0, 2) == 3  # 2.5 -> 3

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_zero_diagonal(self, coords):
        inst = make_instance(coords)
        for a in range(inst.n):
            assert distance(inst, a, a) == 0.0
            for b in range(a + 1, inst.n):
                assert distance(inst, a, b) == distance(inst, b, a)

    def test_triangle_inequality_on_generated_points(self):
        inst = generate_uniform(50, seed=3)
        assert max_triangle_violation(inst) <= 1e-9

    def test_triangle_inequality_rounded_metric_within_one_unit(self):
        xy = generate_uniform(40, seed=9, box=1000.0).coords
        inst = Instance("r", xy, Metric.EUC_2D)
        # rounding both sides half-up can overshoot by at most one unit
        assert max_triangle_violation(inst) <= 1.0


class TestValidation:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            make_instance([(0.0, 0.0), (float("nan"), 0.0)])
        with pytest.raises(ValueError, match="finite"):
            make_instance([(0.0, float("inf"))])

    def test_rejects_spans_whose_squares_overflow(self):
        for bad in ([(0.0, 0.0), (1e154, 0.0), (0.0, 1e154)], [(-1e200, 0.0), (1e200, 0.0)]):
            with pytest.raises(ValueError, match="squared distances overflow"):
                make_instance(bad)
        # far from the origin is fine while the points are close to each other
        for ok in ([(0.0, 0.0), (1e154, 0.0)], [(1e160, -1e160), (1e160 + 1e150, -1e160)]):
            inst = make_instance(ok)
            assert np.isfinite(inst.distances.pairs(0, 1))

    def test_instance_count_mismatch(self):
        for bad in ([], [(0.0, 0.0, 0.0)], [0.0, 1.0]):
            with pytest.raises(ValueError, match=r"\(n, 2\)"):
                make_instance(bad)

    def test_coords_are_a_read_only_copy(self):
        xy = np.array([[0.0, 0.0], [3.0, 4.0]])
        inst = make_instance(xy)
        xy[1, 0] = 100.0
        assert distance(inst, 0, 1) == 5.0
        with pytest.raises(ValueError):
            inst.coords[0, 0] = 1.0


class TestGenerators:
    def test_uniform_single_point_in_box(self):
        inst = generate_uniform(1, seed=7, box=1.0)
        ((x, y),) = inst.coords
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_uniform_determinism(self):
        a = generate_uniform(1000, seed=1, box=1e6)
        b = generate_uniform(1000, seed=1, box=1e6)
        assert np.array_equal(a.coords, b.coords)

    def test_uniform_seeds_differ(self):
        a = generate_uniform(1000, seed=1)
        b = generate_uniform(1000, seed=2)
        assert not np.array_equal(a.coords, b.coords)

    def test_uniform_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_uniform(0, seed=1)
        with pytest.raises(ValueError):
            generate_uniform(5, seed=1, box=0.0)
        with pytest.raises(ValueError, match="box must be positive"):
            generate_clustered(5, seed=1, box=0.0)

    def test_clustered_degenerate_cluster(self):
        # one cluster: every point lies within 6 sigma of the cluster mean
        inst = generate_clustered(200, seed=4, box=1.0, clusters=1)
        sigma = 1.0 / 50.0
        offsets = inst.coords - inst.coords.mean(axis=0)
        assert np.hypot(*offsets.T).max() < 6.0 * sigma
        assert offsets.std() > 0.5 * sigma

    def test_clustered_determinism(self):
        a = generate_clustered(100, seed=3, clusters=10)
        b = generate_clustered(100, seed=3, clusters=10)
        assert np.array_equal(a.coords, b.coords)

    def test_clustered_spread_exceeds_cluster_width(self):
        inst = generate_clustered(1000, seed=5, box=1.0, clusters=10)
        sigma = 1.0 / (50.0 * math.sqrt(10))
        xs = inst.coords[:, 0]
        # centers spread over the box dominates the within-cluster jitter
        assert xs.var() > 25.0 * sigma**2

    def test_clustered_rejects_more_clusters_than_points(self):
        with pytest.raises(ValueError):
            generate_clustered(5, seed=1, clusters=6)


class TestPairwiseDistances:
    def test_block_matches_scalar(self):
        inst = generate_uniform(20, seed=11)
        dist = PairwiseDistances(inst)
        rows = np.array([0, 3, 7])
        cols = np.array([1, 2, 19, 5])
        block = dist.pairs(rows[:, None], cols)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert block[i, j] == pytest.approx(distance(inst, a, b), abs=0)

    def test_uncached_block_matches_cached(self, monkeypatch):
        xy = generate_uniform(30, seed=12, box=1000.0).coords
        rows = np.arange(30)
        for rounded in (False, True):
            inst = make_instance(xy, rounded=rounded)
            cached = PairwiseDistances(inst)
            with monkeypatch.context() as m:
                m.setattr(instances, "MATRIX_CACHE_LIMIT", 10)
                uncached = PairwiseDistances(inst)
            for a, b in [(rows[:, None], rows), (7, rows), (7, slice(None)), (rows, rows[::-1])]:
                assert np.array_equal(cached.pairs(a, b), uncached.pairs(a, b))
            scalar = uncached.pairs(3, 11)
            assert isinstance(scalar, np.float64)
            assert scalar.hex() == cached.pairs(3, 11).hex()

    def test_uncached_block_has_one_temporary(self, monkeypatch):
        monkeypatch.setattr(instances, "MATRIX_CACHE_LIMIT", 10)
        xy = generate_uniform(1000, seed=13, box=1e6).coords
        rows = np.arange(1000)
        for rounded in (False, True):
            dist = make_instance(xy, rounded=rounded).distances
            tracemalloc.start()
            try:
                block = dist.pairs(rows[:, None], rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the result and one chunk's differences; whole-block differences
            # would take about 2x
            assert peak < 1.5 * block.nbytes

    def test_uncached_lookup_frees_the_x_coordinates(self, monkeypatch):
        monkeypatch.setattr(instances, "MATRIX_CACHE_LIMIT", 10)
        dist = generate_uniform(1000, seed=13, box=1e6).distances
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 1000, 200_000), rng.integers(0, 1000, 200_000)
        # flat index arrays (one pass), then full 2-D ones (a block in chunks)
        for a, b in ((a, b), (a.reshape(400, 500), b.reshape(400, 500))):
            tracemalloc.start()
            try:
                out = dist.pairs(a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the x lookups go before the y lookups are taken: about 3 arrays
            # of the result's size at once (a chunk's temporaries on top of a
            # block), against 5 while both pairs of lookups were held
            assert peak < 3.75 * out.nbytes

    def test_a_large_block_is_computed_in_chunks_with_the_same_bits(self, monkeypatch):
        monkeypatch.setattr(instances, "MATRIX_CACHE_LIMIT", 10)
        xy = generate_uniform(700, seed=14, box=1e6).coords
        rows, cols = np.arange(0, 700, 2), np.arange(700)[::-1]
        for rounded in (False, True):
            dist = make_instance(xy, rounded=rounded).distances
            block = dist.pairs(rows[:, None], cols)
            assert block.size > 3 * instances.CHUNK_ENTRIES  # several chunks, the last one short
            # flat index arrays take the one-pass path
            flat = dist.pairs(np.repeat(rows, cols.size), np.tile(cols, rows.size))
            assert block.tobytes() == flat.tobytes()

    def test_instance_builds_one_shared_distance_object(self):
        inst = generate_uniform(12, seed=1)
        assert inst.distances is inst.distances
        assert distance(inst, 3, 5) == distance_matrix(inst.distances)[3, 5]

    def test_cycle_weight_closes_the_cycle(self):
        inst = make_instance([(0, 0), (1, 0), (1, 1)])
        assert cycle_weight(inst, [0, 1, 2]) == pytest.approx(2 + math.sqrt(2))

    def test_cycle_weight_sums_left_to_right(self):
        inst = generate_uniform(200, seed=21, box=1e6)
        order = list(np.random.default_rng(5).permutation(200))
        total = 0.0
        for i in range(200):
            total += distance(inst, order[i], order[(i + 1) % 200])
        assert cycle_weight(inst, order) == total  # bit for bit


MINIMAL_EUC2D = """\
NAME : tiny
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 3.0 0.0
3 0.0 4.0
EOF
"""


class TestTsplib:
    def test_parse_minimal(self):
        inst = parse_tsplib(MINIMAL_EUC2D)
        assert inst.n == 3
        assert inst.name == "tiny"
        assert inst.metric is Metric.EUC_2D
        assert distance(inst, 0, 1) == 3

    def test_parse_real_metric_keyword(self):
        text = MINIMAL_EUC2D.replace("EUC_2D", "EUC_2D_REAL")
        inst = parse_tsplib(text)
        assert inst.metric is Metric.EUC_2D_REAL

    def test_dimension_mismatch_reports_line(self):
        text = MINIMAL_EUC2D.replace("DIMENSION : 3", "DIMENSION : 4")
        with pytest.raises(ParseError, match="line"):
            parse_tsplib(text)

    def test_unsupported_edge_weight_type(self):
        text = MINIMAL_EUC2D.replace("EUC_2D", "GEO")
        with pytest.raises(ParseError, match="GEO"):
            parse_tsplib(text)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_tsplib("NAME : x\nBOGUS : 1\n" + MINIMAL_EUC2D)

    def test_duplicate_index_rejected(self):
        text = MINIMAL_EUC2D.replace("2 3.0 0.0", "1 3.0 0.0")
        with pytest.raises(ParseError, match="duplicate"):
            parse_tsplib(text)

    def test_index_out_of_range_rejected(self):
        text = MINIMAL_EUC2D.replace("3 0.0 4.0", "9 0.0 4.0")
        with pytest.raises(ParseError, match="outside"):
            parse_tsplib(text)

    def test_type_must_be_tsp(self):
        text = MINIMAL_EUC2D.replace("TYPE : TSP", "TYPE : ATSP")
        with pytest.raises(ParseError):
            parse_tsplib(text)

    def test_write_contains_dimension(self):
        inst = make_instance([(0, 0), (1, 2)], name="two")
        text = write_tsplib(inst)
        assert "DIMENSION : 2" in text
        assert "EUC_2D_REAL" in text

    def test_round_trip_exact(self):
        inst = generate_uniform(25, seed=42, box=1e6)
        again = parse_tsplib(write_tsplib(inst))
        assert again.n == inst.n
        assert np.array_equal(again.coords, inst.coords)
        assert again.metric is inst.metric
        assert again.name == inst.name

    def test_round_trip_rounded_metric(self):
        inst = make_instance([(0.5, 0.25), (100.125, 3.0)], rounded=True)
        again = parse_tsplib(write_tsplib(inst))
        assert np.array_equal(again.coords, inst.coords)
        assert again.metric is Metric.EUC_2D

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected_with_line(self, bad):
        text = MINIMAL_EUC2D.replace("2 3.0 0.0", f"2 {bad} 1")
        with pytest.raises(ParseError, match="line 7: point coordinates must be finite"):
            parse_tsplib(text)

    def test_whitespace_tolerance(self):
        text = "NAME:pad\nTYPE  :  TSP\nDIMENSION:2\nEDGE_WEIGHT_TYPE : EUC_2D\n" \
               "NODE_COORD_SECTION\n  1   0   0\n\n2 1 1\nEOF\n"
        inst = parse_tsplib(text)
        assert inst.n == 2
