"""Tests for the COAX index: build pipeline, layout, queries and memory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig, EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.predicates import Interval, Rectangle
from repro.data.queries import WorkloadConfig, generate_knn_queries, generate_point_queries
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel
from repro.indexes.base import IndexBuildError
from repro.indexes.rtree import RTreeIndex


def routing(index: COAXIndex, query: Rectangle) -> tuple:
    """``(use_primary, use_outlier)`` of COAX's planner for one query."""
    _, _, _, use_primary, use_outlier, _ = index._plan_batch([query])
    return bool(use_primary[0]), bool(use_outlier[0])


class TestBuildOnAirline:
    def test_detects_both_groups(self, airline_coax):
        assert len(airline_coax.groups) == 2
        group_attributes = [set(group.attributes) for group in airline_coax.groups]
        assert {"Distance", "TimeElapsed", "AirTime"} in group_attributes
        assert {"DepTime", "ArrTime", "ScheduledArrTime"} in group_attributes

    def test_primary_ratio_matches_generated_outlier_rate(self, airline_coax):
        # The generator plants ~8% outliers; the 3-sigma margins keep ~90%.
        assert 0.85 <= airline_coax.primary_ratio <= 0.95

    def test_dimensionality_reduction(self, airline_coax, airline_small):
        report = airline_coax.build_report
        # 8 attributes, 4 predicted -> 4 indexed, and the sorted dimension
        # removes one more grid dimension (n - m - 1 = 3).
        assert len(report.indexed_dimensions) == 4
        assert len(report.predicted_dimensions) == 4
        assert len(report.primary_grid_dimensions) == 3
        assert report.primary_sort_dimension in report.indexed_dimensions

    def test_partition_covers_all_rows(self, airline_coax, airline_small):
        partition = airline_coax.partition
        assert partition.n_rows == airline_small.n_rows

    def test_memory_breakdown_components(self, airline_coax):
        breakdown = airline_coax.memory_breakdown()
        assert set(breakdown) == {"primary", "outlier", "models"}
        assert airline_coax.directory_bytes() == sum(breakdown.values())
        assert breakdown["models"] == sum(g.memory_bytes() for g in airline_coax.groups)

    def test_directory_smaller_than_rtree(self, airline_coax, airline_small):
        rtree = RTreeIndex(airline_small, node_capacity=10)
        assert airline_coax.directory_bytes() < rtree.directory_bytes() / 5

    def test_build_report_describe(self, airline_coax):
        text = airline_coax.build_report.describe()
        assert "FD groups" in text
        assert "primary index ratio" in text


class TestBuildOnOSM:
    def test_detects_id_timestamp_group(self, osm_coax):
        assert len(osm_coax.groups) == 1
        assert set(osm_coax.groups[0].attributes) == {"Id", "Timestamp"}

    def test_primary_ratio(self, osm_coax):
        # The generator plants ~25% outliers.
        assert 0.70 <= osm_coax.primary_ratio <= 0.85


class TestQueriesMatchFullScan:
    @pytest.mark.parametrize("dataset_fixture", ["airline_small", "osm_small"])
    def test_range_queries(self, request, dataset_fixture, fast_coax_config):
        table = request.getfixturevalue(dataset_fixture)
        index = (
            request.getfixturevalue("airline_coax")
            if dataset_fixture == "airline_small"
            else request.getfixturevalue("osm_coax")
        )
        workload = generate_knn_queries(
            table, WorkloadConfig(n_queries=25, k_neighbours=120, seed=5)
        )
        for query in workload:
            assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    @pytest.mark.parametrize("dataset_fixture", ["airline_small", "osm_small"])
    def test_point_queries(self, request, dataset_fixture):
        table = request.getfixturevalue(dataset_fixture)
        index = (
            request.getfixturevalue("airline_coax")
            if dataset_fixture == "airline_small"
            else request.getfixturevalue("osm_coax")
        )
        workload = generate_point_queries(table, WorkloadConfig(n_queries=25, seed=6))
        for query in workload:
            assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    def test_queries_on_predicted_dimensions_only(self, airline_coax, airline_small):
        """Constraints purely on non-indexed (predicted) attributes still work."""
        query = Rectangle({"AirTime": Interval(60.0, 90.0), "ArrTime": Interval(600.0, 900.0)})
        assert np.array_equal(
            np.sort(airline_coax.range_query(query)), airline_small.select(query)
        )

    def test_unconstrained_query_returns_everything(self, airline_coax, airline_small):
        assert len(airline_coax.range_query(Rectangle.unconstrained())) == airline_small.n_rows

    def test_empty_query(self, airline_coax):
        assert len(airline_coax.range_query(Rectangle({"Distance": Interval(10.0, 5.0)}))) == 0

    def test_query_result_attribution(self, airline_coax, airline_small):
        query = Rectangle({"Distance": Interval(300.0, 1200.0)})
        result = airline_coax.query(query)
        assert result.n_results == len(airline_small.select(query))
        merged = np.sort(np.concatenate([result.primary_row_ids, result.outlier_row_ids]))
        assert np.array_equal(np.sort(result.row_ids), np.unique(merged))
        # Most results come from the primary index (the data is mostly inliers).
        assert result.primary_share > 0.7

    def test_work_is_less_than_full_scan(self, airline_coax, airline_small):
        airline_coax.stats.reset()
        query = Rectangle({"Distance": Interval(500.0, 520.0), "AirTime": Interval(70.0, 95.0)})
        airline_coax.range_query(query)
        assert airline_coax.stats.rows_examined < airline_small.n_rows / 2


class TestTranslationIntegration:
    def test_translated_query_narrows_predictor(self, airline_coax):
        query = Rectangle({"AirTime": Interval(100.0, 130.0)})
        translated = airline_coax.translated_query(query)
        group = next(g for g in airline_coax.groups if "AirTime" in g.dependents)
        predictor_interval = translated.interval(group.predictor)
        assert not predictor_interval.is_unbounded

    def test_plan_skips_primary_for_contradictory_query(self, airline_coax):
        group = next(g for g in airline_coax.groups if "AirTime" in g.dependents)
        # Distance very small but AirTime very large: impossible for inliers.
        query = Rectangle(
            {group.predictor: Interval(80.0, 120.0), "AirTime": Interval(700.0, 900.0)}
        )
        use_primary, _ = routing(airline_coax, query)
        assert not use_primary


class TestExplicitGroupsAndConfig:
    @pytest.fixture(scope="class")
    def linear_table(self) -> Table:
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 100.0, size=2_000)
        y = 2.0 * x + rng.uniform(-1.0, 1.0, size=2_000)
        z = rng.uniform(0.0, 50.0, size=2_000)
        return Table({"x": x, "y": y, "z": z})

    def test_explicit_groups_bypass_detection(self, linear_table):
        groups = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.0, 1.0)},
            )
        ]
        index = COAXIndex(linear_table, groups=groups)
        assert index.groups == tuple(groups)
        assert index.primary_ratio == pytest.approx(1.0, abs=0.01)

    def test_max_groups_limits_usage(self, airline_small, fast_detection_config):
        config = COAXConfig(detection=fast_detection_config, max_groups=1)
        index = COAXIndex(airline_small, config=config)
        assert len(index.groups) == 1

    def test_explicit_sort_dimension(self, linear_table):
        groups = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.0, 1.0)},
            )
        ]
        config = COAXConfig(primary_sort_dimension="z")
        index = COAXIndex(linear_table, groups=groups, config=config)
        assert index.primary_index.sort_dimension == "z"

    def test_invalid_sort_dimension_rejected(self, linear_table):
        groups = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.0, 1.0)},
            )
        ]
        # "y" is a predicted attribute, so it cannot be the primary sort dim.
        config = COAXConfig(primary_sort_dimension="y")
        with pytest.raises(IndexBuildError):
            COAXIndex(linear_table, groups=groups, config=config)

    @pytest.mark.parametrize("outlier_kind", ["sorted_cell_grid", "uniform_grid", "rtree", "full_scan"])
    def test_outlier_index_choices(self, outlier_kind, outlier_linear_table, fast_detection_config):
        config = COAXConfig(detection=fast_detection_config, outlier_index=outlier_kind)
        index = COAXIndex(outlier_linear_table, config=config)
        query = Rectangle({"x": Interval(10.0, 60.0), "y": Interval(0.0, 100.0)})
        assert np.array_equal(
            np.sort(index.range_query(query)), outlier_linear_table.select(query)
        )

    def test_low_primary_fraction_warning(self, fast_detection_config):
        rng = np.random.default_rng(12)
        n = 3_000
        x = rng.uniform(0.0, 100.0, size=n)
        y = 2.0 * x + rng.normal(scale=0.5, size=n)
        # 55% outliers: the FD still gets detected on dense centres but the
        # primary index retains less than the configured minimum.
        outliers = rng.random(n) < 0.55
        y[outliers] = rng.uniform(y.min(), y.max(), size=int(outliers.sum()))
        table = Table({"x": x, "y": y})
        config = COAXConfig(detection=fast_detection_config, min_primary_fraction=0.6)
        index = COAXIndex(table, config=config)
        if index.groups:
            assert any("primary index retains only" in w for w in index.build_report.warnings)

    def test_no_groups_degenerates_gracefully(self, fast_coax_config):
        rng = np.random.default_rng(13)
        table = Table(
            {
                "a": rng.uniform(size=1_000),
                "b": rng.normal(size=1_000),
            }
        )
        index = COAXIndex(table, config=fast_coax_config)
        assert len(index.groups) == 0
        assert index.primary_ratio == 1.0
        query = Rectangle({"a": Interval(0.2, 0.8)})
        assert np.array_equal(np.sort(index.range_query(query)), table.select(query))

    def test_dimensions_restriction_drops_foreign_groups(self, airline_small, fast_detection_config):
        groups = [
            FDGroup(
                predictor="Distance",
                dependents=("AirTime",),
                models={"AirTime": LinearFDModel(0.14, 18.0, 20.0, 20.0)},
            )
        ]
        index = COAXIndex(
            airline_small,
            groups=groups,
            dimensions=("DepTime", "ArrTime", "DayOfWeek"),
            config=COAXConfig(detection=fast_detection_config),
        )
        assert index.groups == ()
        assert "dropped FD groups referencing non-indexed attributes" in index.build_report.warnings


class TestIdleSubIndexSkip:
    """A sub-index no query of a batch routes to is never called.

    Outliers live only at ``x > 80``, so a batch can route every query to
    the outlier index alone (the dependent range rules out every inlier)
    or to the primary alone (the rectangle misses the outlier box).  The
    skipped index's counters must not move, and results and facade stats
    must equal the scalar path's.
    """

    OUTLIER_ONLY = [
        Rectangle({"x": Interval(82.0 + i, 90.0), "y": Interval(20.0, 60.0)}) for i in range(6)
    ]
    PRIMARY_ONLY = [
        Rectangle({"x": Interval(5.0 * i, 5.0 * i + 20.0), "z": Interval(0.0, 25.0)})
        for i in range(6)
    ]

    @staticmethod
    def table() -> Table:
        rng = np.random.default_rng(5)
        n = 3_000
        x = rng.uniform(0.0, 100.0, size=n)
        y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
        flip = (x > 80.0) & (rng.random(n) < 0.4)
        y[flip] = rng.uniform(0.0, 250.0, size=int(flip.sum()))
        z = rng.uniform(0.0, 50.0, size=n)
        return Table({"x": x, "y": y, "z": z})

    @staticmethod
    def groups() -> list:
        return [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
            )
        ]

    @staticmethod
    def spy(index, calls):
        """Count calls of the grid batch kernel on one sub-index instance."""
        kernel = index.batch_flat_from_bounds

        def counted(*args):
            calls.append(args[1])
            return kernel(*args)

        index.batch_flat_from_bounds = counted

    @pytest.mark.parametrize("skipped", ["primary", "outlier"])
    def test_skipped_sub_index_is_not_called(self, skipped):
        table = self.table()
        queries = self.OUTLIER_ONLY if skipped == "primary" else self.PRIMARY_ONLY
        batch_index = COAXIndex(table, groups=self.groups())
        scalar_index = COAXIndex(table, groups=self.groups())
        assert batch_index.outlier_box[0]["x"] > 80.0
        for query in queries:
            use_primary, use_outlier = routing(batch_index, query)
            assert use_outlier != use_primary
            assert use_outlier == (skipped == "primary")
            assert len(table.select(query))
        skipped_index = getattr(batch_index, f"{skipped}_index")
        calls = []
        self.spy(skipped_index, calls)
        before = skipped_index.stats.snapshot()
        results = batch_index.batch_range_query(queries)
        assert calls == []
        assert skipped_index.stats == before
        for query, got in zip(queries, results):
            assert np.array_equal(got, scalar_index.range_query(query))
            assert np.array_equal(np.sort(got), table.select(query))
        assert batch_index.stats == scalar_index.stats

    @pytest.mark.parametrize("skipped", ["primary", "outlier"])
    def test_engine_attribution_sums_to_batch_counters(self, skipped):
        table = self.table()
        queries = self.OUTLIER_ONLY if skipped == "primary" else self.PRIMARY_ONLY
        engine = ShardedCOAX(table, config=EngineConfig(n_shards=2), groups=self.groups())
        scalar = ShardedCOAX(table, config=EngineConfig(n_shards=2), groups=self.groups())
        try:
            before = {
                shard_no: getattr(shard, f"{skipped}_index").stats.snapshot()
                for shard_no, shard in enumerate(engine.shards)
            }
            results, per_query = engine.batch_range_query_attributed(queries)
            for shard_no, shard in enumerate(engine.shards):
                assert getattr(shard, f"{skipped}_index").stats == before[shard_no]
            for query, got in zip(queries, results):
                assert np.array_equal(got, scalar.range_query(query))
            total = per_query[0].snapshot()
            for record in per_query[1:]:
                total.merge(record)
            assert total == engine.stats
            assert engine.stats == scalar.stats
        finally:
            engine.shutdown()
            scalar.shutdown()
