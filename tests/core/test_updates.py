"""Tests for COAX's delta-store update path (insert_batch / compact)."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.airline import AirlineConfig, generate_airline_dataset
from repro.data.osm import OSMConfig, generate_osm_dataset
from repro.data.executors import Aggregate
from repro.data.predicates import Interval, Rectangle
from repro.data.queries import WorkloadConfig, generate_knn_queries
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel


def make_linear_table(n: int = 2_000, seed: int = 21) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 100.0, size=n)
    y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
    return Table({"x": x, "y": y})


def make_groups() -> list:
    return [
        FDGroup(
            predictor="x",
            dependents=("y",),
            models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
        )
    ]


@pytest.fixture()
def updatable_index() -> COAXIndex:
    return COAXIndex(make_linear_table(), groups=make_groups())


class TestInsert:
    def test_inlier_insert_routes_to_primary_buffer(self, updatable_index):
        row_id = updatable_index.insert({"x": 10.0, "y": 20.5})
        assert row_id == make_linear_table().n_rows
        assert updatable_index.n_pending == 1
        assert updatable_index.n_pending_primary == 1
        assert updatable_index.n_pending_outlier == 0

    def test_outlier_insert_routes_to_outlier_buffer(self, updatable_index):
        updatable_index.insert({"x": 10.0, "y": 500.0})
        assert updatable_index.n_pending_outlier == 1
        assert updatable_index.n_pending_primary == 0

    def test_missing_attribute_rejected(self, updatable_index):
        with pytest.raises(ValueError):
            updatable_index.insert({"x": 1.0})

    def test_inserted_records_are_queryable(self, updatable_index):
        row_id = updatable_index.insert({"x": 10.0, "y": 20.0})
        result = updatable_index.range_query(
            Rectangle({"x": Interval(9.9, 10.1), "y": Interval(19.9, 20.1)})
        )
        assert row_id in result

    def test_inserted_outliers_are_queryable(self, updatable_index):
        row_id = updatable_index.insert({"x": 10.0, "y": 900.0})
        result = updatable_index.range_query(Rectangle({"y": Interval(899.0, 901.0)}))
        assert result.tolist() == [row_id]

    def test_row_ids_are_sequential(self, updatable_index):
        first = updatable_index.insert({"x": 1.0, "y": 2.0})
        second = updatable_index.insert({"x": 2.0, "y": 4.0})
        assert second == first + 1

    def test_pending_counts(self, updatable_index):
        assert updatable_index.n_pending == 0
        updatable_index.insert({"x": 1.0, "y": 2.0})
        updatable_index.insert({"x": 1.0, "y": 400.0})
        assert updatable_index.n_pending == 2


class TestInsertBatch:
    def test_batch_of_column_arrays(self, updatable_index):
        ids = updatable_index.insert_batch(
            {"x": np.array([1.0, 2.0, 3.0]), "y": np.array([2.0, 4.0, 900.0])}
        )
        assert ids.tolist() == [2_000, 2_001, 2_002]
        assert updatable_index.n_pending == 3
        assert updatable_index.n_pending_primary == 2
        assert updatable_index.n_pending_outlier == 1

    def test_batch_of_table(self, updatable_index):
        batch = Table({"x": np.array([5.0]), "y": np.array([10.3])})
        ids = updatable_index.insert_batch(batch)
        assert len(ids) == 1
        assert updatable_index.n_pending == 1

    def test_batch_of_record_dicts(self, updatable_index):
        ids = updatable_index.insert_batch(
            [{"x": 1.0, "y": 2.0}, {"x": 2.0, "y": 4.0}]
        )
        assert len(ids) == 2

    def test_empty_batch(self, updatable_index):
        ids = updatable_index.insert_batch([])
        assert len(ids) == 0
        assert updatable_index.n_pending == 0

    def test_mismatched_column_lengths_rejected(self, updatable_index):
        with pytest.raises(ValueError):
            updatable_index.insert_batch(
                {"x": np.array([1.0, 2.0]), "y": np.array([2.0])}
            )

    def test_missing_column_rejected(self, updatable_index):
        with pytest.raises(ValueError):
            updatable_index.insert_batch({"x": np.array([1.0])})

    def test_batch_matches_sequential_inserts(self):
        """Batch insert and row-at-a-time insert are observationally equal."""
        rng = np.random.default_rng(31)
        bx = rng.uniform(0.0, 100.0, size=500)
        by = 2.0 * bx + rng.uniform(-5.0, 5.0, size=500)
        batch_index = COAXIndex(make_linear_table(), groups=make_groups())
        seq_index = COAXIndex(make_linear_table(), groups=make_groups())
        batch_ids = batch_index.insert_batch({"x": bx, "y": by})
        seq_ids = np.array(
            [seq_index.insert({"x": float(x), "y": float(y)}) for x, y in zip(bx, by)]
        )
        assert np.array_equal(batch_ids, seq_ids)
        assert batch_index.n_pending_primary == seq_index.n_pending_primary
        assert batch_index.n_pending_outlier == seq_index.n_pending_outlier
        for query in (
            Rectangle({"x": Interval(20.0, 60.0)}),
            Rectangle({"y": Interval(40.0, 121.5)}),
            Rectangle({"x": Interval(0.0, 100.0), "y": Interval(-1e6, 1e6)}),
        ):
            assert np.array_equal(
                batch_index.range_query(query), seq_index.range_query(query)
            )

    def test_pending_scan_is_vectorised(self, updatable_index, monkeypatch):
        """A query over pending rows must not fall back to per-row matching."""
        rng = np.random.default_rng(32)
        n = 10_000
        bx = rng.uniform(0.0, 100.0, size=n)
        updatable_index.insert_batch({"x": bx, "y": 2.0 * bx})
        calls = {"n": 0}
        original = Rectangle.matches_row

        def counting(self, row):
            calls["n"] += 1
            return original(self, row)

        monkeypatch.setattr(Rectangle, "matches_row", counting)
        result = updatable_index.range_query(Rectangle({"x": Interval(10.0, 20.0)}))
        assert len(result) > 0
        assert calls["n"] == 0

    def test_pending_batch_match_reads_no_rectangles(self, updatable_index, monkeypatch):
        """A batch over pending rows is matched on its bound matrices: the
        delta store never reads a query's bounds back out of a Rectangle."""
        rng = np.random.default_rng(33)
        bx = rng.uniform(0.0, 100.0, size=10_000)
        updatable_index.insert_batch({"x": bx, "y": 2.0 * bx})
        callers = []
        original = Rectangle.interval

        def recording(self, dim):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return original(self, dim)

        monkeypatch.setattr(Rectangle, "interval", recording)
        queries = [
            Rectangle({"x": Interval(10.0, 20.0)}),
            Rectangle({"y": Interval(50.0, 90.0)}),
            Rectangle({"x": Interval(30.0, 60.0), "y": Interval(70.0, 100.0)}),
            Rectangle({"x": Interval(5.0, 1.0)}),
        ]
        assert all(len(ids) > 0 for ids in updatable_index.batch_range_query(queries)[:3])
        assert updatable_index.batch_aggregate(queries, Aggregate("sum", "y"))[0] > 0.0
        assert "repro.core.delta" not in callers


class TestCompact:
    def test_compact_without_pending_returns_self(self, updatable_index):
        assert updatable_index.compact() is updatable_index

    def test_compact_is_in_place_and_returns_self(self, updatable_index):
        updatable_index.insert({"x": 50.0, "y": 100.2})
        compacted = updatable_index.compact()
        assert compacted is updatable_index
        assert updatable_index.n_pending == 0

    def test_compact_folds_pending_into_main_structures(self, updatable_index):
        inlier_id = updatable_index.insert({"x": 50.0, "y": 100.2})
        outlier_id = updatable_index.insert({"x": 50.0, "y": 700.0})
        n_before = updatable_index.n_rows
        compacted = updatable_index.compact()
        assert compacted.n_pending == 0
        assert compacted.n_rows == n_before + 2
        inlier_hits = compacted.range_query(
            Rectangle({"x": Interval(49.9, 50.1), "y": Interval(100.0, 100.4)})
        )
        outlier_hits = compacted.range_query(Rectangle({"y": Interval(699.0, 701.0)}))
        assert inlier_id in inlier_hits
        assert outlier_id in outlier_hits

    def test_compact_preserves_row_ids(self, updatable_index):
        row_id = updatable_index.insert({"x": 42.0, "y": 84.3})
        updatable_index.compact()
        hits = updatable_index.range_query(
            Rectangle({"x": Interval(41.9, 42.1), "y": Interval(84.0, 84.6)})
        )
        assert row_id in hits

    def test_compact_preserves_exactness(self, updatable_index):
        rng = np.random.default_rng(22)
        bx = rng.uniform(0.0, 100.0, size=50)
        by = 2.0 * bx + rng.uniform(-1.0, 1.0, size=50)
        updatable_index.insert_batch({"x": bx, "y": by})
        updatable_index.compact()
        combined = Table(
            {
                "x": np.concatenate([make_linear_table().column("x"), bx]),
                "y": np.concatenate([make_linear_table().column("y"), by]),
            }
        )
        query = Rectangle({"x": Interval(20.0, 60.0), "y": Interval(40.0, 121.5)})
        assert np.array_equal(
            np.sort(updatable_index.range_query(query)), combined.select(query)
        )

    def test_compact_keeps_learned_groups(self, updatable_index):
        updatable_index.insert({"x": 1.0, "y": 2.0})
        compacted = updatable_index.compact()
        assert len(compacted.groups) == 1
        assert compacted.groups[0].predictor == "x"

    def test_interleaved_insert_compact_cycles(self, updatable_index):
        """Correctness across several insert/compact/insert rounds."""
        rng = np.random.default_rng(33)
        all_x = [make_linear_table().column("x")]
        all_y = [make_linear_table().column("y")]
        query = Rectangle({"x": Interval(10.0, 90.0), "y": Interval(25.0, 175.0)})
        for round_no in range(4):
            bx = rng.uniform(0.0, 100.0, size=200)
            by = 2.0 * bx + rng.uniform(-10.0, 10.0, size=200)
            updatable_index.insert_batch({"x": bx, "y": by})
            all_x.append(bx)
            all_y.append(by)
            if round_no % 2 == 0:
                updatable_index.compact()
            combined = Table(
                {"x": np.concatenate(all_x), "y": np.concatenate(all_y)}
            )
            assert np.array_equal(
                np.sort(updatable_index.range_query(query)), combined.select(query)
            ), f"mismatch in round {round_no}"
        assert updatable_index.n_rows + updatable_index.n_pending == 2_000 + 4 * 200

    def test_compact_updates_partition_and_report(self, updatable_index):
        ratio_before = updatable_index.primary_ratio
        updatable_index.insert_batch(
            {"x": np.full(500, 10.0), "y": np.full(500, 999.0)}  # all outliers
        )
        updatable_index.compact()
        assert updatable_index.primary_ratio < ratio_before
        assert updatable_index.build_report.n_rows == updatable_index.n_rows
        assert updatable_index.partition.n_rows == updatable_index.n_rows

    def test_compact_with_subset_row_ids_falls_back_to_rebuild(self):
        """An index over a table subset still compacts correctly (renumbering)."""
        table = make_linear_table()
        subset = np.arange(0, 1_000, dtype=np.int64)
        index = COAXIndex(table, groups=make_groups(), row_ids=subset)
        index.insert({"x": 50.0, "y": 100.2})
        index.compact()
        assert index.n_pending == 0
        assert index.n_rows == 1_001
        hits = index.range_query(
            Rectangle({"x": Interval(49.9, 50.1), "y": Interval(100.0, 100.4)})
        )
        assert len(hits) >= 1


class TestZeroGroupUpdates:
    """With no FD groups COAX degenerates to its primary index — updates must
    still work (every record is an inlier)."""

    @pytest.fixture()
    def groupless_index(self) -> COAXIndex:
        return COAXIndex(make_linear_table(), groups=[])

    def test_insert_routes_to_primary(self, groupless_index):
        groupless_index.insert({"x": 10.0, "y": 500.0})
        assert groupless_index.n_pending_primary == 1
        assert groupless_index.n_pending_outlier == 0

    def test_query_and_compact(self, groupless_index):
        rng = np.random.default_rng(34)
        bx = rng.uniform(0.0, 100.0, size=300)
        by = rng.uniform(0.0, 1_000.0, size=300)
        groupless_index.insert_batch({"x": bx, "y": by})
        query = Rectangle({"x": Interval(25.0, 75.0), "y": Interval(0.0, 400.0)})
        combined = Table(
            {
                "x": np.concatenate([make_linear_table().column("x"), bx]),
                "y": np.concatenate([make_linear_table().column("y"), by]),
            }
        )
        assert np.array_equal(
            np.sort(groupless_index.range_query(query)), combined.select(query)
        )
        groupless_index.compact()
        assert groupless_index.n_pending == 0
        assert np.array_equal(
            np.sort(groupless_index.range_query(query)), combined.select(query)
        )


class TestAutoCompaction:
    def test_threshold_triggers_compaction(self):
        config = COAXConfig(auto_compact_threshold=100)
        index = COAXIndex(make_linear_table(), config=config, groups=make_groups())
        rng = np.random.default_rng(35)
        bx = rng.uniform(0.0, 100.0, size=99)
        index.insert_batch({"x": bx, "y": 2.0 * bx})
        assert index.n_pending == 99
        index.insert({"x": 1.0, "y": 2.0})
        assert index.n_pending == 0
        assert index.n_rows == 2_000 + 100

    def test_none_threshold_never_compacts(self, updatable_index):
        rng = np.random.default_rng(36)
        bx = rng.uniform(0.0, 100.0, size=5_000)
        updatable_index.insert_batch({"x": bx, "y": 2.0 * bx})
        assert updatable_index.n_pending == 5_000

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            COAXConfig(auto_compact_threshold=0)


class TestIncrementalEqualsRebuild:
    """Acceptance criterion: incremental compact() produces query results
    identical to a from-scratch rebuild on the Airline and OSM datasets."""

    @pytest.mark.parametrize("dataset", ["airline", "osm"])
    def test_identical_results(self, dataset, fast_coax_config):
        if dataset == "airline":
            table, _ = generate_airline_dataset(AirlineConfig(n_rows=5_000, seed=41))
            extra, _ = generate_airline_dataset(AirlineConfig(n_rows=6_000, seed=42))
        else:
            table, _ = generate_osm_dataset(OSMConfig(n_rows=5_000, seed=41))
            extra, _ = generate_osm_dataset(OSMConfig(n_rows=6_000, seed=42))
        stream = extra.take(np.arange(5_000, 6_000, dtype=np.int64))
        index = COAXIndex(table, config=fast_coax_config)
        index.insert_batch(stream)
        index.compact()
        combined = table.concat(stream)
        rebuilt = COAXIndex(
            combined, config=fast_coax_config, groups=list(index.groups)
        )
        workload = generate_knn_queries(
            combined, WorkloadConfig(n_queries=12, k_neighbours=150, seed=43)
        )
        for query in workload:
            assert np.array_equal(
                np.sort(index.range_query(query)),
                np.sort(rebuilt.range_query(query)),
            )
        # And both agree with ground truth.
        for query in workload:
            assert np.array_equal(
                np.sort(index.range_query(query)), combined.select(query)
            )
