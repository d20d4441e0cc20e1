"""Tests for COAX deletes, in-place updates and reclaiming compaction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.core.delta import DeltaStore
from repro.data.predicates import Interval, Rectangle
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
def index() -> COAXIndex:
    return COAXIndex(make_linear_table(), groups=make_groups())


WIDE = Rectangle({"x": Interval(-1e9, 1e9), "y": Interval(-1e9, 1e9)})


class TestDelete:
    def test_delete_hides_row_immediately(self, index):
        target = 7
        vx = float(make_linear_table().column("x")[target])
        query = Rectangle({"x": Interval(vx - 1e-9, vx + 1e-9)})
        assert target in index.range_query(query)
        assert index.delete(target) is True
        assert target not in index.range_query(query)
        assert index.n_tombstoned == 1
        assert index.n_live == index.n_rows - 1

    def test_delete_is_idempotent(self, index):
        assert index.delete(5) is True
        assert index.delete(5) is False
        assert index.n_tombstoned == 1

    def test_delete_unknown_id_is_noop(self, index):
        assert index.delete(10**9) is False
        assert index.n_tombstoned == 0

    def test_delete_batch_counts_live_rows_only(self, index):
        ids = np.array([1, 2, 3, 2, 10**9], dtype=np.int64)
        assert index.delete_batch(ids) == 3
        assert index.delete_batch(ids) == 0

    def test_delete_batch_is_o_k_not_o_n(self, index):
        """A delete must not touch any directory structure (tombstone only)."""
        before = index.primary_index._offsets.copy()
        index.delete_batch(np.arange(100, dtype=np.int64))
        assert np.array_equal(index.primary_index._offsets, before)

    def test_delete_pending_row_removes_it_in_place(self, index):
        row_id = index.insert({"x": 10.0, "y": 20.0})
        assert index.n_pending == 1
        assert index.delete(row_id) is True
        assert index.n_pending == 0
        assert index.n_tombstoned == 0  # delta deletes never tombstone
        assert row_id not in index.range_query(WIDE)

    def test_delete_where_returns_deleted_ids(self, index):
        query = Rectangle({"x": Interval(20.0, 30.0)})
        expected = np.sort(index.range_query(query))
        deleted = index.delete_where(query)
        assert np.array_equal(np.sort(deleted), expected)
        assert len(index.range_query(query)) == 0

    def test_deleted_ids_are_never_reused(self, index):
        next_id = index.next_row_id
        index.delete_batch(np.arange(50, dtype=np.int64))
        fresh = index.insert({"x": 1.0, "y": 2.0})
        assert fresh == next_id
        index.compact()
        assert index.insert({"x": 1.0, "y": 2.0}) == next_id + 1

    def test_batch_matches_sequential_deletes(self):
        rng = np.random.default_rng(3)
        doomed = rng.choice(2_000, size=300, replace=False).astype(np.int64)
        batch_index = COAXIndex(make_linear_table(), groups=make_groups())
        seq_index = COAXIndex(make_linear_table(), groups=make_groups())
        assert batch_index.delete_batch(doomed) == 300
        assert sum(seq_index.delete(int(i)) for i in doomed) == 300
        for query in (WIDE, Rectangle({"x": Interval(10.0, 60.0)})):
            assert np.array_equal(
                batch_index.range_query(query), seq_index.range_query(query)
            )


class TestUpdate:
    def test_update_changes_values_under_same_id(self, index):
        index.update_batch(
            np.array([4], dtype=np.int64), {"x": [50.0], "y": [100.3]}
        )
        hits = index.range_query(
            Rectangle({"x": Interval(49.9, 50.1), "y": Interval(100.0, 100.6)})
        )
        assert 4 in hits
        assert index.n_pending == 1  # new version lives in the delta store

    def test_update_of_pending_row(self, index):
        row_id = index.insert({"x": 10.0, "y": 20.0})
        index.update_batch(np.array([row_id]), {"x": [60.0], "y": [120.5]})
        assert index.n_pending == 1
        assert row_id in index.range_query(Rectangle({"y": Interval(120.4, 120.6)}))
        assert row_id not in index.range_query(Rectangle({"x": Interval(9.9, 10.1)}))

    def test_update_unknown_or_deleted_id_raises(self, index):
        with pytest.raises(KeyError):
            index.update_batch(np.array([10**9]), {"x": [1.0], "y": [2.0]})
        index.delete(3)
        with pytest.raises(KeyError):
            index.update_batch(np.array([3]), {"x": [1.0], "y": [2.0]})

    def test_update_duplicate_ids_rejected(self, index):
        with pytest.raises(ValueError):
            index.update_batch(
                np.array([1, 1]), {"x": [1.0, 2.0], "y": [2.0, 4.0]}
            )

    def test_update_length_mismatch_rejected(self, index):
        with pytest.raises(ValueError):
            index.update_batch(np.array([1, 2]), {"x": [1.0], "y": [2.0]})

    def test_update_then_delete_removes_the_record(self, index):
        index.update_batch(np.array([9]), {"x": [42.0], "y": [84.1]})
        assert index.delete(9) is True
        assert 9 not in index.range_query(WIDE)
        index.compact()
        assert 9 not in index.range_query(WIDE)

    def test_update_survives_compaction_in_place(self, index):
        index.update_batch(np.array([9]), {"x": [42.0], "y": [84.1]})
        index.compact()
        assert index.n_pending == 0 and index.n_tombstoned == 0
        hits = index.range_query(Rectangle({"x": Interval(41.9, 42.1)}))
        assert 9 in hits
        # The compacted record carries the updated value under its old id.
        columns, ids = index.live_rows(("x",))
        assert float(columns["x"][np.searchsorted(ids, 9)]) == 42.0


class TestReclaimCompaction:
    def test_compact_reclaims_tombstones(self, index):
        rng = np.random.default_rng(5)
        doomed = rng.choice(2_000, size=400, replace=False).astype(np.int64)
        index.delete_batch(doomed)
        survivors_before = np.sort(index.live_row_ids())
        results_before = np.sort(index.range_query(WIDE))
        index.compact()
        assert index.n_tombstoned == 0
        assert index.n_rows == 1_600
        assert np.array_equal(np.sort(index.row_ids), survivors_before)
        assert np.array_equal(np.sort(index.range_query(WIDE)), results_before)

    def test_compact_rebuilds_partition_and_boxes_from_survivors(self, index):
        # Delete every outlier-ish row: the primary ratio must reach 1.0
        # and the outlier box must vanish once reclaimed.
        outlier_ids = index.outlier_index.row_ids
        index.insert({"x": 1.0, "y": 900.0})  # one pending outlier, deleted below
        pending_outlier = index.next_row_id - 1
        index.delete_batch(np.concatenate([outlier_ids, [pending_outlier]]))
        index.compact()
        assert index.primary_ratio == pytest.approx(1.0)
        assert index.partition.n_rows == index.n_rows
        assert index.build_report.n_rows == index.n_rows
        assert index._outlier_box is None

    def test_compact_mixed_crud_matches_ground_truth(self, index):
        rng = np.random.default_rng(8)
        table = make_linear_table()
        ref = {i: (float(table.column("x")[i]), float(table.column("y")[i])) for i in range(2_000)}
        inserted = index.insert_batch({"x": [10.0, 20.0], "y": [20.1, 40.2]})
        ref[int(inserted[0])] = (10.0, 20.1)
        ref[int(inserted[1])] = (20.0, 40.2)
        doomed = rng.choice(2_000, size=200, replace=False).astype(np.int64)
        index.delete_batch(doomed)
        for i in doomed:
            ref.pop(int(i))
        live = np.array(sorted(ref), dtype=np.int64)[:50]
        index.update_batch(live, {"x": np.full(50, 77.0), "y": np.full(50, 154.2)})
        for i in live:
            ref[int(i)] = (77.0, 154.2)
        index.compact()
        for query in (
            WIDE,
            Rectangle({"x": Interval(76.9, 77.1)}),
            Rectangle({"x": Interval(10.0, 60.0), "y": Interval(20.0, 120.0)}),
        ):
            expected = np.array(
                sorted(
                    i
                    for i, (vx, vy) in ref.items()
                    if query.interval("x").contains_value(vx)
                    and query.interval("y").contains_value(vy)
                ),
                dtype=np.int64,
            )
            assert np.array_equal(np.sort(index.range_query(query)), expected)

    def test_compact_with_everything_deleted(self, index):
        index.delete_batch(np.arange(2_000, dtype=np.int64))
        index.compact()
        assert index.n_live == 0
        assert len(index.range_query(WIDE)) == 0
        # The index stays usable for new inserts after a full wipe.
        row_id = index.insert({"x": 5.0, "y": 10.3})
        assert index.range_query(WIDE).tolist() == [row_id]
        index.compact()
        assert index.range_query(WIDE).tolist() == [row_id]

    def test_subset_scoped_index_keeps_ids_through_compact(self):
        table = make_linear_table()
        subset = np.arange(500, 1_500, dtype=np.int64)
        index = COAXIndex(table, groups=make_groups(), row_ids=subset)
        row_id = index.insert({"x": 50.0, "y": 100.2})
        index.delete(700)
        index.compact()
        assert index.n_pending == 0 and index.n_tombstoned == 0
        assert row_id in index.range_query(Rectangle({"x": Interval(49.9, 50.1)}))
        assert 700 not in index.range_query(WIDE)
        assert 800 in index.range_query(WIDE)


class TestAutoCompactOnTombstones:
    def test_fraction_triggers_compaction(self):
        config = COAXConfig(auto_compact_tombstone_fraction=0.25)
        index = COAXIndex(make_linear_table(), config=config, groups=make_groups())
        index.delete_batch(np.arange(400, dtype=np.int64))  # 20% — below
        assert index.n_tombstoned == 400
        index.delete_batch(np.arange(400, 600, dtype=np.int64))  # 30% — over
        assert index.n_tombstoned == 0
        assert index.n_live == 1_400

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            COAXConfig(auto_compact_tombstone_fraction=0.0)
        with pytest.raises(ValueError):
            COAXConfig(auto_compact_tombstone_fraction=1.5)


class TestRowIdLeakRegression:
    def test_failed_append_does_not_burn_ids(self, index):
        """Regression: ids were claimed before append_batch could fail."""
        next_id = index.next_row_id

        def boom(*args, **kwargs):
            raise RuntimeError("append failed")

        original = index.delta.append_batch
        index.delta.append_batch = boom
        with pytest.raises(RuntimeError):
            index.insert_batch({"x": [1.0], "y": [2.0]})
        index.delta.append_batch = original
        assert index.next_row_id == next_id
        assert index.insert({"x": 1.0, "y": 2.0}) == next_id


class TestPendingStatsCounted:
    def test_delta_rows_count_as_examined_on_both_paths(self, index):
        index.insert_batch({"x": np.full(100, 10.0), "y": np.full(100, 20.0)})
        queries = [
            Rectangle({"x": Interval(5.0, 15.0)}),
            Rectangle({"x": Interval(5.0, 1.0)}),  # empty: scans nothing
            Rectangle(),
        ]
        index.stats.reset()
        for query in queries:
            index.range_query(query)
        seq = (
            index.stats.queries,
            index.stats.rows_examined,
            index.stats.rows_matched,
            index.stats.cells_visited,
        )
        index.stats.reset()
        index.batch_range_query(queries)
        batch = (
            index.stats.queries,
            index.stats.rows_examined,
            index.stats.rows_matched,
            index.stats.cells_visited,
        )
        assert seq == batch
        # Two live queries each scanned the 100-row pending buffer.
        sub_examined = seq[1] - 2 * 100
        index.stats.reset()
        index.compact()
        for query in queries:
            index.range_query(query)
        assert index.stats.rows_examined >= sub_examined


class TestDeltaStoreDeletes:
    def test_delete_rows_compacts_in_place_and_decrements_counts(self):
        groups = make_groups()
        store = DeltaStore(("x", "y"), groups)
        store.append_batch(
            {"x": np.array([1.0, 2.0, 3.0]), "y": np.array([2.0, 4.0, 900.0])},
            np.array([10, 11, 12]),
        )
        assert store.per_model_inlier_counts == {"x->y": 2}
        assert store.delete_rows(np.array([10, 99])) == 1
        assert store.n_pending == 2
        assert store.row_ids.tolist() == [11, 12]
        assert store.per_model_inlier_counts == {"x->y": 1}
        assert store.inlier_mask.tolist() == [True, False]
        assert store.column("x").tolist() == [2.0, 3.0]
        assert store.delete_rows(np.array([10])) == 0

    def test_load_state_does_not_reevaluate_models(self):
        groups = make_groups()
        store = DeltaStore(("x", "y"), groups)
        store.append_batch(
            {"x": np.array([1.0, 2.0]), "y": np.array([2.0, 700.0])},
            np.array([0, 1]),
        )
        payload = store.state()
        restored = DeltaStore(("x", "y"), groups)
        model = groups[0].models["y"]
        calls = {"n": 0}
        original = type(model).within_margin

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        type(model).within_margin = counting
        try:
            restored.load_state(payload)
        finally:
            type(model).within_margin = original
        assert calls["n"] == 0
        assert restored.per_model_inlier_counts == store.per_model_inlier_counts
        assert restored.inlier_mask.tolist() == store.inlier_mask.tolist()

    def test_legacy_state_without_model_masks_still_loads(self):
        groups = make_groups()
        store = DeltaStore(("x", "y"), groups)
        store.append_batch(
            {"x": np.array([1.0, 2.0]), "y": np.array([2.0, 700.0])},
            np.array([0, 1]),
        )
        payload = {
            key: value
            for key, value in store.state().items()
            if not key.startswith("model::")
        }
        restored = DeltaStore(("x", "y"), groups)
        restored.load_state(payload)
        assert restored.per_model_inlier_counts == store.per_model_inlier_counts
        assert restored.inlier_mask.tolist() == store.inlier_mask.tolist()
