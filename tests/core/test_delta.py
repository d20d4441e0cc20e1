"""Unit tests for the columnar delta store (repro.core.delta)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import DeltaStore, NonFiniteBatchError, coerce_batch
from repro.data.executors import Aggregate, AggregatePartial
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel


def make_store(groups=None, **kwargs) -> DeltaStore:
    if groups is None:
        groups = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.0, 1.0)},
            )
        ]
    return DeltaStore(("x", "y"), groups, **kwargs)


def batch(xs, ys):
    return {
        "x": np.asarray(xs, dtype=np.float64),
        "y": np.asarray(ys, dtype=np.float64),
    }


class TestCoerceBatch:
    def test_table_input(self):
        table = Table({"x": np.array([1.0]), "y": np.array([2.0])})
        columns = coerce_batch(table, ("x", "y"))
        assert columns["x"].tolist() == [1.0]

    def test_mapping_input_casts_dtype(self):
        columns = coerce_batch({"x": [1, 2], "y": [3, 4]}, ("x", "y"))
        assert columns["x"].dtype == np.float64

    def test_records_input(self):
        columns = coerce_batch([{"x": 1.0, "y": 2.0}], ("x", "y"))
        assert columns["y"].tolist() == [2.0]

    def test_extra_attributes_ignored(self):
        columns = coerce_batch({"x": [1.0], "y": [2.0], "z": [9.0]}, ("x", "y"))
        assert set(columns) == {"x", "y"}

    def test_later_record_missing_attribute_raises_value_error(self):
        with pytest.raises(ValueError):
            coerce_batch([{"x": 1.0, "y": 2.0}, {"x": 3.0}], ("x", "y"))

    def test_missing_column_raises(self):
        with pytest.raises(ValueError):
            coerce_batch({"x": [1.0]}, ("x", "y"))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            coerce_batch({"x": [1.0, 2.0], "y": [1.0]}, ("x", "y"))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_with_typed_error(self, poison):
        """NaN/inf record values raise the typed error naming the column."""
        with pytest.raises(NonFiniteBatchError) as excinfo:
            coerce_batch({"x": [1.0, poison], "y": [1.0, 2.0]}, ("x", "y"))
        assert excinfo.value.attribute == "x"
        # Subclasses ValueError so existing handlers keep working.
        assert isinstance(excinfo.value, ValueError)

    def test_non_finite_record_rejected(self):
        with pytest.raises(NonFiniteBatchError):
            coerce_batch([{"x": float("nan"), "y": 2.0}], ("x", "y"))


class TestAppendAndGrowth:
    def test_append_routes_batch(self):
        store = make_store()
        mask = store.append_batch(batch([1.0, 2.0], [2.5, 90.0]), np.array([10, 11]))
        assert mask.tolist() == [True, False]
        assert store.n_pending == 2
        assert store.n_pending_primary == 1
        assert store.n_pending_outlier == 1

    def test_geometric_growth(self):
        store = make_store(initial_capacity=4)
        assert store.capacity == 4
        for i in range(20):
            store.append_batch(batch([float(i)], [2.0 * i]), np.array([i]))
        assert store.n_pending == 20
        assert store.capacity >= 20
        # Growth is geometric: far fewer reallocations than appends.
        assert store.capacity < 80

    def test_large_batch_in_one_reserve(self):
        store = make_store(initial_capacity=2)
        n = 10_000
        xs = np.linspace(0.0, 100.0, n)
        store.append_batch(batch(xs, 2.0 * xs), np.arange(n))
        assert store.n_pending == n
        assert np.array_equal(store.column("x"), xs)

    def test_row_ids_preserved(self):
        store = make_store()
        store.append_batch(batch([1.0], [2.0]), np.array([42]))
        assert store.row_ids.tolist() == [42]

    def test_empty_append_is_noop(self):
        store = make_store()
        mask = store.append_batch(batch([], []), np.empty(0, dtype=np.int64))
        assert len(mask) == 0
        assert store.n_pending == 0

    def test_clear_keeps_capacity(self):
        store = make_store(initial_capacity=4)
        xs = np.arange(100, dtype=np.float64)
        store.append_batch(batch(xs, 2.0 * xs), np.arange(100))
        capacity = store.capacity
        store.clear()
        assert store.n_pending == 0
        assert store.capacity == capacity

    def test_no_groups_everything_is_inlier(self):
        store = make_store(groups=[])
        mask = store.append_batch(batch([1.0, 2.0], [500.0, -500.0]), np.array([0, 1]))
        assert mask.tolist() == [True, True]


class TestScan:
    def test_scan_matches_brute_force(self):
        rng = np.random.default_rng(7)
        n = 5_000
        xs = rng.uniform(0.0, 100.0, size=n)
        ys = rng.uniform(0.0, 250.0, size=n)
        store = make_store()
        store.append_batch(batch(xs, ys), np.arange(n))
        query = Rectangle({"x": Interval(10.0, 40.0), "y": Interval(50.0, 150.0)})
        expected = np.flatnonzero(
            (xs >= 10.0) & (xs <= 40.0) & (ys >= 50.0) & (ys <= 150.0)
        )
        assert np.array_equal(store.scan(query), expected)

    def test_scan_empty_store(self):
        store = make_store()
        assert len(store.scan(Rectangle({"x": Interval(0.0, 1.0)}))) == 0

    def test_scan_empty_query(self):
        store = make_store()
        store.append_batch(batch([1.0], [2.0]), np.array([0]))
        assert len(store.scan(Rectangle({"x": Interval.empty()}))) == 0

    def test_scan_unknown_attribute_raises(self):
        store = make_store()
        store.append_batch(batch([1.0], [2.0]), np.array([0]))
        with pytest.raises(KeyError):
            store.scan(Rectangle({"z": Interval(0.0, 1.0)}))

    def test_scan_returns_sorted_row_ids(self):
        store = make_store()
        store.append_batch(batch([5.0, 1.0, 3.0], [10.0, 2.0, 6.0]), np.array([30, 10, 20]))
        hits = store.scan(Rectangle({"x": Interval(0.0, 10.0)}))
        assert hits.tolist() == [10, 20, 30]


def mixed_queries(rng, n_queries: int) -> list:
    """Empty, unconstrained and x-only / y-only / x-and-y rectangles."""
    queries = []
    for i in range(n_queries):
        x_low, y_low = rng.uniform(0.0, 100.0), rng.uniform(0.0, 250.0)
        x = Interval(x_low, x_low + rng.uniform(0.0, 40.0))
        y = Interval(y_low, y_low + rng.uniform(0.0, 100.0))
        kind = i % 10
        if kind == 0:
            queries.append(Rectangle({"x": x, "y": Interval.empty()}))
        elif kind == 1:
            queries.append(Rectangle.unconstrained())
        elif kind % 3 == 0:
            queries.append(Rectangle({"x": x}))
        elif kind % 3 == 1:
            queries.append(Rectangle({"y": y}))
        else:
            queries.append(Rectangle({"x": x, "y": y}))
    return queries


def brute_force_mask(store: DeltaStore, query: Rectangle) -> np.ndarray:
    """Rows of the buffer matching ``query``, one explicit check per bound."""
    mask = np.full(store.n_pending, not query.is_empty)
    for dim, interval in query.items():
        column = store.column(dim)
        mask &= (column >= interval.low) & (column <= interval.high)
    return mask


class TestBatchMatch:
    """``scan_batch`` and ``fold_aggregate_batch`` share one blocked match;
    both must agree with a brute-force mask over the buffer."""

    N_QUERIES = 300

    def _store(self):
        rng = np.random.default_rng(19)
        n = 800
        store = make_store()
        store.append_batch(
            batch(rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 250.0, n)),
            np.arange(1_000, 1_000 + n),
        )
        return store, mixed_queries(rng, self.N_QUERIES)

    def _check(self, store, queries):
        # More non-empty queries than one broadcast block holds.
        assert sum(not query.is_empty for query in queries) > store.SCAN_BATCH_BLOCK
        masks = [brute_force_mask(store, query) for query in queries]
        for got, mask in zip(store.scan_batch(queries), masks):
            assert np.array_equal(got, np.sort(store.row_ids[mask]))
        values = store.column("y")
        for spec in (
            Aggregate("count"),
            Aggregate("sum", "y"),
            Aggregate("min", "y"),
            Aggregate("max", "y"),
        ):
            partial = AggregatePartial.identity(len(queries))
            store.fold_aggregate_batch(queries, spec, partial)
            got = partial.finalize(spec)
            for i, mask in enumerate(masks):
                if spec.op == "count":
                    assert got[i] == np.count_nonzero(mask)
                elif spec.op == "sum":
                    assert got[i] == pytest.approx(values[mask].sum(), rel=1e-12)
                elif not mask.any():
                    assert np.isnan(got[i])
                else:
                    assert got[i] == getattr(np, spec.op)(values[mask])

    def test_batch_match_equals_brute_force(self):
        store, queries = self._store()
        self._check(store, queries)

    def test_batch_match_after_delete_rows(self):
        store, queries = self._store()
        assert store.delete_rows(store.row_ids[::3].copy()) > 0
        self._check(store, queries)

    def test_batch_match_on_empty_store(self):
        store = make_store()
        queries = mixed_queries(np.random.default_rng(3), 5)
        assert all(len(ids) == 0 for ids in store.scan_batch(queries))
        partial = AggregatePartial.identity(len(queries))
        store.fold_aggregate_batch(queries, Aggregate("count"), partial)
        assert partial.count.tolist() == [0] * len(queries)


class TestStateRoundTrip:
    def test_state_load_state(self):
        store = make_store()
        store.append_batch(batch([1.0, 2.0], [2.0, 99.0]), np.array([7, 8]))
        payload = store.state()
        restored = make_store()
        restored.load_state(payload)
        assert restored.n_pending == 2
        assert restored.row_ids.tolist() == [7, 8]
        assert restored.inlier_mask.tolist() == store.inlier_mask.tolist()
        assert np.array_equal(restored.column("y"), store.column("y"))

    def test_pending_table(self):
        store = make_store()
        assert store.pending_table() is None
        store.append_batch(batch([1.0], [2.0]), np.array([0]))
        table = store.pending_table()
        assert isinstance(table, Table)
        assert table.n_rows == 1


class TestIncrementalHull:
    def test_box_tracks_appended_rows(self):
        store = make_store()
        store.append_batch(batch([5.0, 1.0], [10.0, 2.0]), np.array([0, 1]))
        lows, highs = store.box
        assert lows == {"x": 1.0, "y": 2.0}
        assert highs == {"x": 5.0, "y": 10.0}

    def test_drain_resets_hull(self):
        """Regression: deletes that empty the buffer must drop the hull.

        The stale box used to survive a full drain, so the next append
        unioned into it and the hull stayed permanently inflated —
        silently degrading engine-level shard pruning forever.
        """
        store = make_store()
        store.append_batch(batch([1_000.0], [2_000.0]), np.array([0]))
        assert store.delete_rows(np.array([0])) == 1
        assert store.box is None
        assert store._box is None  # the internal state, not just the property
        store.append_batch(batch([1.0, 2.0], [2.0, 4.0]), np.array([1, 2]))
        lows, highs = store.box
        assert highs["x"] == 2.0  # no trace of the drained far-away row
        assert highs["y"] == 4.0

    def test_partial_delete_keeps_conservative_hull(self):
        store = make_store()
        store.append_batch(batch([1.0, 100.0], [2.0, 200.0]), np.array([0, 1]))
        store.delete_rows(np.array([1]))
        lows, highs = store.box
        assert highs["x"] == 100.0  # conservative: may over-cover

    def test_nan_append_cannot_poison_the_hull(self):
        """Regression: a NaN column must not collapse the hull to NaN.

        NaN box comparisons are all False, so a NaN hull would let shard
        pruning skip a shard holding live pending rows.  Direct appends
        (the path persistence restore uses) fall back to fmin/fmax and,
        for an all-NaN column, to the unbounded interval — over-covering
        is fine, under-covering never is.
        """
        store = make_store(groups=[])
        store.append_batch(
            {"x": np.array([1.0, np.nan]), "y": np.array([2.0, 4.0])},
            np.array([0, 1]),
        )
        lows, highs = store.box
        assert lows["x"] == 1.0 and highs["x"] == 1.0
        assert lows["y"] == 2.0 and highs["y"] == 4.0
        store.append_batch(
            {"x": np.array([2.0]), "y": np.array([np.nan])}, np.array([2])
        )
        lows, highs = store.box
        # All-NaN extension: that attribute's hull is unbounded, not NaN.
        assert lows["x"] == 1.0 and highs["x"] == 2.0
        assert lows["y"] == -np.inf and highs["y"] == np.inf


class TestSetGroups:
    def test_swaps_models_for_future_routing(self):
        store = make_store()
        shifted = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 50.0, 1.0, 1.0)},
            )
        ]
        store.append_batch(batch([1.0], [52.0]), np.array([0]))
        assert store.inlier_mask.tolist() == [False]
        store.set_groups(shifted)
        store.append_batch(batch([1.0], [52.0]), np.array([1]))
        assert store.inlier_mask.tolist() == [False, True]

    def test_changed_model_set_rejected(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.set_groups([])


class TestPerModelCounts:
    def test_counts_accumulate_and_clear(self):
        store = make_store()
        store.append_batch(batch([1.0, 2.0], [2.5, 90.0]), np.array([0, 1]))
        store.append_batch(batch([3.0], [6.2]), np.array([2]))
        assert store.per_model_inlier_counts == {"x->y": 2}
        store.clear()
        assert store.per_model_inlier_counts == {"x->y": 0}
