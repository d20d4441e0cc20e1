"""Unit tests of the executor specs and their accumulator algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.executors import (
    AGGREGATE_OPS,
    MATERIALIZE,
    Aggregate,
    AggregatePartial,
    MaterializeIds,
    TopK,
    executor_key,
    merge_topk,
    point_distances,
    select_topk,
)


class TestSpecs:
    def test_aggregate_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="op must be one of"):
            Aggregate("median", "x")

    def test_aggregate_requires_column_except_count(self):
        Aggregate("count", None)
        for op in AGGREGATE_OPS:
            if op == "count":
                continue
            with pytest.raises(ValueError, match="needs a value column"):
                Aggregate(op, None)

    def test_topk_requires_exactly_one_mode(self):
        with pytest.raises(ValueError, match="exactly one"):
            TopK(5)
        with pytest.raises(ValueError, match="exactly one"):
            TopK(5, point={"x": 1.0}, column="x")
        assert TopK(5, point={"x": 1.0}).is_knn
        assert not TopK(5, column="x").is_knn

    def test_topk_rejects_bad_k_and_metric(self):
        with pytest.raises(ValueError, match="k must be"):
            TopK(0, column="x")
        with pytest.raises(ValueError, match="metric must be"):
            TopK(3, point={"x": 1.0}, metric="cosine")

    def test_specs_are_frozen(self):
        spec = Aggregate("count", None)
        with pytest.raises(AttributeError):
            spec.op = "sum"


class TestExecutorKey:
    def test_materialize_instances_share_a_key(self):
        assert executor_key(MATERIALIZE) == executor_key(MaterializeIds())

    def test_aggregate_key_separates_op_and_column(self):
        assert executor_key(Aggregate("sum", "x")) == executor_key(Aggregate("sum", "x"))
        assert executor_key(Aggregate("sum", "x")) != executor_key(Aggregate("sum", "y"))
        assert executor_key(Aggregate("sum", "x")) != executor_key(Aggregate("min", "x"))
        assert executor_key(Aggregate("count", None)) != executor_key(MATERIALIZE)

    def test_knn_points_do_not_split_batches(self):
        # Different centres are batch-compatible: the engine loops per
        # point, so the coalescer must not split on them.
        a = TopK(5, point={"x": 1.0})
        b = TopK(5, point={"x": 99.0})
        assert executor_key(a) == executor_key(b)
        assert executor_key(a) != executor_key(TopK(6, point={"x": 1.0}))
        assert executor_key(a) != executor_key(TopK(5, point={"x": 1.0}, metric="linf"))


class TestAggregatePartial:
    def test_identity_folds_and_finalizes(self):
        partial = AggregatePartial.identity(3)
        partial.fold_values(np.array([0, 0, 2]), np.array([1.0, 3.0, -2.0]))
        assert partial.count.tolist() == [2, 0, 1]
        assert partial.finalize(Aggregate("count", None)).tolist() == [2, 0, 1]
        summed = partial.finalize(Aggregate("sum", "v"))
        assert summed.tolist() == [4.0, 0.0, -2.0]
        avg = partial.finalize(Aggregate("avg", "v"))
        assert avg[0] == 2.0 and np.isnan(avg[1]) and avg[2] == -2.0
        low = partial.finalize(Aggregate("min", "v"))
        assert low[0] == 1.0 and np.isnan(low[1]) and low[2] == -2.0

    def test_run_folds_match_value_folds_for_count_and_sum(self):
        values = np.array([2.0, 4.0, 8.0, 16.0])
        by_values = AggregatePartial.identity(2)
        by_values.fold_values(np.array([0, 0, 1, 1]), values)
        by_runs = AggregatePartial.identity(2)
        by_runs.add_run_counts(np.array([0, 1]), np.array([2, 2]))
        by_runs.add_run_totals(np.array([0, 1]), np.array([6.0, 24.0]))
        assert np.array_equal(by_values.count, by_runs.count)
        assert np.array_equal(by_values.total, by_runs.total)

    def test_merge_and_merge_at_agree_with_single_fold(self):
        qids = np.array([0, 1, 1, 2, 2, 2])
        values = np.array([5.0, -1.0, 7.0, 0.0, 2.0, -3.0])
        whole = AggregatePartial.identity(3)
        whole.fold_values(qids, values)
        left = AggregatePartial.identity(3)
        left.fold_values(qids[:3], values[:3])
        right = AggregatePartial.identity(3)
        right.fold_values(qids[3:], values[3:])
        merged = AggregatePartial.identity(3).merge(left).merge(right)
        for spec in (Aggregate("count", None), Aggregate("min", "v"), Aggregate("max", "v")):
            assert np.array_equal(
                merged.finalize(spec), whole.finalize(spec), equal_nan=True
            )
        # merge_at scatters a sub-batch partial into facade slots.
        sub = AggregatePartial.identity(2)
        sub.fold_values(np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]))
        wide = AggregatePartial.identity(4)
        wide.merge_at(np.array([3, 1]), sub)
        assert wide.count.tolist() == [0, 2, 0, 1]
        assert wide.total.tolist() == [0.0, 5.0, 0.0, 1.0]


class TestTopKSelection:
    def test_select_topk_breaks_ties_by_row_id(self):
        keys = np.array([1.0, 0.5, 0.5, 0.5, 2.0])
        ids = np.array([10, 30, 20, 40, 5])
        out_keys, out_ids = select_topk(keys, ids, 2)
        assert out_ids.tolist() == [20, 30]
        assert out_keys.tolist() == [0.5, 0.5]
        _, big_ids = select_topk(keys, ids, 2, largest=True)
        assert big_ids.tolist() == [5, 10]

    def test_select_topk_argpartition_path_keeps_tied_winners(self):
        # >4k candidates triggers the argpartition narrowing; a tie at the
        # cut must still resolve toward the smaller id.
        keys = np.full(100, 1.0)
        keys[:10] = 0.0
        ids = np.arange(100)[::-1].copy()
        _, out_ids = select_topk(keys, ids, 3)
        assert out_ids.tolist() == [90, 91, 92]

    def test_merge_topk_is_exact_over_disjoint_parts(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 8, size=200).astype(np.float64)
        ids = rng.permutation(200).astype(np.int64)
        want_keys, want_ids = select_topk(keys, ids, 17)
        parts = [
            (keys[:50], ids[:50]),
            (keys[50:60], ids[50:60]),
            (np.empty(0), np.empty(0, dtype=np.int64)),
            (keys[60:], ids[60:]),
        ]
        got_keys, got_ids = merge_topk(parts, 17)
        assert np.array_equal(got_ids, want_ids)
        assert np.array_equal(got_keys, want_keys)

    def test_point_distances_l2_and_linf(self):
        columns = {"x": np.array([0.0, 3.0]), "y": np.array([0.0, 4.0])}
        l2 = point_distances(columns, None, {"x": 0.0, "y": 0.0}, "l2")
        assert l2.tolist() == [0.0, 25.0]  # squared distance, monotone in L2
        linf = point_distances(columns, None, {"x": 0.0, "y": 0.0}, "linf")
        assert linf.tolist() == [0.0, 4.0]
        subset = point_distances(columns, np.array([1]), {"x": 0.0}, "l2")
        assert subset.tolist() == [9.0]
