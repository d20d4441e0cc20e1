"""Parity of the batch planning/translation/merge forms with their scalar twins.

The array-level batch machinery (``translate_bounds_batch`` /
``plan_query_flags`` / ``merge_flat_row_ids``) is exercised end to end by
the batch equivalence suite through ``COAXIndex.batch_range_query``.  These
tests pin each batch form to its scalar counterpart, query by query, so the
two can never drift apart:

* ``plan_query_flags`` (fed by ``translate_bounds_batch``) == the
  ``use_primary`` / ``use_outlier`` decisions of ``plan_query`` per query
* ``translate_query_batch(qs)``   == ``[translate_query(q) for q in qs]``
* ``translate_bounds_batch``'s predictor bounds == the scalar interval per query
* ``merge_flat_row_ids``          == ``merge_row_ids`` per query
* ``batch_overlaps_boxes``        == ``Rectangle.overlaps_box`` per (box, query)
* the sharded engine's stacked shard pruning == ``plan_query_flags`` plus
  the delta-box check, shard by shard
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import ShardedCOAX
from repro.core.planner import (
    batch_overlaps_box,
    batch_overlaps_boxes,
    plan_query,
    plan_query_flags,
)
from repro.core.query_translation import (
    translate_bounds_batch,
    translate_query,
    translate_query_batch,
    translated_predictor_interval,
)
from repro.core.results import merge_flat_row_ids, merge_row_ids
from repro.data.predicates import Interval, Rectangle, batch_bounds, batch_live
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel, SplineFDModel, SplineSegment


def make_groups() -> list:
    """One linear group and one spline group (scalar-fallback path)."""
    linear = FDGroup(
        predictor="x",
        dependents=("y",),
        models={"y": LinearFDModel(slope=1.7, intercept=3.0, eps_lb=0.5, eps_ub=0.8)},
    )
    spline = FDGroup(
        predictor="u",
        dependents=("v",),
        models={
            "v": SplineFDModel(
                [
                    SplineSegment(0.0, 50.0, 2.0, 0.0),
                    SplineSegment(50.0, 100.0, -1.0, 150.0),
                ],
                eps_lb=1.0,
                eps_ub=1.0,
            )
        },
    )
    return [linear, spline]


@st.composite
def query_batches(draw):
    """Random batches over the four attributes the groups know about."""
    n_queries = draw(st.integers(min_value=1, max_value=6))
    queries = []
    for _ in range(n_queries):
        intervals = {}
        for name in ("x", "y", "u", "v", "other"):
            if draw(st.booleans()):
                low = draw(st.floats(-150.0, 150.0))
                width = draw(st.floats(-10.0, 120.0))  # negative width = empty
                intervals[name] = Interval(low, low + width)
        queries.append(Rectangle(intervals))
    return queries


BOXES = {
    "primary": ({"x": 0.0, "u": 0.0, "other": 0.0}, {"x": 90.0, "u": 90.0, "other": 50.0}),
    "outlier": ({"x": -20.0, "u": -20.0, "other": -20.0}, {"x": 120.0, "u": 120.0, "other": 120.0}),
}


class TestPlanQueriesParity:
    @given(query_batches(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_planner(self, queries, with_primary, with_outlier):
        groups = make_groups()
        primary_box = BOXES["primary"] if with_primary else None
        outlier_box = BOXES["outlier"] if with_outlier else None
        n_queries = len(queries)
        bounds = batch_bounds(queries)
        translated, no_inlier = translate_bounds_batch(bounds, n_queries, groups)
        use_primary, use_outlier = plan_query_flags(
            bounds,
            translated,
            no_inlier,
            n_queries,
            primary_box=primary_box,
            outlier_box=outlier_box,
        )
        for i, query in enumerate(queries):
            scalar = plan_query(
                query, groups, primary_box=primary_box, outlier_box=outlier_box
            )
            assert bool(use_primary[i]) == scalar.use_primary, query
            assert bool(use_outlier[i]) == scalar.use_outlier, query


class TestTranslateBatchParity:
    @given(query_batches())
    @settings(max_examples=60, deadline=None)
    def test_rewritten_queries_match_scalar(self, queries):
        groups = make_groups()
        rewritten, no_inlier = translate_query_batch(queries, groups)
        for i, query in enumerate(queries):
            assert rewritten[i] == translate_query(query, groups), query
            scalar_no_inlier = any(
                translated_predictor_interval(query, group).is_empty
                for group in groups
            )
            assert bool(no_inlier[i]) == scalar_no_inlier, query

    @given(query_batches())
    @settings(max_examples=40, deadline=None)
    def test_predictor_intervals_match_scalar(self, queries):
        for group in make_groups():
            translated, _ = translate_bounds_batch(batch_bounds(queries), len(queries), [group])
            lows, highs = translated[group.predictor]
            for i, query in enumerate(queries):
                interval = translated_predictor_interval(query, group)
                assert lows[i] == interval.low, (query, group.predictor)
                assert highs[i] == interval.high, (query, group.predictor)


class TestMergeBatchParity:
    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_merge(self, seed):
        rng = np.random.default_rng(seed)
        n_queries = int(rng.integers(1, 8))
        parts_per_query = [
            [
                rng.integers(0, 40, size=rng.integers(0, 12)).astype(np.int64)
                for _ in range(int(rng.integers(0, 4)))
            ]
            for _ in range(n_queries)
        ]
        lengths = [sum(len(part) for part in parts) for parts in parts_per_query]
        ids = np.concatenate(
            [part for parts in parts_per_query for part in parts] + [np.empty(0, np.int64)]
        )
        qids = np.repeat(np.arange(n_queries, dtype=np.int64), lengths)
        merged = merge_flat_row_ids(ids, qids, n_queries)
        assert len(merged) == n_queries
        for parts, got in zip(parts_per_query, merged):
            assert np.array_equal(got, merge_row_ids(parts))


NAN = float("nan")


def overlap_boxes():
    """Boxes covering the edge cases of shard pruning."""
    return [
        BOXES["primary"],
        None,  # an empty row set overlaps nothing
        ({"x": NAN, "u": 0.0, "other": 0.0}, {"x": NAN, "u": 90.0, "other": 50.0}),
        ({"x": 10.0}, {"x": 20.0}),  # carries only "x": the rest do not constrain
        ({"x": -NAN, "u": 5.0}, {"x": 200.0, "u": NAN}),
    ]


class TestBoxOverlapParity:
    @given(query_batches())
    @settings(max_examples=60, deadline=None)
    def test_matches_rectangle_overlaps_box(self, queries):
        boxes = overlap_boxes()
        bounds = batch_bounds(queries)
        overlaps = batch_overlaps_boxes(bounds, len(queries), boxes)
        assert overlaps.shape == (len(boxes), len(queries))
        for i, box in enumerate(boxes):
            single = batch_overlaps_box(bounds, len(queries), box)
            assert np.array_equal(single, overlaps[i])
            for j, query in enumerate(queries):
                expected = box is not None and query.overlaps_box(*box)
                assert bool(overlaps[i, j]) == expected, (box, query)


def planning_engine() -> ShardedCOAX:
    """A 4-shard engine whose shard boxes cover the pruning edge cases."""
    rng = np.random.default_rng(7)
    n = 800
    x = rng.uniform(0.0, 100.0, size=n)
    y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
    flip = rng.random(n) < 0.15
    y[flip] = rng.uniform(0.0, 250.0, size=int(flip.sum()))
    z = rng.uniform(-50.0, 50.0, size=n)
    groups = [
        FDGroup(predictor="x", dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
    ]
    engine = ShardedCOAX(
        Table({"x": x, "y": y, "z": z}),
        config=EngineConfig(n_shards=4),
        groups=groups,
    )
    shards = engine.shards
    # A shard whose primary holds no row.
    shards[1]._primary_box = None
    # NaN box bounds (a partially reclaimed shard) overlap everything.
    lows, highs = shards[2].outlier_box
    shards[2]._outlier_box = ({**lows, "x": NAN}, {**highs, "y": NAN})
    # A box that does not carry a queried dimension.
    lows, highs = shards[0].primary_box
    shards[0]._primary_box = (
        {k: v for k, v in lows.items() if k != "z"},
        {k: v for k, v in highs.items() if k != "z"},
    )
    # Pending delta rows in the last shard's key range only.
    engine.insert_batch({
        "x": np.array([96.0, 98.0, 99.5]),
        "y": np.array([10.0, 196.5, 300.0]),
        "z": np.array([-80.0, 0.0, 80.0]),
    })
    assert [shard.n_pending > 0 for shard in shards] == [False, False, False, True]
    return engine


def planning_queries(rng: np.random.Generator, n_queries: int) -> list:
    queries = []
    for _ in range(n_queries):
        intervals = {}
        for name, (low, high) in (("x", (-20, 120)), ("y", (-20, 320)), ("z", (-90, 90))):
            if rng.random() < 0.6:
                a = float(rng.uniform(low, high))
                width = float(rng.choice([0.0, 2.0, 30.0, -5.0]))  # -5: empty
                intervals[name] = Interval(a, a + width)
        queries.append(Rectangle(intervals))
    return queries


class TestEngineShardPruningParity:
    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_shard_planner(self, seed):
        engine = planning_engine()
        try:
            queries = planning_queries(np.random.default_rng(seed), 12)
            n_queries = len(queries)
            plan = engine._plan_batch(queries)
            bounds = batch_bounds(queries)
            live = batch_live(bounds, n_queries)
            if not live.any():
                assert plan is None
                return
            translated, no_inlier = translate_bounds_batch(bounds, n_queries, engine.groups)
            tasks = []
            pruned_per_query = np.zeros(n_queries, dtype=np.int64)
            hits_by, pruned_by = [], []
            for shard_no, shard in enumerate(engine.shards):
                use_primary, use_outlier = plan_query_flags(
                    bounds, translated, no_inlier, n_queries,
                    primary_box=shard.primary_box, outlier_box=shard.outlier_box,
                )
                visible = use_primary | use_outlier
                if shard.n_pending:
                    visible |= live & batch_overlaps_box(bounds, n_queries, shard.delta.box)
                pruned = live & ~visible
                pruned_per_query += pruned
                pruned_by.append(int(pruned.sum()))
                slots = np.flatnonzero(visible)
                hits_by.append(len(slots))
                if len(slots):
                    tasks.append((shard_no, slots, use_primary[slots], use_outlier[slots]))
            assert len(plan.tasks) == len(tasks)
            for got, expected in zip(plan.tasks, tasks):
                assert got[0] == expected[0]
                for got_array, expected_array in zip(got[1:], expected[1:]):
                    assert np.array_equal(got_array, expected_array)
            assert np.array_equal(plan.pruned_per_query, pruned_per_query)
            assert plan.hits_by.tolist() == hits_by
            assert plan.pruned_by.tolist() == pruned_by
            assert np.array_equal(plan.live, live)
        finally:
            engine.shutdown()
