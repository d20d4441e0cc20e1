"""Parity of the batch planning/translation/merge forms with their scalar twins.

The array-level batch machinery (``translate_bounds_batch`` /
``plan_query_flags`` / ``merge_flat_row_ids``) is exercised end to end by
the batch equivalence suite through ``COAXIndex.batch_range_query``.  These
tests pin each batch form to its scalar counterpart, query by query, so the
two can never drift apart:

* ``plan_query_flags`` (fed by ``translate_bounds_batch``) == the
  ``use_primary`` / ``use_outlier`` decisions of ``plan_query`` per query
* ``translate_query_batch(qs)``   == ``[translate_query(q) for q in qs]``
* ``translated_predictor_intervals_batch`` == the scalar interval per query
* ``merge_row_ids_batch``         == ``merge_row_ids`` per query
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.planner import plan_query, plan_query_flags
from repro.core.query_translation import (
    translate_bounds_batch,
    translate_query,
    translate_query_batch,
    translated_predictor_interval,
    translated_predictor_intervals_batch,
)
from repro.core.results import merge_row_ids, merge_row_ids_batch
from repro.data.predicates import Interval, Rectangle, batch_bounds
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
            lows, highs = translated_predictor_intervals_batch(queries, group)
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
        merged = merge_row_ids_batch(parts_per_query)
        assert len(merged) == n_queries
        for parts, got in zip(parts_per_query, merged):
            assert np.array_equal(got, merge_row_ids(parts))
