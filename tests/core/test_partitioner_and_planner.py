"""Tests for the inlier/outlier partition and the query planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coax import COAXIndex
from repro.core.partitioner import partition_rows
from repro.core.planner import bounding_box_of_columns
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel


@pytest.fixture(scope="module")
def fd_table() -> Table:
    rng = np.random.default_rng(0)
    n = 2_000
    x = rng.uniform(0.0, 100.0, size=n)
    y = 3.0 * x + rng.uniform(-1.0, 1.0, size=n)
    # Make the last 200 records hard outliers.
    y[-200:] = rng.uniform(500.0, 1_000.0, size=200)
    return Table({"x": x, "y": y})


def split(table, groups, row_ids=None):
    """``(inlier ids, outlier ids, result)`` of :func:`partition_rows`."""
    inliers, result = partition_rows(table, groups, row_ids=row_ids)
    ids = np.arange(table.n_rows) if row_ids is None else row_ids
    return ids[inliers], ids[~inliers], result


def bounding_box_of_rows(table, row_ids):
    return bounding_box_of_columns(table.take(row_ids).columns())


@pytest.fixture(scope="module")
def group() -> FDGroup:
    return FDGroup(
        predictor="x",
        dependents=("y",),
        models={"y": LinearFDModel(3.0, 0.0, 1.5, 1.5)},
    )


class TestPartition:
    def test_partition_is_exhaustive_and_disjoint(self, fd_table, group):
        inlier_ids, outlier_ids, result = split(fd_table, [group])
        combined = np.sort(np.concatenate([inlier_ids, outlier_ids]))
        assert np.array_equal(combined, np.arange(fd_table.n_rows))
        assert len(np.intersect1d(inlier_ids, outlier_ids)) == 0
        assert (result.n_inliers, result.n_outliers) == (len(inlier_ids), len(outlier_ids))

    def test_hard_outliers_are_caught(self, fd_table, group):
        _, outlier_ids, _ = split(fd_table, [group])
        assert set(range(fd_table.n_rows - 200, fd_table.n_rows)) <= set(outlier_ids)

    def test_primary_ratio(self, fd_table, group):
        inlier_ids, _, result = split(fd_table, [group])
        assert result.primary_ratio == pytest.approx(len(inlier_ids) / fd_table.n_rows)
        assert 0.85 <= result.primary_ratio <= 0.92

    def test_per_model_fractions_recorded(self, fd_table, group):
        _, result = partition_rows(fd_table, [group])
        assert "x->y" in result.per_model_inlier_fraction
        assert 0.0 <= result.per_model_inlier_fraction["x->y"] <= 1.0

    def test_no_groups_means_all_inliers(self, fd_table):
        _, outlier_ids, result = split(fd_table, [])
        assert len(outlier_ids) == 0
        assert result.primary_ratio == 1.0

    def test_row_subset(self, fd_table, group):
        subset = np.arange(100, dtype=np.int64)
        inlier_ids, outlier_ids, result = split(fd_table, [group], row_ids=subset)
        assert result.n_rows == 100
        assert set(inlier_ids) | set(outlier_ids) == set(subset)

    def test_empty_subset(self, fd_table, group):
        _, result = partition_rows(fd_table, [group], row_ids=np.empty(0, dtype=np.int64))
        assert result.n_rows == 0
        assert result.primary_ratio == 0.0

    def test_inliers_respect_every_margin(self, fd_table, group):
        inlier_ids, _, _ = split(fd_table, [group])
        model = group.model_for("y")
        x = fd_table.column("x")[inlier_ids]
        y = fd_table.column("y")[inlier_ids]
        assert bool(np.all(model.within_margin(x, y)))


class TestBoundingBox:
    def test_bounds(self, fd_table):
        box = bounding_box_of_rows(fd_table, np.array([0, 1, 2], dtype=np.int64))
        assert box is not None
        lows, highs = box
        assert lows["x"] <= highs["x"]

    def test_empty_rows(self, fd_table):
        assert bounding_box_of_rows(fd_table, np.empty(0, dtype=np.int64)) is None


def routing(fd_table, group, query, primary_box, outlier_box):
    """``(use_primary, use_outlier)`` of COAX's planner over ``fd_table``
    with the given sub-index boxes, or ``None`` when it runs nothing."""
    index = COAXIndex(fd_table, groups=[group])
    index._set_boxes(primary_box, outlier_box)
    plan = index._plan_batch([query])
    if plan is None:
        return None
    _, _, _, use_primary, use_outlier, _ = plan
    return bool(use_primary[0]), bool(use_outlier[0])


class TestPlanner:
    def test_both_indexes_used_for_ordinary_query(self, fd_table, group):
        inlier_ids, outlier_ids, _ = split(fd_table, [group])
        assert routing(
            fd_table,
            group,
            Rectangle({"x": Interval(10.0, 20.0)}),
            bounding_box_of_rows(fd_table, inlier_ids),
            bounding_box_of_rows(fd_table, outlier_ids),
        ) == (True, True)

    def test_primary_skipped_when_translation_is_empty(self, fd_table, group):
        inlier_ids, outlier_ids, _ = split(fd_table, [group])
        # x small forces y near 3x; asking for y in the outlier band cannot
        # match any inlier.
        query = Rectangle({"x": Interval(0.0, 10.0), "y": Interval(700.0, 800.0)})
        assert routing(
            fd_table,
            group,
            query,
            bounding_box_of_rows(fd_table, inlier_ids),
            bounding_box_of_rows(fd_table, outlier_ids),
        ) == (False, True)

    def test_outlier_skipped_when_empty(self, fd_table, group):
        use_primary, use_outlier = routing(
            fd_table,
            group,
            Rectangle({"x": Interval(0.0, 1.0)}),
            bounding_box_of_rows(fd_table, np.arange(10, dtype=np.int64)),
            None,
        )
        assert not use_outlier

    def test_query_outside_primary_box(self, fd_table, group):
        use_primary, _ = routing(
            fd_table,
            group,
            Rectangle({"x": Interval(10_000.0, 20_000.0)}),
            ({"x": 0.0, "y": 0.0}, {"x": 100.0, "y": 301.0}),
            ({"x": 0.0, "y": 500.0}, {"x": 100.0, "y": 1000.0}),
        )
        assert not use_primary

    def test_empty_query_touches_nothing(self, fd_table, group):
        assert routing(
            fd_table,
            group,
            Rectangle({"x": Interval(5.0, 1.0)}),
            ({"x": 0.0}, {"x": 100.0}),
            ({"x": 0.0}, {"x": 100.0}),
        ) is None
