"""Tests for intervals and hyper-rectangle predicates."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data.predicates import Interval, Rectangle

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


class TestInterval:
    def test_default_is_unbounded(self):
        interval = Interval()
        assert interval.is_unbounded
        assert not interval.is_empty
        assert not interval.is_point

    def test_point_interval(self):
        interval = Interval.point(3.5)
        assert interval.is_point
        assert interval.width == 0.0
        assert interval.contains_value(3.5)
        assert not interval.contains_value(3.50001)

    def test_empty_interval(self):
        interval = Interval.empty()
        assert interval.is_empty
        assert not interval.contains_value(0.0)

    def test_nan_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("nan"))

    def test_contains_vectorised(self):
        interval = Interval(1.0, 3.0)
        values = np.array([0.5, 1.0, 2.0, 3.0, 3.5])
        mask = interval.contains(values)
        assert mask.tolist() == [False, True, True, True, False]

    def test_bounds_are_inclusive(self):
        interval = Interval(1.0, 2.0)
        assert interval.contains_value(1.0)
        assert interval.contains_value(2.0)

    def test_intersect_overlapping(self):
        assert Interval(0, 5).intersect(Interval(3, 10)) == Interval(3, 5)

    def test_intersect_disjoint_is_empty(self):
        assert Interval(0, 1).intersect(Interval(2, 3)).is_empty

    def test_intersect_with_unbounded_is_identity(self):
        interval = Interval(-2.0, 7.0)
        assert interval.intersect(Interval.unbounded()) == interval

    def test_union_hull(self):
        assert Interval(0, 1).union_hull(Interval(5, 6)) == Interval(0, 6)
        assert Interval.empty().union_hull(Interval(1, 2)) == Interval(1, 2)
        assert Interval(1, 2).union_hull(Interval.empty()) == Interval(1, 2)

    def test_width_of_empty_is_zero(self):
        assert Interval.empty().width == 0.0

    @given(finite_floats, finite_floats, finite_floats)
    def test_intersection_is_subset(self, a, b, value):
        left = Interval(min(a, b), max(a, b))
        right = Interval(-100.0, 100.0)
        merged = left.intersect(right)
        if merged.contains_value(value):
            assert left.contains_value(value)
            assert right.contains_value(value)

    @given(finite_floats, finite_floats)
    def test_intersection_commutes(self, a, b):
        left = Interval(min(a, b), max(a, b))
        right = Interval(-50.0, 50.0)
        assert left.intersect(right) == right.intersect(left)

    @given(st.lists(finite_floats, min_size=1, max_size=30), finite_floats, finite_floats)
    def test_contains_matches_scalar(self, values, a, b):
        interval = Interval(min(a, b), max(a, b))
        array = np.array(values)
        mask = interval.contains(array)
        for value, flag in zip(values, mask):
            assert flag == interval.contains_value(value)


class TestRectangle:
    def test_unconstrained_matches_everything(self):
        rect = Rectangle.unconstrained()
        columns = {"a": np.arange(5.0)}
        assert rect.matches(columns).all()
        assert len(rect) == 0

    def test_unbounded_intervals_are_dropped(self):
        rect = Rectangle({"a": Interval.unbounded(), "b": Interval(0, 1)})
        assert [name for name, _ in rect.items()] == ["b"]

    def test_non_interval_constraint_rejected(self):
        with pytest.raises(TypeError):
            Rectangle({"a": (0, 1)})  # type: ignore[dict-item]

    def test_point_rectangle(self):
        rect = Rectangle.from_point({"a": 1.0, "b": 2.0})
        assert rect.is_point
        assert rect.matches_row({"a": 1.0, "b": 2.0})
        assert not rect.matches_row({"a": 1.0, "b": 2.5})

    def test_matches_multiple_columns(self):
        rect = Rectangle({"a": Interval(0, 2), "b": Interval(10, 20)})
        columns = {
            "a": np.array([1.0, 1.0, 3.0]),
            "b": np.array([15.0, 25.0, 15.0]),
        }
        assert rect.matches(columns).tolist() == [True, False, False]

    def test_matches_requires_constrained_columns(self):
        rect = Rectangle({"missing": Interval(0, 1)})
        with pytest.raises(KeyError):
            rect.matches({"a": np.array([1.0])})

    def test_is_empty(self):
        rect = Rectangle({"a": Interval(5, 1)})
        assert rect.is_empty

    def test_intersect(self):
        left = Rectangle({"a": Interval(0, 10)})
        right = Rectangle({"a": Interval(5, 20), "b": Interval(1, 2)})
        merged = left.intersect(right)
        assert merged.interval("a") == Interval(5, 10)
        assert merged.interval("b") == Interval(1, 2)

    def test_with_interval_replaces_and_removes(self):
        rect = Rectangle({"a": Interval(0, 1)})
        replaced = rect.with_interval("a", Interval(2, 3))
        assert replaced.interval("a") == Interval(2, 3)
        removed = rect.with_interval("a", Interval.unbounded())
        assert not removed.constrains("a")

    def test_overlaps_box(self):
        rect = Rectangle({"a": Interval(0, 1)})
        assert rect.overlaps_box({"a": 0.5}, {"a": 2.0})
        assert not rect.overlaps_box({"a": 1.5}, {"a": 2.0})

    def test_equality_and_hash(self):
        left = Rectangle({"a": Interval(0, 1)})
        right = Rectangle({"a": Interval(0, 1)})
        assert left == right
        assert hash(left) == hash(right)
        assert left != Rectangle({"a": Interval(0, 2)})

    def test_interval_for_unconstrained_dim(self):
        rect = Rectangle({"a": Interval(0, 1)})
        assert rect.interval("other").is_unbounded

    @given(
        st.lists(finite_floats, min_size=4, max_size=4),
        st.lists(finite_floats, min_size=10, max_size=10),
        st.lists(finite_floats, min_size=10, max_size=10),
    )
    def test_intersection_mask_equals_mask_conjunction(self, bounds, col_a, col_b):
        a_low, a_high, b_low, b_high = bounds
        left = Rectangle({"a": Interval(min(a_low, a_high), max(a_low, a_high))})
        right = Rectangle({"b": Interval(min(b_low, b_high), max(b_low, b_high))})
        columns = {"a": np.array(col_a), "b": np.array(col_b)}
        merged_mask = left.intersect(right).matches(columns)
        expected = left.matches(columns) & right.matches(columns)
        assert np.array_equal(merged_mask, expected)

    @given(st.lists(finite_floats, min_size=6, max_size=6))
    def test_matches_row_agrees_with_matches(self, values):
        a, b, lo1, hi1, lo2, hi2 = values
        rect = Rectangle(
            {
                "a": Interval(min(lo1, hi1), max(lo1, hi1)),
                "b": Interval(min(lo2, hi2), max(lo2, hi2)),
            }
        )
        columns = {"a": np.array([a]), "b": np.array([b])}
        assert rect.matches(columns)[0] == rect.matches_row({"a": a, "b": b})
