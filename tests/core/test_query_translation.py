"""Tests for query translation (Section 4 / Equation 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query_translation import dependent_attributes, translate_query
from repro.data.predicates import Interval, Rectangle
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel


@pytest.fixture()
def group() -> FDGroup:
    # y ~= 2x (+/- 1), z ~= -x + 100 (+/- 2)
    return FDGroup(
        predictor="x",
        dependents=("y", "z"),
        models={
            "y": LinearFDModel(slope=2.0, intercept=0.0, eps_lb=1.0, eps_ub=1.0),
            "z": LinearFDModel(slope=-1.0, intercept=100.0, eps_lb=2.0, eps_ub=2.0),
        },
    )


def translated_predictor_interval(query: Rectangle, group: FDGroup) -> Interval:
    """The effective predictor constraint Equation 2 gives the primary."""
    return translate_query(query, [group]).interval(group.predictor)


class TestTranslatedPredictorInterval:
    def test_only_direct_constraint(self, group):
        query = Rectangle({"x": Interval(0.0, 10.0)})
        assert translated_predictor_interval(query, group) == Interval(0.0, 10.0)

    def test_dependent_constraint_translates(self, group):
        query = Rectangle({"y": Interval(10.0, 20.0)})
        interval = translated_predictor_interval(query, group)
        assert interval.low == pytest.approx(4.5)
        assert interval.high == pytest.approx(10.5)

    def test_intersection_of_direct_and_translated(self, group):
        query = Rectangle({"x": Interval(0.0, 6.0), "y": Interval(10.0, 20.0)})
        interval = translated_predictor_interval(query, group)
        assert interval.low == pytest.approx(4.5)
        assert interval.high == pytest.approx(6.0)

    def test_multiple_dependents_intersect(self, group):
        # y in [10, 20] -> x in [4.5, 10.5]; z in [80, 95] -> x in [3, 22].
        query = Rectangle({"y": Interval(10.0, 20.0), "z": Interval(80.0, 95.0)})
        interval = translated_predictor_interval(query, group)
        assert interval.low == pytest.approx(4.5)
        assert interval.high == pytest.approx(10.5)

    def test_contradictory_constraints_give_empty(self, group):
        # y around 100 needs x around 50; direct x constraint excludes that.
        query = Rectangle({"x": Interval(0.0, 10.0), "y": Interval(99.0, 101.0)})
        assert translated_predictor_interval(query, group).is_empty

    def test_unconstrained_query(self, group):
        assert translated_predictor_interval(Rectangle.unconstrained(), group).is_unbounded


class TestTranslateQuery:
    def test_predictor_constraint_tightened(self, group):
        query = Rectangle({"y": Interval(10.0, 20.0), "other": Interval(1.0, 2.0)})
        rewritten = translate_query(query, [group])
        assert rewritten.constrains("x")
        # Non-group constraints survive untouched.
        assert rewritten.interval("other") == Interval(1.0, 2.0)
        # The dependent constraint is kept for exact post-filtering.
        assert rewritten.interval("y") == Interval(10.0, 20.0)

    def test_multiple_groups(self, group):
        other_group = FDGroup(
            predictor="a",
            dependents=("b",),
            models={"b": LinearFDModel(1.0, 0.0, 0.5, 0.5)},
        )
        query = Rectangle({"y": Interval(0.0, 2.0), "b": Interval(5.0, 6.0)})
        rewritten = translate_query(query, [group, other_group])
        assert rewritten.constrains("x")
        assert rewritten.constrains("a")

    def test_no_groups_is_identity(self):
        query = Rectangle({"y": Interval(0.0, 1.0)})
        assert translate_query(query, []) == query

    def test_translation_preserves_inlier_results(self, group):
        """End-to-end soundness: translated+original constraint keeps every
        in-margin record the original query matches."""
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 50.0, size=5_000)
        y = 2.0 * x + rng.uniform(-1.0, 1.0, size=5_000)
        z = -x + 100.0 + rng.uniform(-2.0, 2.0, size=5_000)
        columns = {"x": x, "y": y, "z": z}
        query = Rectangle({"y": Interval(20.0, 40.0), "z": Interval(70.0, 95.0)})
        rewritten = translate_query(query, [group])
        original_mask = query.matches(columns)
        rewritten_mask = rewritten.matches(columns)
        assert np.array_equal(original_mask, rewritten_mask & original_mask)
        # and the rewrite loses nothing:
        assert np.all(~(original_mask & ~rewritten_mask))


class TestDependentAttributes:
    def test_collects_all_dependents(self, group):
        assert dependent_attributes([group]) == {"y", "z"}

    def test_empty(self):
        assert dependent_attributes([]) == set()
