"""Tests for the dataset profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.profile import profile_table


class TestColumnProfiles:
    def test_basic_statistics(self, airline_small, fast_detection_config):
        profile = profile_table(airline_small, detection=fast_detection_config)
        distance = profile.column("Distance")
        assert distance.minimum >= 80.0
        assert distance.maximum <= 5000.0
        assert distance.n_distinct > 1000
        assert 0.0 <= distance.uniformity <= 1.0

    def test_nearly_constant_detection(self, fast_detection_config):
        from repro.data.table import Table

        table = Table(
            {"flat": np.full(500, 3.0), "varying": np.random.default_rng(0).normal(size=500)}
        )
        profile = profile_table(table, detection=fast_detection_config)
        assert profile.column("flat").n_distinct == 1
        assert profile.column("varying").std > 0.0

    def test_unknown_column_lookup(self, airline_small, fast_detection_config):
        profile = profile_table(airline_small, detection=fast_detection_config)
        with pytest.raises(KeyError):
            profile.column("nope")


class TestCorrelationsAndGroups:
    def test_airline_profile_matches_table1(self, airline_small, fast_detection_config):
        profile = profile_table(airline_small, detection=fast_detection_config)
        assert profile.n_dims == 8
        # The distance/airtime correlation is reported; the ~8% uniform
        # outliers depress plain Pearson well below the inlier correlation,
        # which is exactly why detection uses margins rather than r alone.
        key = ("Distance", "AirTime")
        assert key in profile.correlations
        assert profile.correlations[key] > 0.35
        # The groups mirror what COAXIndex would learn: 2 groups, 4 predicted.
        assert len(profile.groups) == 2
        assert len(profile.predicted_attributes) == 4
        assert profile.indexed_dimensions == 4

    def test_independent_data_has_no_groups(self, fast_detection_config):
        from repro.data.table import Table

        rng = np.random.default_rng(1)
        table = Table({"a": rng.uniform(size=3000), "b": rng.normal(size=3000)})
        profile = profile_table(table, detection=fast_detection_config)
        assert profile.groups == []
        assert profile.indexed_dimensions == 2

    def test_column_restriction(self, airline_small, fast_detection_config):
        profile = profile_table(
            airline_small,
            columns=("Distance", "DayOfWeek"),
            detection=fast_detection_config,
        )
        assert profile.n_dims == 2
        assert profile.groups == []

    def test_sampling_cap(self, airline_small, fast_detection_config):
        profile = profile_table(
            airline_small, detection=fast_detection_config, sample_rows=500
        )
        # Profiling is over a sample, but the report still cites the full size.
        assert profile.n_rows == airline_small.n_rows


class TestDescribe:
    def test_describe_mentions_groups_and_reduction(self, airline_small, fast_detection_config):
        text = profile_table(airline_small, detection=fast_detection_config).describe()
        assert "soft functional dependencies" in text
        assert "dimensionality: 8 ->" in text

    def test_describe_without_groups(self, fast_detection_config):
        from repro.data.table import Table

        rng = np.random.default_rng(2)
        table = Table({"a": rng.uniform(size=1000), "b": rng.uniform(size=1000)})
        text = profile_table(table, detection=fast_detection_config).describe()
        assert "none detected" in text
