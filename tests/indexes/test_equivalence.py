"""Cross-index equivalence: every structure must return exactly the full-scan result.

This is the central correctness property of the library — an index is a
performance structure, never an approximation.  Hypothesis generates random
tables and random query rectangles and checks every index type against
the brute-force scan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.bucketing import BucketingConfig
from repro.fd.detection import DetectionConfig
from repro.indexes.column_files import ColumnFilesIndex
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.grid_file import SortedCellGridIndex
from repro.indexes.rtree import RTreeIndex
from repro.indexes.uniform_grid import UniformGridIndex


def build_all_indexes(table: Table):
    """One instance of every non-COAX index over the full table."""
    return [
        FullScanIndex(table),
        UniformGridIndex(table, cells_per_dim=5),
        SortedCellGridIndex(table, cells_per_dim=5),
        ColumnFilesIndex(table, cells_per_dim=5),
        RTreeIndex(table, node_capacity=6),
    ]


@st.composite
def tables_and_queries(draw):
    """A random 2-3 column table plus a list of random rectangle queries."""
    n_rows = draw(st.integers(min_value=1, max_value=300))
    n_cols = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    names = [f"c{i}" for i in range(n_cols)]
    # Mix of distributions, including heavy ties to stress boundary handling.
    columns = {}
    for i, name in enumerate(names):
        kind = (seed + i) % 3
        if kind == 0:
            columns[name] = rng.uniform(-100.0, 100.0, size=n_rows)
        elif kind == 1:
            columns[name] = rng.normal(0.0, 10.0, size=n_rows)
        else:
            columns[name] = rng.integers(0, 5, size=n_rows).astype(float)
    table = Table(columns)
    n_queries = draw(st.integers(min_value=1, max_value=4))
    queries = []
    for _ in range(n_queries):
        intervals = {}
        for name in names:
            if draw(st.booleans()):
                low = draw(st.floats(-120.0, 120.0))
                width = draw(st.floats(0.0, 100.0))
                intervals[name] = Interval(low, low + width)
        queries.append(Rectangle(intervals))
    return table, queries


class TestAllIndexesMatchFullScan:
    @given(tables_and_queries())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_tables_and_queries(self, table_and_queries):
        table, queries = table_and_queries
        indexes = build_all_indexes(table)
        for query in queries:
            expected = table.select(query)
            for index in indexes:
                got = np.sort(index.range_query(query))
                assert np.array_equal(got, expected), type(index).__name__

    @given(tables_and_queries())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_point_queries_find_existing_rows(self, table_and_queries):
        table, _ = table_and_queries
        indexes = build_all_indexes(table)
        rng = np.random.default_rng(0)
        for row_id in rng.integers(0, table.n_rows, size=min(3, table.n_rows)):
            point = table.row(int(row_id))
            for index in indexes:
                assert int(row_id) in index.point_query(point), type(index).__name__


class TestCOAXMatchesFullScan:
    """COAX equivalence on data that actually carries a soft FD."""

    @pytest.fixture(scope="class")
    def fd_table(self) -> Table:
        rng = np.random.default_rng(7)
        n = 3_000
        x = rng.uniform(0.0, 500.0, size=n)
        y = 1.7 * x + rng.normal(scale=2.0, size=n)
        outliers = rng.random(n) < 0.15
        y[outliers] = rng.uniform(y.min(), y.max(), size=int(outliers.sum()))
        z = rng.uniform(0.0, 10.0, size=n)
        return Table({"x": x, "y": y, "z": z})

    @pytest.fixture(scope="class")
    def coax(self, fd_table) -> COAXIndex:
        config = COAXConfig(
            detection=DetectionConfig(
                bucketing=BucketingConfig(sample_count=3_000, bucket_chunks=32),
                monte_carlo_rounds=4,
            )
        )
        return COAXIndex(fd_table, config=config)

    def test_learned_a_group(self, coax):
        assert len(coax.groups) == 1

    @given(
        x_low=st.floats(-50.0, 550.0),
        x_width=st.floats(0.0, 300.0),
        y_low=st.floats(-100.0, 900.0),
        y_width=st.floats(0.0, 500.0),
        constrain_z=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_queries_match_scan(self, coax, fd_table, x_low, x_width, y_low, y_width, constrain_z):
        intervals = {
            "x": Interval(x_low, x_low + x_width),
            "y": Interval(y_low, y_low + y_width),
        }
        if constrain_z:
            intervals["z"] = Interval(2.0, 7.0)
        query = Rectangle(intervals)
        expected = fd_table.select(query)
        got = np.sort(coax.range_query(query))
        assert np.array_equal(got, expected)

    @given(st.integers(0, 2_999))
    @settings(max_examples=40, deadline=None)
    def test_point_queries_match_scan(self, coax, fd_table, row_id):
        query = Rectangle.from_point(fd_table.row(row_id))
        expected = fd_table.select(query)
        got = np.sort(coax.range_query(query))
        assert np.array_equal(got, expected)
