"""Per-axis grid shapes: a sorted-cell grid whose axes carry different
cell counts (one cell included) answers exactly like a full scan, and the
outlier grid's derived shape stays within its cell budget."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.coax import OUTLIER_CELLS_PER_AXIS_CAP, COAXIndex
from repro.data.executors import Aggregate, TopK
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel
from repro.indexes.base import IndexBuildError
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.grid_file import MAX_FITTED_AXIS_CELLS, SortedCellGridIndex, fitted_shape
from repro.io.persistence import _grid_payload, _restore_grid

NAMES = ("a", "b", "c", "d")


def _columns(rng: np.random.Generator, n_rows: int) -> dict:
    """Continuous, tied and constant columns, to stress the boundaries."""
    return {
        "a": rng.uniform(-50.0, 50.0, size=n_rows),
        "b": rng.integers(0, 4, size=n_rows).astype(float),
        "c": rng.normal(0.0, 10.0, size=n_rows),
        "d": np.full(n_rows, 3.0) if n_rows % 2 else rng.uniform(0.0, 5.0, size=n_rows),
    }


def _queries(rng: np.random.Generator, n_queries: int):
    queries = []
    for _ in range(n_queries):
        intervals = {}
        for name in NAMES:
            if rng.random() < 0.6:
                low = float(rng.uniform(-60.0, 40.0))
                intervals[name] = Interval(low, low + float(rng.uniform(0.0, 50.0)))
        queries.append(Rectangle(intervals))
    return queries


def _assert_matches_full_scan(grid, oracle, rng, queries) -> None:
    for query, got in zip(queries, grid.batch_range_query(queries)):
        want = np.sort(oracle.range_query(query))
        assert np.array_equal(np.sort(got), want)
        assert np.array_equal(np.sort(grid.range_query(query)), want)
    for spec in (Aggregate("count"), Aggregate("sum", "c")):
        assert np.allclose(
            grid.batch_aggregate(queries, spec), oracle.batch_aggregate(queries, spec)
        )
    columns = {name: oracle.column(name) for name in NAMES}
    for position in rng.integers(0, oracle.n_rows, size=3):
        point = {name: float(columns[name][position]) for name in NAMES}
        assert np.array_equal(np.sort(grid.point_query(point)), np.sort(oracle.point_query(point)))
        partial = {name: point[name] for name in ("a", "c")}
        for metric in ("l2", "linf"):
            assert np.array_equal(
                grid.knn(partial, 7, metric=metric), oracle.knn(partial, 7, metric=metric)
            )
    spec = TopK(5, column="c", largest=True)
    for query in queries[:3]:
        assert np.array_equal(grid.topk(query, spec), oracle.topk(query, spec))


class TestPerAxisShapeProperty:
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(1, 250),
        shape=st.tuples(*[st.integers(1, 5)] * 3),
        n_new=st.integers(0, 60),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_full_scan_through_absorb_and_round_trip(self, seed, n_rows, shape, n_new):
        rng = np.random.default_rng(seed)
        columns = _columns(rng, n_rows)
        grid = SortedCellGridIndex(Table(columns), cells_per_dim=shape, sort_dimension="a")
        assert grid._shape == shape and grid.n_cells == int(np.prod(shape))
        assert grid.grid_dimensions == ("b", "c", "d")
        queries = _queries(rng, 6)
        _assert_matches_full_scan(grid, FullScanIndex(Table(columns)), rng, queries)

        new = _columns(rng, n_new)
        grid.absorb_rows(new, np.arange(n_rows, n_rows + n_new))
        combined = {name: np.concatenate([columns[name], new[name]]) for name in NAMES}
        oracle = FullScanIndex(Table(combined))
        assert grid._shape == shape
        _assert_matches_full_scan(grid, oracle, rng, queries)

        arrays: dict = {}
        meta = _grid_payload(grid, "grid", arrays, np.asarray)
        restored = _restore_grid(list(NAMES), meta, "grid", arrays, None)
        assert restored._shape == shape
        _assert_matches_full_scan(restored, oracle, rng, queries)

    def test_shape_must_match_the_grid_axes(self):
        table = Table(_columns(np.random.default_rng(0), 20))
        for shape in ((2, 2), (2, 0, 2)):
            with pytest.raises(IndexBuildError):
                SortedCellGridIndex(table, cells_per_dim=shape, sort_dimension="a")


class TestFittedShape:
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(0, 400),
        n_axes=st.integers(0, 4),
        max_cells=st.integers(1, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_stays_within_budget(self, seed, n_rows, n_axes, max_cells):
        rng = np.random.default_rng(seed)
        samples = [rng.integers(0, 1 + axis * 7, size=n_rows).astype(float) for axis in range(n_axes)]
        shape = fitted_shape(samples, max_cells)
        assert len(shape) == n_axes
        assert int(np.prod(shape)) <= max_cells
        assert all(1 <= count <= MAX_FITTED_AXIS_CELLS for count in shape)

    def test_constant_axis_keeps_one_cell(self):
        rng = np.random.default_rng(1)
        samples = [rng.uniform(size=500), np.full(500, 2.0), rng.uniform(size=500)]
        shape = fitted_shape(samples, 64)
        assert shape[1] == 1
        assert shape[0] > 1 and shape[2] > 1

    def test_correlated_axis_is_split_last(self):
        """A copy of an axis separates no row pair its original has not."""
        rng = np.random.default_rng(2)
        x = rng.uniform(size=2000)
        shape = fitted_shape([x, x.copy(), rng.uniform(size=2000)], 16)
        assert min(shape[0], shape[1]) == 1
        assert shape[2] > 1


class TestOutlierGridBudget:
    """The derived outlier grid never has more cells than the fixed
    4-per-axis grid it replaced, nor more cells than it has rows."""

    def _coax(self, n_rows: int, n_dims: int, outlier_fraction: float) -> COAXIndex:
        rng = np.random.default_rng(n_rows + n_dims)
        x = rng.uniform(0.0, 100.0, size=n_rows)
        y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n_rows)
        stray = rng.random(n_rows) < outlier_fraction
        y[stray] = rng.uniform(-500.0, 500.0, size=int(stray.sum()))
        columns = {"x": x, "y": y}
        for extra in range(n_dims - 2):
            columns[f"z{extra}"] = rng.normal(size=n_rows)
        groups = [
            FDGroup(predictor="x", dependents=("y",), models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
        ]
        return COAXIndex(Table(columns), groups=groups)

    def test_never_exceeds_four_per_axis_or_the_row_count(self):
        for n_rows, n_dims, fraction in (
            (200, 2, 0.3),
            (3000, 3, 0.2),
            (20000, 4, 0.5),
            (50, 5, 0.1),
            (400, 3, 0.0),
        ):
            outlier = self._coax(n_rows, n_dims, fraction).outlier_index
            n_axes = len(outlier.grid_dimensions)
            assert outlier.n_cells <= OUTLIER_CELLS_PER_AXIS_CAP**n_axes
            assert outlier.n_cells <= max(1, outlier.n_rows)
            assert outlier._shape == tuple(len(b) - 1 for b in outlier._boundaries)

    def test_compaction_refits_an_outgrown_outlier_grid(self):
        """A grid built over no outliers has one cell; once compaction
        brings it thousands, it is rebuilt with a fitted shape instead of
        absorbing them into that cell."""
        index = self._coax(3000, 3, 0.0)
        assert index.outlier_index.n_rows == 0 and index.outlier_index.n_cells == 1
        rng = np.random.default_rng(5)
        k = 4000
        batch = {
            "x": rng.uniform(0.0, 100.0, size=k),
            "y": rng.uniform(-500.0, 500.0, size=k),
            "z0": rng.normal(size=k),
        }
        index.insert_batch(batch)
        index.compact()
        outlier = index.outlier_index
        assert outlier.n_rows > 3000 and outlier.n_cells > 1
        columns, ids = index.live_rows()
        oracle = FullScanIndex(Table(columns), ids=ids)
        query = Rectangle({"x": Interval(10.0, 20.0), "y": Interval(-100.0, 100.0)})
        assert np.array_equal(np.sort(index.range_query(query)), np.sort(oracle.range_query(query)))

    def test_large_outlier_set_gets_more_cells(self):
        few = self._coax(3000, 4, 0.05).outlier_index
        many = self._coax(20000, 4, 0.5).outlier_index
        assert many.n_rows > 10 * few.n_rows
        assert many.n_cells > few.n_cells
