"""Layout invariants of the clustered grid, across its whole life cycle.

A grid stores every column, its row ids and its tombstones in (cell,
sort-key) order and searches runs through one non-decreasing array of
run-search keys.  These property tests drive a COAX index through a
build, repeated incremental absorbs (new sort keys below, between and
above the old ones), a save/load round trip and a reclaiming compaction,
and after every step check the layout of both grids and every answer
against a full scan of the live rows.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.coax import COAXIndex
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel
from repro.indexes.grid_file import SortedCellGridIndex
from repro.indexes.kernels import cell_rank_keys
from repro.io.persistence import FORMAT_VERSION, MANIFEST_NAME, load_index, save_index

SCHEMA = ("x", "y", "z")


def _groups():
    return [
        FDGroup(
            predictor="x",
            dependents=("y",),
            models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
        )
    ]


def _rows(rng, n, x_low, x_high):
    """Rows on a coarse x lattice (duplicate sort keys), some outliers."""
    x = np.round(rng.uniform(x_low, x_high, size=n), 1)
    y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
    y[rng.random(n) < 0.1] += 50.0
    return {"x": x, "y": y, "z": rng.uniform(0.0, 10.0, size=n)}


def assert_clustered(
    grid: SortedCellGridIndex, covered: np.ndarray, by_id: Table
) -> None:
    """The physical-layout invariants of one grid; row ``i`` of ``by_id``
    holds the values of the record with id ``i``."""
    rank_keys = grid._rank_keys
    assert np.all(np.diff(rank_keys) >= 0)
    sort_column = grid.column(grid.sort_dimension)
    offsets = grid._offsets
    assert offsets[-1] == grid.n_rows == len(rank_keys)
    for cell in range(grid.n_cells):
        run = sort_column[offsets[cell]:offsets[cell + 1]]
        assert np.array_equal(run, np.sort(run), equal_nan=True)  # NaN last
    assert np.array_equal(grid._distinct, np.unique(sort_column), equal_nan=True)
    cells = np.arange(grid.n_cells).repeat(np.diff(offsets))
    assert np.array_equal(rank_keys, cell_rank_keys(cells, sort_column, grid._distinct))
    assert np.array_equal(np.sort(grid.row_ids), np.sort(covered))
    # Rows with equal (cell, sort key) keep arrival order, as a stable
    # build would: ids only ever arrive in increasing order here.
    ties = np.diff(rank_keys) == 0
    assert np.all(np.diff(grid.row_ids)[ties] > 0)
    for name in SCHEMA:
        assert np.array_equal(
            grid.column(name), by_id.column(name)[grid.row_ids], equal_nan=True
        )


def assert_index_exact(index: COAXIndex, live: dict, queries) -> None:
    """Both grids clustered, inliers in the primary and outliers in the
    outlier grid; every answer equals the full scan of ``live``."""
    ids = np.array(sorted(live), dtype=np.int64)
    values = {
        name: np.array([live[row_id][axis] for row_id in ids])
        for axis, name in enumerate(SCHEMA)
    }
    by_id = {name: np.full(int(ids.max()) + 1, np.nan) for name in SCHEMA}
    for name in SCHEMA:
        by_id[name][ids] = values[name]
    inlier = _groups()[0].model_for("y").within_margin(values["x"], values["y"])
    assert_clustered(index.primary_index, ids[inlier], Table(by_id))
    assert_clustered(index.outlier_index, ids[~inlier], Table(by_id))
    batch = index.batch_range_query(queries)
    for query, batch_result in zip(queries, batch):
        mask = np.ones(len(ids), dtype=bool)
        for name, interval in query.items():
            mask &= (values[name] >= interval.low) & (values[name] <= interval.high)
        expected = ids[mask]
        assert np.array_equal(np.sort(index.range_query(query)), expected)
        assert np.array_equal(np.sort(batch_result), expected)


def _queries(rng, n):
    queries = [Rectangle()]
    for _ in range(n):
        x_low = float(rng.uniform(-60.0, 150.0))
        query = {"x": Interval(x_low, x_low + float(rng.uniform(0.0, 60.0)))}
        if rng.random() < 0.5:
            y_low = float(rng.uniform(-120.0, 300.0))
            query["y"] = Interval(y_low, y_low + float(rng.uniform(0.0, 80.0)))
        if rng.random() < 0.5:
            z_low = float(rng.uniform(0.0, 10.0))
            query["z"] = Interval(z_low, z_low + float(rng.uniform(0.0, 5.0)))
        queries.append(Rectangle(query))
    # Exact hits on a duplicated sort key.
    queries.append(Rectangle({"x": Interval(50.0, 50.0)}))
    return queries


class TestClusteredLayoutLifecycle:
    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_invariants_across_build_absorb_round_trip_and_reclaim(self, seed):
        rng = np.random.default_rng(seed)
        build = _rows(rng, int(rng.integers(200, 600)), 0.0, 100.0)
        build["x"][: len(build["x"]) // 10] = 50.0  # one heavy duplicate key
        index = COAXIndex(Table(build), groups=_groups())
        live = {
            row_id: tuple(build[name][row_id] for name in SCHEMA)
            for row_id in range(len(build["x"]))
        }
        queries = _queries(rng, 12)
        assert_index_exact(index, live, queries)

        # Incremental absorbs: new sort keys below, between (and equal to)
        # and above the old ones.
        for x_low, x_high in ((-50.0, -10.0), (0.0, 100.0), (110.0, 150.0)):
            batch = _rows(rng, int(rng.integers(1, 120)), x_low, x_high)
            new_ids = index.insert_batch(batch)
            for slot, row_id in enumerate(new_ids):
                live[int(row_id)] = tuple(batch[name][slot] for name in SCHEMA)
            index.compact()
            assert index.n_pending == 0
            assert_index_exact(index, live, queries)

        # A round trip through the current archive reattaches both grids
        # from their saved clustered sections.
        with tempfile.TemporaryDirectory() as scratch:
            path = save_index(index, Path(scratch) / "layout.coax")
            meta = json.loads((path / MANIFEST_NAME).read_text())["meta"]
            assert meta["format_version"] == FORMAT_VERSION == 8
            assert "structured" in meta
            loaded = load_index(path)
            assert_index_exact(loaded, live, queries)

            # Reclaiming compaction of the reattached index: tombstones
            # force the rebuild over the survivors.
            doomed = rng.choice(
                np.array(sorted(live)), size=len(live) // 5, replace=False
            )
            loaded.delete_batch(doomed)
            for row_id in doomed:
                del live[int(row_id)]
            loaded.compact()
            assert loaded.n_tombstoned == 0
            assert_index_exact(loaded, live, queries)

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_absorb_carries_tombstones_with_their_rows(self, seed):
        # NaN sort keys on both sides of the absorb: NaN stays one distinct
        # key, ranked last.
        rng = np.random.default_rng(seed)
        base = _rows(rng, int(rng.integers(50, 300)), 0.0, 100.0)
        base["x"][rng.random(len(base["x"])) < 0.05] = np.nan
        table = Table(base)
        grid = SortedCellGridIndex(table, cells_per_dim=4, sort_dimension="x")
        doomed = rng.choice(table.n_rows, size=table.n_rows // 4, replace=False)
        grid.delete_rows(doomed)
        more = _rows(rng, int(rng.integers(1, 100)), -20.0, 120.0)
        more["x"][rng.random(len(more["x"])) < 0.05] = np.nan
        extra = Table(more)
        combined = table.concat(extra)
        new_ids = np.arange(table.n_rows, combined.n_rows, dtype=np.int64)
        grid.absorb_rows(extra.columns(), new_ids)
        assert_clustered(grid, np.arange(combined.n_rows), combined)
        # The bitmap moved with its rows: exactly the deleted ids are dead.
        dead = np.sort(grid.row_ids[grid.tombstone_mask])
        assert np.array_equal(dead, np.sort(doomed))
        live_ids = np.setdiff1d(np.arange(combined.n_rows), doomed)
        # Every query bounds the sort key (a NaN key never matches one).
        for query in _queries(rng, 8)[1:]:
            expected = np.intersect1d(combined.select(query), live_ids)
            assert np.array_equal(np.sort(grid.range_query(query)), expected)
