"""Batch-vs-sequential equivalence of the read path — including CRUD.

The batch execution kernels must be a pure optimisation: for every
index type, ``batch_range_query(queries)`` has to return exactly
``[range_query(q) for q in queries]`` — same row ids, same order, query by
query — and leave the same work statistics behind.  Hypothesis drives the
property over random tables and workloads; dedicated tests pin the edge
cases (empty query, empty batch, empty index) and COAX with pending delta
rows.

The CRUD property extends this to mutations: interleaved
insert/delete/update/query/compact sequences must stay bit-identical to a
delete-aware full scan for every index type (tombstone deletes) and
for COAX with pending rows (full CRUD), before and after compaction and
across a format-v3 save/load round trip.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig, MaintenanceConfig
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.bucketing import BucketingConfig
from repro.fd.detection import DetectionConfig
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel
from repro.indexes.column_files import ColumnFilesIndex
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.grid_file import SortedCellGridIndex
from repro.indexes.rtree import RTreeIndex
from repro.indexes.uniform_grid import UniformGridIndex
from repro.io.persistence import load_index, save_index

#: Every index type of the library.
INDEX_CLASSES = (
    ColumnFilesIndex,
    COAXIndex,
    FullScanIndex,
    RTreeIndex,
    SortedCellGridIndex,
    UniformGridIndex,
)


def build_indexes(table: Table):
    """One instance of every index type over ``table``.

    COAX is built with a detection configuration cheap enough for
    property-test scale; every other index uses light default parameters.
    """
    light = {
        COAXIndex: {
            "config": COAXConfig(
                detection=DetectionConfig(
                    bucketing=BucketingConfig(sample_count=min(table.n_rows, 500)),
                    monte_carlo_rounds=2,
                )
            )
        },
        UniformGridIndex: {"cells_per_dim": 4},
        SortedCellGridIndex: {"cells_per_dim": 4},
        ColumnFilesIndex: {"cells_per_dim": 4},
        RTreeIndex: {"node_capacity": 6},
    }
    return [cls(table, **light.get(cls, {})) for cls in INDEX_CLASSES]


def assert_batch_matches_sequential(index, queries):
    """The core property, including statistics parity."""
    index.stats.reset()
    sequential = [index.range_query(query) for query in queries]
    seq_stats = (
        index.stats.queries,
        index.stats.rows_examined,
        index.stats.rows_matched,
        index.stats.cells_visited,
    )
    index.stats.reset()
    batch = index.batch_range_query(queries)
    batch_stats = (
        index.stats.queries,
        index.stats.rows_examined,
        index.stats.rows_matched,
        index.stats.cells_visited,
    )
    assert len(batch) == len(sequential), type(index).__name__
    for position, (left, right) in enumerate(zip(sequential, batch)):
        assert np.array_equal(left, right), (type(index).__name__, position)
    assert seq_stats == batch_stats, type(index).__name__


@st.composite
def tables_and_workloads(draw):
    """A random 2-3 column table plus a random mixed workload."""
    n_rows = draw(st.integers(min_value=1, max_value=250))
    n_cols = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    names = [f"c{i}" for i in range(n_cols)]
    columns = {}
    for i, name in enumerate(names):
        kind = (seed + i) % 3
        if kind == 0:
            columns[name] = rng.uniform(-50.0, 50.0, size=n_rows)
        elif kind == 1:
            columns[name] = rng.normal(0.0, 10.0, size=n_rows)
        else:
            # Heavy ties stress the per-cell bisection boundaries.
            columns[name] = rng.integers(0, 4, size=n_rows).astype(float)
    table = Table(columns)
    n_queries = draw(st.integers(min_value=1, max_value=6))
    queries = []
    for _ in range(n_queries):
        intervals = {}
        for name in names:
            if draw(st.booleans()):
                low = draw(st.floats(-60.0, 60.0))
                width = draw(st.floats(-5.0, 60.0))  # negative width = empty
                intervals[name] = Interval(low, low + width)
        queries.append(Rectangle(intervals))
    return table, queries


class TestBatchEquivalenceProperty:
    @given(tables_and_workloads())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_registered_index(self, table_and_workload):
        table, queries = table_and_workload
        for index in build_indexes(table):
            assert_batch_matches_sequential(index, queries)


class TestBatchEdgeCases:
    @pytest.fixture(scope="class")
    def table(self) -> Table:
        rng = np.random.default_rng(3)
        return Table(
            {
                "a": rng.uniform(0.0, 100.0, size=400),
                "b": rng.normal(0.0, 5.0, size=400),
                "c": rng.integers(0, 6, size=400).astype(float),
            }
        )

    def test_empty_batch(self, table):
        for index in build_indexes(table):
            assert index.batch_range_query([]) == []

    def test_empty_and_unconstrained_queries(self, table):
        queries = [
            Rectangle({"a": Interval(5.0, 1.0)}),  # empty interval
            Rectangle(),  # matches everything
            Rectangle({"a": Interval(10.0, 60.0), "b": Interval(3.0, -3.0)}),
        ]
        for index in build_indexes(table):
            assert_batch_matches_sequential(index, queries)

    def test_nan_polluted_column(self):
        """NaN data must keep the exact post-filter on both paths.

        A NaN in a grid column makes the quantile boundaries (and tracked
        axis spans) NaN; the vectorized pruning check must stay
        conservative under NaN — like the scalar path — or the batch path
        silently skips the post-filter and returns non-matching rows.
        """
        rng = np.random.default_rng(9)
        values = rng.uniform(0.0, 100.0, size=500)
        values[7] = np.nan
        table = Table({"a": values, "b": rng.uniform(0.0, 100.0, size=500)})
        queries = [
            Rectangle({"a": Interval(10.0, 20.0)}),
            Rectangle({"a": Interval(10.0, 20.0), "b": Interval(0.0, 50.0)}),
            Rectangle({"b": Interval(30.0, 60.0)}),
        ]
        for cls in INDEX_CLASSES:
            if cls is COAXIndex:
                continue  # COAX refuses to fit FD models over NaN data
            index = cls(table)
            assert_batch_matches_sequential(index, queries)

    def test_empty_index(self, table):
        queries = [Rectangle({"a": Interval(0.0, 50.0)}), Rectangle()]
        no_rows = np.empty(0, dtype=np.int64)
        for cls in INDEX_CLASSES:
            if cls is COAXIndex:
                continue  # COAX needs build data for FD detection
            index = cls(table, row_ids=no_rows)
            assert_batch_matches_sequential(index, queries)
            assert all(len(result) == 0 for result in index.batch_range_query(queries))


class TestInterleavedDeletes:
    """Tombstone deletes on every index type vs a delete-aware scan."""

    @given(tables_and_workloads(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_registered_index(self, table_and_workload, delete_seed):
        table, queries = table_and_workload
        rng = np.random.default_rng(delete_seed)
        indexes = build_indexes(table)
        deleted: set = set()
        for _ in range(2):
            doomed = rng.choice(
                table.n_rows, size=max(1, table.n_rows // 4), replace=False
            ).astype(np.int64)
            deleted.update(int(i) for i in doomed)
            for index in indexes:
                index.delete_rows(doomed)
            for index in indexes:
                for query in queries:
                    expected = np.array(
                        sorted(set(table.select(query).tolist()) - deleted),
                        dtype=np.int64,
                    )
                    got = np.sort(index.range_query(query))
                    assert np.array_equal(got, expected), type(index).__name__
                # Batch execution must stay bit-identical (results and
                # stats) with tombstones in place.
                assert_batch_matches_sequential(index, queries)


def crud_reference_results(reference, query):
    """Row ids of the logical record store matching ``query`` (sorted)."""
    return np.array(
        sorted(
            row_id
            for row_id, record in reference.items()
            if all(
                query.interval(name).contains_value(value)
                for name, value in record.items()
            )
        ),
        dtype=np.int64,
    )


class TestInterleavedCRUDOnCOAX:
    """Full insert/delete/update/query/compact sequences on COAX.

    A logical record store (id -> values) is the ground truth; after every
    mutation round COAX must agree with it exactly — with pending rows,
    with tombstones, after compaction reclaims, and across a format-v3
    save/load round trip of the un-compacted CRUD state.
    """

    PROBES = [
        Rectangle({"x": Interval(10.0, 60.0)}),
        Rectangle({"y": Interval(30.0, 130.0)}),
        Rectangle({"x": Interval(0.0, 100.0), "y": Interval(-1e6, 1e6)}),
        Rectangle({"x": Interval(5.0, 1.0)}),
        Rectangle(),
    ]

    def check(self, index, reference):
        for query in self.PROBES:
            expected = crud_reference_results(reference, query)
            assert np.array_equal(np.sort(index.range_query(query)), expected)
        assert_batch_matches_sequential(index, self.PROBES)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        compact_rounds=st.sets(st.integers(min_value=0, max_value=2)),
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_interleaved_crud(self, seed, compact_rounds, tmp_path_factory):
        rng = np.random.default_rng(seed)
        n = 400
        x = rng.uniform(0.0, 100.0, size=n)
        y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
        flip = rng.random(n) < 0.15
        y[flip] = rng.uniform(0.0, 250.0, size=int(flip.sum()))
        table = Table({"x": x, "y": y})
        groups = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
            )
        ]
        index = COAXIndex(table, groups=groups)
        reference = {
            i: {"x": float(x[i]), "y": float(y[i])} for i in range(n)
        }
        for round_no in range(3):
            # Insert a batch (some rows pending until the next compact).
            k = int(rng.integers(5, 60))
            bx = rng.uniform(0.0, 100.0, size=k)
            by = 2.0 * bx + rng.uniform(-10.0, 10.0, size=k)
            ids = index.insert_batch({"x": bx, "y": by})
            for j, row_id in enumerate(ids):
                reference[int(row_id)] = {"x": float(bx[j]), "y": float(by[j])}
            # Delete a random live subset (mixes main and pending rows).
            live = np.array(sorted(reference), dtype=np.int64)
            doomed = rng.choice(live, size=min(len(live), int(rng.integers(1, 50))), replace=False)
            assert index.delete_batch(doomed) == len(set(doomed.tolist()))
            for row_id in doomed:
                reference.pop(int(row_id))
            # Update a random live subset in place.
            live = np.array(sorted(reference), dtype=np.int64)
            targets = rng.choice(live, size=min(len(live), int(rng.integers(1, 30))), replace=False)
            targets = np.unique(targets)
            ux = rng.uniform(0.0, 100.0, size=len(targets))
            uy = 2.0 * ux + rng.uniform(-10.0, 10.0, size=len(targets))
            index.update_batch(targets, {"x": ux, "y": uy})
            for j, row_id in enumerate(targets):
                reference[int(row_id)] = {"x": float(ux[j]), "y": float(uy[j])}
            self.check(index, reference)
            if round_no in compact_rounds:
                index.compact()
                assert index.n_pending == 0 and index.n_tombstoned == 0
                self.check(index, reference)
        # Save/load round trip of the final (possibly un-compacted) state.
        path = tmp_path_factory.mktemp("crud") / "crud.coax.npz"
        loaded = load_index(save_index(index, path))
        self.check(loaded, reference)
        assert loaded.next_row_id == index.next_row_id
        loaded.compact()
        self.check(loaded, reference)
        index.compact()
        self.check(index, reference)


class TestDriftingStreamWithAdaptiveModels:
    """Interleaved CRUD under a drifting insert stream with model refresh.

    The adaptive-maintenance extension of the CRUD property: the insert
    stream's soft-FD intercept drifts every round, compaction refreshes
    the models (re-margin or refit + re-partition), and the results must
    stay bit-identical to the delete-aware logical store before and after
    every refresh — adaptivity changes routing and performance, never
    results.  A format-v5 round trip of the adapted state must restore
    both the refreshed models and the monitor state.
    """

    PROBES = [
        Rectangle({"x": Interval(10.0, 60.0)}),
        Rectangle({"y": Interval(30.0, 130.0)}),
        Rectangle({"y": Interval(150.0, 320.0)}),  # the drifted band
        Rectangle({"x": Interval(5.0, 1.0)}),
        Rectangle(),
    ]

    def check(self, index, reference):
        for query in self.PROBES:
            expected = crud_reference_results(reference, query)
            assert np.array_equal(np.sort(index.range_query(query)), expected)
        assert_batch_matches_sequential(index, self.PROBES)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_drifting_crud_with_refresh(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        n = 400
        x = rng.uniform(0.0, 100.0, size=n)
        y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
        table = Table({"x": x, "y": y})
        groups = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
            )
        ]
        config = COAXConfig(
            maintenance=MaintenanceConfig(enabled=True, min_observations=50)
        )
        index = COAXIndex(table, config=config, groups=groups)
        assert index.maintenance is not None
        reference = {i: {"x": float(x[i]), "y": float(y[i])} for i in range(n)}
        for round_no in range(3):
            # Drifting insert batch: the intercept walks upward each round.
            shift = 40.0 * (round_no + 1)
            k = int(rng.integers(60, 120))
            bx = rng.uniform(0.0, 100.0, size=k)
            by = 2.0 * bx + shift + rng.uniform(-1.0, 1.0, size=k)
            ids = index.insert_batch({"x": bx, "y": by})
            for j, row_id in enumerate(ids):
                reference[int(row_id)] = {"x": float(bx[j]), "y": float(by[j])}
            # Delete and update random live subsets (delete-aware scan).
            live = np.array(sorted(reference), dtype=np.int64)
            doomed = rng.choice(
                live, size=min(len(live), int(rng.integers(1, 40))), replace=False
            )
            index.delete_batch(doomed)
            for row_id in doomed:
                reference.pop(int(row_id))
            live = np.array(sorted(reference), dtype=np.int64)
            targets = np.unique(
                rng.choice(
                    live, size=min(len(live), int(rng.integers(1, 20))), replace=False
                )
            )
            ux = rng.uniform(0.0, 100.0, size=len(targets))
            uy = 2.0 * ux + shift + rng.uniform(-1.0, 1.0, size=len(targets))
            index.update_batch(targets, {"x": ux, "y": uy})
            for j, row_id in enumerate(targets):
                reference[int(row_id)] = {"x": float(ux[j]), "y": float(uy[j])}
            # Identical results before the refresh ...
            self.check(index, reference)
            epoch_before = index.maintenance.monitor("x->y").epoch
            index.compact()  # maintenance decides (and usually refreshes) here
            # ... and after it.
            self.check(index, reference)
        # The drift was far beyond the margins: a refresh must have fired.
        monitor = index.maintenance.monitor("x->y")
        assert monitor.epoch >= 1
        assert epoch_before <= monitor.epoch
        # Format v5 round trip of the adapted state: refreshed models and
        # monitor statistics both survive.
        path = tmp_path_factory.mktemp("drift") / "adaptive.coax.npz"
        loaded = load_index(save_index(index, path))
        assert loaded.maintenance is not None
        restored = loaded.maintenance.monitor("x->y")
        assert restored.epoch == monitor.epoch
        assert np.allclose(restored.state_vector(), monitor.state_vector())
        assert loaded.groups[0].model_for("y") == index.groups[0].model_for("y")
        self.check(loaded, reference)
        loaded.compact()
        self.check(loaded, reference)


class TestCOAXWithPendingRows:
    """COAX equivalence with a populated delta store (scan_batch path)."""

    @pytest.fixture(scope="class")
    def coax(self) -> COAXIndex:
        rng = np.random.default_rng(11)
        n = 2_000
        x = rng.uniform(0.0, 300.0, size=n)
        y = 2.1 * x + rng.normal(scale=1.5, size=n)
        drift = rng.random(n) < 0.12
        y[drift] = rng.uniform(y.min(), y.max(), size=int(drift.sum()))
        z = rng.uniform(0.0, 8.0, size=n)
        config = COAXConfig(
            detection=DetectionConfig(
                bucketing=BucketingConfig(sample_count=2_000, bucket_chunks=32),
                monte_carlo_rounds=4,
            )
        )
        index = COAXIndex(Table({"x": x, "y": y, "z": z}), config=config)
        k = 300
        nx = rng.uniform(0.0, 300.0, size=k)
        ny = 2.1 * nx + rng.normal(scale=1.5, size=k)
        flip = rng.random(k) < 0.3
        ny[flip] = rng.uniform(y.min(), y.max(), size=int(flip.sum()))
        index.insert_batch({"x": nx, "y": ny, "z": rng.uniform(0.0, 8.0, size=k)})
        assert index.n_pending == k
        return index

    @given(
        x_low=st.floats(-30.0, 330.0),
        x_width=st.floats(-10.0, 200.0),
        y_low=st.floats(-50.0, 700.0),
        y_width=st.floats(0.0, 400.0),
        constrain_z=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_pending_rows_visible_on_both_paths(
        self, coax, x_low, x_width, y_low, y_width, constrain_z
    ):
        intervals = {
            "x": Interval(x_low, x_low + x_width),
            "y": Interval(y_low, y_low + y_width),
        }
        if constrain_z:
            intervals["z"] = Interval(1.0, 6.0)
        queries = [
            Rectangle(intervals),
            Rectangle({"x": Interval(x_low, x_low + x_width)}),
            Rectangle(),
        ]
        assert_batch_matches_sequential(coax, queries)
