"""Regression tests for the cached row-id -> position lookup.

``MultidimensionalIndex.positions_of`` caches a sorted ordering of the
covered row ids; every path that changes the covered row set
(``_append_rows``, and any future absorb/merge path) must invalidate it
through ``_invalidate_row_lookup``.  The hazard these tests pin down:
query first (building the cache), then absorb new rows, then query again —
a stale cache would silently map row ids to positions of the *old* row
set and return wrong (or missing) rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.bucketing import BucketingConfig
from repro.fd.detection import DetectionConfig
from repro.indexes.grid_file import SortedCellGridIndex


def make_table(n: int, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        {
            "a": rng.uniform(0.0, 100.0, size=n),
            "b": rng.normal(0.0, 10.0, size=n),
        }
    )


class TestGridAbsorbInvalidatesLookup:
    def test_query_absorb_query(self):
        table = make_table(300)
        index = SortedCellGridIndex(table, cells_per_dim=4)
        query = Rectangle({"a": Interval(10.0, 90.0)})

        # 1. Query and map ids to positions: both build the cached lookup.
        before = index.range_query(query)
        positions = index.positions_of(before)
        assert np.array_equal(np.sort(index.row_ids[positions]), np.sort(before))

        # 2. Absorb new rows (the PR 1 incremental-compaction path).
        extra = make_table(80, seed=1)
        combined = table.concat(extra)
        new_ids = np.arange(300, 380, dtype=np.int64)
        index.absorb_rows(extra.columns(), new_ids)

        # 3. Query again: the lookup must have been rebuilt over the grown
        # row set — new ids resolve, and resolved positions round-trip.
        after = index.range_query(query)
        assert np.array_equal(np.sort(after), combined.select(query))
        positions = index.positions_of(new_ids)
        assert len(positions) == len(new_ids)
        assert np.array_equal(np.sort(index.row_ids[positions]), new_ids)

    def test_invalidation_happens_before_mutation(self):
        """A failing absorb must not leave a stale cache behind."""
        table = make_table(100)
        index = SortedCellGridIndex(table, cells_per_dim=4)
        index.positions_of(np.array([3, 7], dtype=np.int64))  # warm the cache
        with pytest.raises(KeyError):
            # A batch missing a column blows up mid-append.
            index._append_rows({"a": np.zeros(20)}, np.arange(500, 520, dtype=np.int64))
        assert index._row_id_order is None
        assert index._sorted_row_ids is None


class TestCOAXCompactInvalidatesLookup:
    def test_query_insert_compact_query(self):
        rng = np.random.default_rng(5)
        n = 1_500
        x = rng.uniform(0.0, 200.0, size=n)
        y = 1.3 * x + rng.normal(scale=1.0, size=n)
        table = Table({"x": x, "y": y})
        config = COAXConfig(
            detection=DetectionConfig(
                bucketing=BucketingConfig(sample_count=n), monte_carlo_rounds=2
            )
        )
        index = COAXIndex(table, config=config)
        query = Rectangle({"x": Interval(20.0, 150.0)})

        # Warm the cached lookup through the positions-contract path.
        positions = index._range_query_positions(query)
        assert np.array_equal(
            np.sort(index.row_ids[positions]), table.select(query)
        )

        # Insert and compact: the covered row set grows in place.
        k = 200
        nx = rng.uniform(0.0, 200.0, size=k)
        ny = 1.3 * nx + rng.normal(scale=1.0, size=k)
        index.insert_batch({"x": nx, "y": ny})
        index.compact()

        combined = Table({"x": np.concatenate([x, nx]), "y": np.concatenate([y, ny])})
        positions = index._range_query_positions(query)
        assert np.array_equal(
            np.sort(index.row_ids[positions]), combined.select(query)
        )
