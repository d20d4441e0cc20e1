"""Tests for memory accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.table import Table
from repro.indexes.memory import format_bytes
from repro.indexes.rtree import RTreeIndex
from repro.indexes.uniform_grid import UniformGridIndex


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(5)
    return Table({"a": rng.uniform(size=2_000), "b": rng.uniform(size=2_000)})


class TestFormatBytes:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (512, "512.0 B"),
            (2048, "2.0 KB"),
            (3 * 1024**2, "3.0 MB"),
            (5 * 1024**3, "5.0 GB"),
        ],
    )
    def test_units(self, value, expected):
        assert format_bytes(value) == expected


class TestDirectoryOrdering:
    def test_rtree_is_heavier_than_grid(self, table):
        grid = UniformGridIndex(table, cells_per_dim=8)
        rtree = RTreeIndex(table, node_capacity=8)
        assert rtree.directory_bytes() > grid.directory_bytes()
