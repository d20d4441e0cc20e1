"""Tests for COAXConfig validation and result merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import COAXConfig
from repro.core.results import QueryResult, merge_row_ids


class TestCOAXConfig:
    def test_defaults_are_valid(self):
        config = COAXConfig()
        assert config.outlier_index == "sorted_cell_grid"

    def test_invalid_primary_cells(self):
        with pytest.raises(ValueError):
            COAXConfig(primary_cells_per_dim=0)

    def test_invalid_outlier_index(self):
        with pytest.raises(ValueError):
            COAXConfig(outlier_index="btree")

    def test_invalid_max_groups(self):
        with pytest.raises(ValueError):
            COAXConfig(max_groups=-1)

    def test_invalid_min_primary_fraction(self):
        with pytest.raises(ValueError):
            COAXConfig(min_primary_fraction=1.5)


class TestMergeRowIds:
    def test_union_is_sorted_and_unique(self):
        merged = merge_row_ids([np.array([3, 1]), np.array([2, 3]), np.array([], dtype=np.int64)])
        assert merged.tolist() == [1, 2, 3]

    def test_all_empty(self):
        merged = merge_row_ids([np.array([], dtype=np.int64)])
        assert len(merged) == 0
        assert merged.dtype == np.int64

    def test_no_parts(self):
        assert len(merge_row_ids([])) == 0


class TestQueryResult:
    def test_shares(self):
        result = QueryResult(
            row_ids=np.array([1, 2, 3, 4]),
            primary_row_ids=np.array([1, 2, 3]),
            outlier_row_ids=np.array([4]),
        )
        assert result.n_results == 4
        assert result.primary_share == pytest.approx(0.75)

    def test_empty_result(self):
        result = QueryResult(row_ids=np.array([], dtype=np.int64))
        assert result.n_results == 0
        assert result.primary_share == 0.0
