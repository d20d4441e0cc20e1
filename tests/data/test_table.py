"""Tests for the columnar table substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.predicates import Interval, Rectangle
from repro.data.table import Schema, Table


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Schema(("a", "a"))

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            Schema(())

    def test_order_and_membership(self):
        schema = Schema(("a", "b", "c"))
        assert schema.n_dims == 3
        assert "c" in schema
        assert list(schema) == ["a", "b", "c"]


class TestTableConstruction:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            Table({})

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            Table({"a": np.arange(3.0), "b": np.arange(4.0)})

    def test_requires_one_dimensional(self):
        with pytest.raises(ValueError):
            Table({"a": np.zeros((2, 2))})

    def test_copy_flag_isolates_input(self):
        source = np.arange(4.0)
        table = Table({"a": source}, copy=True)
        source[0] = 99.0
        assert table.column("a")[0] == 0.0

    def test_columns_are_float64(self):
        table = Table({"a": np.array([1, 2, 3], dtype=np.int32)})
        assert table.column("a").dtype == np.float64


class TestTableAccess:
    @pytest.fixture()
    def table(self) -> Table:
        return Table({"a": np.array([3.0, 1.0, 2.0]), "b": np.array([30.0, 10.0, 20.0])})

    def test_row(self, table):
        assert table.row(1) == {"a": 1.0, "b": 10.0}

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(3)

    def test_unknown_column(self, table):
        with pytest.raises(KeyError):
            table.column("zzz")

    def test_to_matrix_column_order(self, table):
        matrix = table.to_matrix(["b", "a"])
        assert matrix[0].tolist() == [30.0, 3.0]

    def test_take_reorders(self, table):
        subset = table.take(np.array([2, 0]))
        assert subset.column("a").tolist() == [2.0, 3.0]

    def test_select_matches_numpy_filter(self, table):
        query = Rectangle({"a": Interval(1.5, 3.0)})
        expected = np.flatnonzero((table.column("a") >= 1.5) & (table.column("a") <= 3.0))
        assert np.array_equal(table.select(query), expected)

    def test_mask_and_select_consistent(self, table):
        query = Rectangle({"b": Interval(15.0, 35.0)})
        assert np.array_equal(np.flatnonzero(table.mask(query)), table.select(query))

    def test_iter_rows(self, table):
        rows = list(table.iter_rows())
        assert len(rows) == 3
        assert rows[0]["a"] == 3.0

    def test_min_max_empty_table(self):
        table = Table({"a": np.empty(0)})
        assert table.min("a") == 0.0
        assert table.max("a") == 0.0


class TestTableTransforms:
    def test_sample_without_replacement(self):
        table = Table({"a": np.arange(100.0)})
        sampled = table.sample_rows(10, np.random.default_rng(0))
        assert len(sampled) == 10
        assert len(np.unique(sampled)) == 10

    def test_sample_caps_at_table_size(self):
        table = Table({"a": np.arange(5.0)})
        sampled = table.sample(50, np.random.default_rng(0))
        assert sampled.n_rows == 5

    def test_sample_zero(self):
        table = Table({"a": np.arange(5.0)})
        assert len(table.sample_rows(0, np.random.default_rng(0))) == 0

    def test_concat(self):
        left = Table({"a": np.array([1.0])})
        right = Table({"a": np.array([2.0, 3.0])})
        merged = left.concat(right)
        assert merged.column("a").tolist() == [1.0, 2.0, 3.0]

    def test_concat_schema_mismatch(self):
        left = Table({"a": np.array([1.0])})
        right = Table({"b": np.array([2.0])})
        with pytest.raises(ValueError):
            left.concat(right)

    def test_nbytes_positive(self):
        table = Table({"a": np.arange(10.0), "b": np.arange(10.0)})
        assert table.nbytes() == 2 * 10 * 8
