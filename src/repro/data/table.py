"""Columnar table substrate.

All indexes in the library are built over :class:`Table`, a light columnar
container holding one NumPy ``float64`` array per attribute.  The paper's
experiments use single-precision floats in C; we keep double precision in
Python (the default NumPy dtype) since the comparative results do not depend
on it, but the dtype is configurable per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.predicates import Rectangle

__all__ = ["Schema", "Table"]


@dataclass(frozen=True)
class Schema:
    """Ordered list of attribute names of a table.

    The order matters: the paper sorts grid-cell addresses "using the
    original ordering of attributes in the dataset" (Section 6), so indexes
    rely on a stable attribute order.
    """

    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("schema contains duplicate column names")
        if not self.columns:
            raise ValueError("schema must contain at least one column")

    @property
    def n_dims(self) -> int:
        """Number of attributes."""
        return len(self.columns)

    def __contains__(self, column: str) -> bool:
        return column in self.columns

    def __iter__(self) -> Iterator[str]:
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)


class Table:
    """An immutable columnar table of float attributes.

    Rows are addressed by integer row ids (0 .. n_rows - 1).  Query results
    throughout the library are arrays of row ids into the original table,
    which makes result merging between the primary and the outlier index a
    simple set union.
    """

    def __init__(self, columns: Mapping[str, np.ndarray], *, copy: bool = False) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        names: List[str] = list(columns)
        arrays: Dict[str, np.ndarray] = {}
        n_rows: Optional[int] = None
        for name in names:
            array = np.asarray(columns[name], dtype=np.float64)
            if array.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if copy:
                array = array.copy()
            if n_rows is None:
                n_rows = len(array)
            elif len(array) != n_rows:
                raise ValueError(
                    f"column {name!r} has {len(array)} rows, expected {n_rows}"
                )
            arrays[name] = array
        self._schema = Schema(tuple(names))
        self._columns = arrays
        self._n_rows = int(n_rows or 0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """Ordered schema of the table."""
        return self._schema

    @property
    def n_rows(self) -> int:
        """Number of records."""
        return self._n_rows

    @property
    def n_dims(self) -> int:
        """Number of attributes."""
        return self._schema.n_dims

    def __len__(self) -> int:
        return self._n_rows

    def column(self, name: str) -> np.ndarray:
        """The array backing attribute ``name`` (not a copy)."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise KeyError(f"unknown column {name!r}") from exc

    def columns(self) -> Dict[str, np.ndarray]:
        """Mapping of every column name to its backing array."""
        return dict(self._columns)

    def row(self, row_id: int) -> Dict[str, float]:
        """Materialise a single record as a plain dict."""
        if row_id < 0 or row_id >= self._n_rows:
            raise IndexError(f"row id {row_id} out of range")
        return {name: float(array[row_id]) for name, array in self._columns.items()}

    def to_matrix(self, columns: Optional[Sequence[str]] = None) -> np.ndarray:
        """Dense 2-D view of (a subset of) the table, one column per attribute."""
        names = list(columns) if columns is not None else list(self._schema)
        return np.column_stack([self.column(name) for name in names]) if names else np.empty((self._n_rows, 0))

    def nbytes(self) -> int:
        """Total bytes occupied by the column data."""
        return int(sum(array.nbytes for array in self._columns.values()))

    def min(self, name: str) -> float:
        """Minimum of a column (0.0 for an empty table)."""
        array = self.column(name)
        return float(array.min()) if len(array) else 0.0

    def max(self, name: str) -> float:
        """Maximum of a column (0.0 for an empty table)."""
        array = self.column(name)
        return float(array.max()) if len(array) else 0.0

    # ------------------------------------------------------------------
    # Row selection
    # ------------------------------------------------------------------
    def take(self, row_ids: np.ndarray) -> "Table":
        """New table restricted to ``row_ids`` (in the given order)."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return Table({name: array[row_ids] for name, array in self._columns.items()})

    def select(self, predicate: Rectangle) -> np.ndarray:
        """Row ids matching ``predicate`` by brute force (the Full Scan baseline)."""
        mask = predicate.matches(self._columns)
        return np.flatnonzero(mask).astype(np.int64)

    def mask(self, predicate: Rectangle) -> np.ndarray:
        """Boolean mask of rows matching ``predicate``."""
        return predicate.matches(self._columns)

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Row ids of a uniform sample without replacement (capped at n_rows)."""
        n = min(int(n), self._n_rows)
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        return rng.choice(self._n_rows, size=n, replace=False).astype(np.int64)

    def sample(self, n: int, rng: np.random.Generator) -> "Table":
        """Uniform sample of the table as a new table."""
        return self.take(self.sample_rows(n, rng))

    def concat(self, other: "Table") -> "Table":
        """Concatenate two tables with identical schemas."""
        if other.schema.columns != self._schema.columns:
            raise ValueError("cannot concatenate tables with different schemas")
        return Table(
            {
                name: np.concatenate([self._columns[name], other.column(name)])
                for name in self._schema
            }
        )

    def iter_rows(self) -> Iterator[Dict[str, float]]:
        """Iterate over records as dicts (slow; intended for tests and examples)."""
        for row_id in range(self._n_rows):
            yield self.row(row_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(n_rows={self._n_rows}, columns={list(self._schema)})"
