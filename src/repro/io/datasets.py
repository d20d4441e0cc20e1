"""Loading and saving tables as CSV files.

The synthetic generators cover the reproduction, but a downstream user will
want to point COAX at their own data.  These helpers read a numeric CSV
(with a header row) into a :class:`~repro.data.table.Table` and write
tables back out.  Non-numeric CSV columns can either be skipped or
dictionary-encoded into float codes (COAX, like the paper's implementation,
indexes numeric attributes only).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.table import Table

__all__ = ["load_csv", "save_csv", "encode_categories"]

PathLike = Union[str, Path]


def load_csv(
    path: PathLike,
    *,
    columns: Optional[Sequence[str]] = None,
    encode_strings: bool = False,
    delimiter: str = ",",
    max_rows: Optional[int] = None,
) -> Tuple[Table, Dict[str, Dict[str, float]]]:
    """Read a CSV file with a header row into a table.

    ``columns`` restricts the load to a subset of header names.  Columns that
    fail to parse as floats are dictionary-encoded when ``encode_strings``
    is true (each distinct string maps to a float code) and skipped
    otherwise.  Returns the table and the per-column encoding dictionaries
    (empty for numeric columns).
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise ValueError(f"{path} is empty") from exc
        header = [name.strip() for name in header]
        wanted = list(columns) if columns is not None else header
        missing = [name for name in wanted if name not in header]
        if missing:
            raise KeyError(f"columns not present in {path.name}: {missing}")
        positions = [header.index(name) for name in wanted]
        raw: List[List[str]] = [[] for _ in wanted]
        for row_number, row in enumerate(reader):
            if max_rows is not None and row_number >= max_rows:
                break
            if not row:
                continue
            for slot, position in enumerate(positions):
                raw[slot].append(row[position].strip() if position < len(row) else "")

    columns_out: Dict[str, np.ndarray] = {}
    encodings: Dict[str, Dict[str, float]] = {}
    for name, values in zip(wanted, raw):
        numeric, encoding = _parse_column(values, encode_strings=encode_strings)
        if numeric is None:
            continue
        columns_out[name] = numeric
        encodings[name] = encoding
    if not columns_out:
        raise ValueError(f"no numeric (or encodable) columns found in {path.name}")
    return Table(columns_out), encodings


def _parse_column(
    values: List[str], *, encode_strings: bool
) -> Tuple[Optional[np.ndarray], Dict[str, float]]:
    """Parse one CSV column; returns (array or None, encoding dict)."""
    try:
        parsed = np.array(
            [float(value) if value not in ("", "NA", "NaN", "null") else np.nan for value in values]
        )
        # Columns that are entirely missing are useless for indexing.
        if np.all(np.isnan(parsed)):
            return None, {}
        # Replace missing entries with the column mean so downstream indexes
        # never see NaN (which would break interval comparisons).
        if np.any(np.isnan(parsed)):
            parsed = np.where(np.isnan(parsed), np.nanmean(parsed), parsed)
        return parsed, {}
    except ValueError:
        if not encode_strings:
            return None, {}
        encoding = encode_categories(values)
        return np.array([encoding[value] for value in values], dtype=np.float64), encoding


def encode_categories(values: Sequence[str]) -> Dict[str, float]:
    """Stable dictionary encoding: distinct strings map to 0.0, 1.0, ..."""
    encoding: Dict[str, float] = {}
    for value in sorted(set(values)):
        encoding[value] = float(len(encoding))
    return encoding


def save_csv(table: Table, path: PathLike, *, delimiter: str = ",") -> Path:
    """Write a table to CSV with a header row."""
    path = Path(path)
    names = list(table.schema)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(names)
        matrix = table.to_matrix(names)
        for row in matrix:
            writer.writerow([repr(float(value)) for value in row])
    return path
