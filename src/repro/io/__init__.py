"""Persistence and data import/export.

* :mod:`repro.io.persistence` — save and load COAX indexes (models, margins,
  partition and configuration) so an index built offline can be shipped next
  to the data it covers.
* :mod:`repro.io.datasets` — load and store tables as CSV files, with
  schema inference for CSV headers.
"""

from repro.io.persistence import (
    UnsupportedFormatError,
    load_engine,
    load_index,
    save_index,
)
from repro.io.datasets import load_csv, save_csv

__all__ = [
    "save_index",
    "load_index",
    "load_engine",
    "UnsupportedFormatError",
    "load_csv",
    "save_csv",
]
