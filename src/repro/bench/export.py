"""Exporting experiment results to CSV and JSON.

The experiment drivers return :class:`~repro.bench.reporting.ExperimentResult`
objects whose rows are exactly the series a plot of the corresponding paper
figure would show.  These helpers write them to disk so they can be plotted
with any external tool (the library itself deliberately has no plotting
dependency).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.bench.reporting import ExperimentResult

__all__ = ["export_csv", "export_json", "export_all", "STANDARD_FIELDS"]

PathLike = Union[str, Path]

#: Fields every exported row carries, so artifacts from different
#: experiments join on a stable schema.  ``executor`` names the scatter
#: backend that produced the row (``""`` where execution played no part);
#: ``cold_start_s`` is the restart latency (``None`` outside the restart
#: benchmark); ``offered_qps``/``p50_ms``/``p99_ms``/``clients`` are the
#: serving-load axes (``None`` outside the serve benchmark);
#: ``shards_pruned``/``rows_examined`` are the engine's pruning-work
#: counters over the row's measurement window (``None`` where the row
#: did not sample engine statistics), so pruning efficiency is visible
#: in serving trajectories, not just engine benches.
STANDARD_FIELDS = {
    "executor": "",
    "cold_start_s": None,
    "offered_qps": None,
    "p50_ms": None,
    "p99_ms": None,
    "clients": None,
    "shards_pruned": None,
    "rows_examined": None,
}


def _standardised_rows(result: ExperimentResult) -> List[dict]:
    """The result rows with the standard fields filled in."""
    return [{**STANDARD_FIELDS, **row} for row in result.rows]


def export_csv(result: ExperimentResult, path: PathLike) -> Path:
    """Write the result rows as a CSV file with a unified header."""
    path = Path(path)
    rows = _standardised_rows(result)
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def export_json(result: ExperimentResult, path: PathLike) -> Path:
    """Write the full result (rows, notes, metadata) as JSON."""
    path = Path(path)
    payload = {
        "experiment": result.experiment,
        "description": result.description,
        "rows": _standardised_rows(result),
        "notes": result.notes,
    }
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


def export_all(results: Iterable[ExperimentResult], directory: PathLike) -> List[Path]:
    """Export every result to ``<directory>/<experiment>.csv`` and ``.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for result in results:
        written.append(export_csv(result, directory / f"{result.experiment}.csv"))
        written.append(export_json(result, directory / f"{result.experiment}.json"))
    return written
