"""Exporting experiment results to JSON.

The experiment drivers return :class:`~repro.bench.reporting.ExperimentResult`
objects whose rows are exactly the series a plot of the corresponding paper
figure would show.  :func:`export_json` writes them to disk so they can be plotted
with any external tool (the library itself deliberately has no plotting
dependency).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.bench.reporting import ExperimentResult

__all__ = ["export_json", "host_stamp", "STANDARD_FIELDS"]

PathLike = Union[str, Path]

#: Fields every exported row carries, so artifacts from different
#: experiments join on a stable schema: the engine's pruning-work
#: counters over the row's measurement window (``None`` where the row
#: did not sample engine statistics).
STANDARD_FIELDS = {
    "shards_pruned": None,
    "rows_examined": None,
}


def _standardised_rows(result: ExperimentResult) -> List[dict]:
    """The result rows with the standard fields filled in."""
    return [{**STANDARD_FIELDS, **row} for row in result.rows]


def _git_sha() -> Optional[str]:
    """HEAD of the checkout this package runs from, or ``None`` outside one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def host_stamp() -> Dict[str, object]:
    """Where a result was measured: CPU cores, Python, NumPy and git sha."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


def export_json(result: ExperimentResult, path: PathLike) -> Path:
    """Write the full result (rows, notes, metadata, host stamp) as JSON."""
    path = Path(path)
    payload = {
        "experiment": result.experiment,
        "description": result.description,
        "host": host_stamp(),
        "rows": _standardised_rows(result),
        "notes": result.notes,
    }
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path
