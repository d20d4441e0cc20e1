"""Table 1 — dataset characteristics.

The paper reports, per dataset: record count, key type, number of
dimensions, number of correlated dimensions, number of indexed dimensions in
the soft-FD index, and the primary-index ratio.  This driver builds COAX on
both synthetic datasets and reports the same columns, so the measured
correlated/indexed dimension counts and primary ratios can be compared with
the published ones (Airline: (3, 3) correlated, 2-4 indexed, 92%; OSM: 2
correlated, 3 indexed, 73%).
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.experiments.datasets import airline_table, osm_table
from repro.bench.reporting import ExperimentResult
from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.table import Table

__all__ = ["run"]

#: Paper-reported values (DESIGN.md §7 sets them next to measured ones).
PAPER_VALUES = {
    "Airline": {"dimensions": 8, "correlated": (3, 3), "indexed": "2-4", "primary_ratio": 0.92},
    "OSM": {"dimensions": 4, "correlated": (2,), "indexed": 3, "primary_ratio": 0.73},
}


def _describe(name: str, table: Table, config: COAXConfig) -> Dict[str, object]:
    index = COAXIndex(table, config=config)
    report = index.build_report
    group_sizes = tuple(group.n_attributes for group in report.groups)
    return {
        "dataset": name,
        "count": table.n_rows,
        "key_type": "float",
        "dimensions": table.n_dims,
        "correlated_dims": str(group_sizes) if group_sizes else "()",
        "indexed_dims": len(report.indexed_dimensions),
        "primary_ratio": round(report.primary_ratio, 3),
    }


def run(n_rows: int = 30_000, seed: int = 0) -> ExperimentResult:
    """Reproduce Table 1 on the synthetic datasets."""
    config = COAXConfig()
    rows: List[Dict[str, object]] = [
        _describe("Airline", airline_table(n_rows, seed=7 + seed), config),
        _describe("OSM", osm_table(n_rows, seed=11 + seed), config),
    ]
    return ExperimentResult(
        experiment="table1",
        description="Dataset characteristics (paper Table 1)",
        rows=rows,
        notes=[
            *(
                f"paper: {name} correlated dims {paper['correlated']}, "
                f"indexed {paper['indexed']}, primary ratio {paper['primary_ratio']:.0%}"
                for name, paper in PAPER_VALUES.items()
            ),
            f"synthetic datasets at {n_rows} rows stand in for the 80M/105M originals",
        ],
    )
