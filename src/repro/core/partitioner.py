"""Splitting data into the primary and the outlier set (Algorithm 1, final loop).

A record belongs to the primary index only when it falls inside the margin
band of *every* model of *every* FD group — otherwise a translated query
could miss it.  Records violating any margin go to the outlier index, which
indexes all attributes and therefore needs no dependency to hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.data.table import Table
from repro.fd.groups import FDGroup, per_model_inlier_masks

__all__ = ["PartitionResult", "partition_rows"]


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of the inlier/outlier split: sizes and per-model fractions.

    The split itself keeps no id arrays: which rows are inliers is what
    the primary index holds (its row ids), the rest is the outlier index.
    """

    n_inliers: int
    n_outliers: int
    #: Per (predictor, dependent) pair: fraction of rows inside that model's margins.
    per_model_inlier_fraction: Dict[str, float]

    @property
    def n_rows(self) -> int:
        """Total number of partitioned rows."""
        return self.n_inliers + self.n_outliers

    @property
    def primary_ratio(self) -> float:
        """Fraction of rows retained by the primary index (Table 1's "Primary Index Ratio")."""
        total = self.n_rows
        return self.n_inliers / total if total else 0.0


def partition_rows(
    table: Table,
    groups: Sequence[FDGroup],
    *,
    row_ids: np.ndarray | None = None,
) -> Tuple[np.ndarray, PartitionResult]:
    """Split ``table`` rows into inliers and outliers with respect to ``groups``.

    ``row_ids`` restricts the partition to a subset of the table's
    positions; by default all rows are partitioned.  Returns the inlier
    mask over the partitioned rows (in ``row_ids`` order) and the split's
    summary.  With no groups at all, every row is an inlier (COAX
    degenerates into its primary index over the full data).
    """
    n_rows = table.n_rows if row_ids is None else len(row_ids)
    inlier_mask = np.ones(n_rows, dtype=bool)
    if n_rows == 0:
        return inlier_mask, PartitionResult(0, 0, {})
    per_model: Dict[str, float] = {}
    for group in groups:
        # One group's columns at a time: a subset gathers only those.
        columns = {
            name: table.column(name) if row_ids is None else table.column(name)[row_ids]
            for name in group.attributes
        }
        for name, within in per_model_inlier_masks([group], columns).items():
            per_model[name] = float(np.mean(within))
            inlier_mask &= within
    n_inliers = int(np.count_nonzero(inlier_mask))
    return inlier_mask, PartitionResult(
        n_inliers=n_inliers,
        n_outliers=n_rows - n_inliers,
        per_model_inlier_fraction=per_model,
    )
