"""Dataset profiling: the "what would COAX do with my data?" report.

Before building an index it is useful to know which attributes correlate,
how skewed each attribute is (the CSM analysis assumes a roughly uniform
predictor, Appendix B.3), and how many dimensions COAX could eliminate.
:func:`profile_table` gathers exactly that into a plain report object that
examples, the CLI and downstream users can print or inspect programmatically
— without building any index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.table import Table
from repro.stats.correlation import pearson_correlation
from repro.stats.kl import uniformity_score

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package-level cycle
    from repro.fd.detection import DetectionConfig, FDCandidate
    from repro.fd.groups import FDGroup

__all__ = ["ColumnProfile", "TableProfile", "profile_table"]


@dataclass(frozen=True)
class ColumnProfile:
    """Summary statistics of one attribute."""

    name: str
    minimum: float
    maximum: float
    mean: float
    std: float
    n_distinct: int
    uniformity: float


@dataclass
class TableProfile:
    """Full profiling report of a table."""

    n_rows: int
    columns: List[ColumnProfile]
    #: Pearson correlation for every unordered attribute pair.
    correlations: Dict[Tuple[str, str], float]
    #: Accepted soft-FD candidates (best direction per pair).
    candidates: List["FDCandidate"]
    #: The groups COAX would form, predictor first.
    groups: List["FDGroup"]

    @property
    def n_dims(self) -> int:
        """Number of attributes profiled."""
        return len(self.columns)

    @property
    def predicted_attributes(self) -> Tuple[str, ...]:
        """Attributes COAX would predict instead of indexing."""
        predicted: List[str] = []
        for group in self.groups:
            predicted.extend(group.dependents)
        return tuple(sorted(predicted))

    @property
    def indexed_dimensions(self) -> int:
        """Dimensions left to index after removing the predicted attributes."""
        return self.n_dims - len(self.predicted_attributes)

    def column(self, name: str) -> ColumnProfile:
        """Profile of one attribute."""
        for profile in self.columns:
            if profile.name == name:
                return profile
        raise KeyError(f"unknown column {name!r}")

    def describe(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"rows: {self.n_rows}", f"attributes: {self.n_dims}", "", "columns:"]
        for profile in self.columns:
            lines.append(
                f"  {profile.name:20s} range [{profile.minimum:.4g}, {profile.maximum:.4g}]  "
                f"std {profile.std:.4g}  distinct {profile.n_distinct}  "
                f"uniformity {profile.uniformity:.2f}"
            )
        strong = sorted(
            ((pair, value) for pair, value in self.correlations.items() if abs(value) >= 0.5),
            key=lambda item: -abs(item[1]),
        )
        lines.append("")
        lines.append("strong pairwise correlations (|r| >= 0.5):")
        if strong:
            for (left, right), value in strong:
                lines.append(f"  {left} ~ {right}: r = {value:+.3f}")
        else:
            lines.append("  (none)")
        lines.append("")
        lines.append("soft functional dependencies COAX would use:")
        if self.groups:
            for group in self.groups:
                lines.append(f"  {group.predictor} -> {', '.join(group.dependents)}")
            lines.append(
                f"dimensionality: {self.n_dims} -> {self.indexed_dimensions} indexed "
                f"({len(self.predicted_attributes)} predicted)"
            )
        else:
            lines.append("  (none detected — COAX would degenerate to a plain grid file)")
        return "\n".join(lines)


def _profile_column(name: str, values: np.ndarray) -> ColumnProfile:
    if len(values) == 0:
        return ColumnProfile(name, 0.0, 0.0, 0.0, 0.0, 0, 0.0)
    return ColumnProfile(
        name=name,
        minimum=float(values.min()),
        maximum=float(values.max()),
        mean=float(values.mean()),
        std=float(values.std()),
        n_distinct=int(len(np.unique(values))),
        uniformity=uniformity_score(values),
    )


def profile_table(
    table: Table,
    *,
    columns: Optional[Sequence[str]] = None,
    detection: Optional["DetectionConfig"] = None,
    sample_rows: int = 20_000,
    seed: int = 0,
) -> TableProfile:
    """Profile ``table``: per-column statistics, correlations, soft FDs and groups.

    ``sample_rows`` caps the number of rows used for the pairwise statistics
    so profiling stays cheap on large tables (the soft-FD detector applies
    its own sampling on top, per Algorithm 1).
    """
    # Imported here (not at module level): repro.fd.detection itself uses
    # repro.stats.csm, so a module-level import would create a package cycle.
    from repro.fd.detection import DetectionConfig, detect_soft_fds, evaluate_pair
    from repro.fd.groups import build_groups

    names = list(columns) if columns is not None else list(table.schema)
    rng = np.random.default_rng(seed)
    sampled = table if table.n_rows <= sample_rows else table.sample(sample_rows, rng)

    column_profiles = [_profile_column(name, sampled.column(name)) for name in names]

    correlations: Dict[Tuple[str, str], float] = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            left, right = names[i], names[j]
            correlations[(left, right)] = pearson_correlation(
                sampled.column(left), sampled.column(right)
            )

    config = detection or DetectionConfig()
    candidates = detect_soft_fds(sampled, config=config, columns=names)

    def fit_pair(predictor: str, dependent: str):
        return evaluate_pair(
            sampled.column(predictor),
            sampled.column(dependent),
            predictor=predictor,
            dependent=dependent,
            config=config,
        )

    groups = build_groups(candidates, fit_pair)
    return TableProfile(
        n_rows=table.n_rows,
        columns=column_profiles,
        correlations=correlations,
        candidates=candidates,
        groups=groups,
    )
