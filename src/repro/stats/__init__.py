"""Statistics and theory modules.

Contains the correlation measures used by soft-FD detection, the
Kullback-Leibler uniformity test from Appendix B.3, quantile helpers shared
by the grid indexes, the Centre-Sequence Model (CSM) of Appendix B, and the
closed-form results of Section 7 (effectiveness, Theorems 7.1-7.4, and the
Appendix G grid comparison).
"""

from repro.stats.correlation import (
    pearson_correlation,
    soft_fd_strength,
)
from repro.stats.kl import kl_divergence_from_uniform, uniformity_score
from repro.stats.quantiles import quantile_boundaries
from repro.stats.csm import CentreSequence, build_centre_sequence, segment_stream
from repro.stats.theory import (
    effectiveness_ratio,
    expected_keys_per_segment,
    keys_per_segment_variance,
    expected_segment_count,
    grid_cells_scanned,
    scanned_area,
)
from repro.stats.profile import ColumnProfile, TableProfile, profile_table

__all__ = [
    "pearson_correlation",
    "soft_fd_strength",
    "kl_divergence_from_uniform",
    "uniformity_score",
    "quantile_boundaries",
    "CentreSequence",
    "build_centre_sequence",
    "segment_stream",
    "effectiveness_ratio",
    "expected_keys_per_segment",
    "keys_per_segment_variance",
    "expected_segment_count",
    "grid_cells_scanned",
    "scanned_area",
    "ColumnProfile",
    "TableProfile",
    "profile_table",
]
