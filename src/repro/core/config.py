"""Configuration of the COAX index and the sharded execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.fd.detection import DetectionConfig

__all__ = ["COAXConfig", "EngineConfig", "LayoutConfig", "MaintenanceConfig"]

#: Index types that may serve as the outlier index.
OUTLIER_INDEX_CHOICES: Tuple[str, ...] = ("sorted_cell_grid", "uniform_grid", "rtree", "full_scan")

#: Partitioning schemes the sharded engine supports.
PARTITIONING_CHOICES: Tuple[str, ...] = ("range", "hash")


@dataclass(frozen=True)
class MaintenanceConfig:
    """Refresh thresholds of drift-aware adaptive model maintenance.

    When ``enabled``, every inserted batch is streamed into a per-model
    :class:`~repro.fd.maintenance.ModelMonitor` (Bayesian posterior update
    plus outside-margin and residual-drift tracking), and each compaction
    consults the monitors to pick one of three refresh tiers per model:
    *reuse* (today's fast incremental compact), *re-estimate margins*
    (widen the band pre-emptively, no re-partition needed), or *refit*
    (replace the model from the refreshed posterior and re-partition the
    affected rows).  The escape prediction is Equation 9's mean first exit
    time of a drifting Brownian motion out of the margin band
    (:func:`repro.stats.theory.mean_first_exit_time_with_drift`).

    Disabled by default: the models then stay exactly as built, which is
    the paper's (static) setting.
    """

    #: Master switch; everything below is inert when False.
    enabled: bool = False
    #: Minimum streamed observations per model before any refresh decision
    #: (fewer observations always decide "reuse").
    min_observations: int = 256
    #: Residuals farther than this many margin-band widths from the line
    #: are treated as outliers and excluded from the posterior/drift
    #: statistics (the routing masks still count them as outside).
    update_band_factor: float = 3.0
    #: Re-estimate margins when the Equation-9 exit capacity drops below
    #: this fraction of the driftless capacity (drift is about to push the
    #: residual walk out of the band).
    remargin_capacity_ratio: float = 0.5
    #: Re-estimate margins when the streamed outside-margin fraction
    #: exceeds the build-time baseline by this much.
    remargin_outside_excess: float = 0.08
    #: Refit + re-partition when the streamed outside-margin fraction
    #: exceeds the build-time baseline by this much (the band has already
    #: escaped; widening alone cannot recover the primary fraction).
    refit_outside_excess: float = 0.25
    #: Refit when the refreshed posterior slope differs from the current
    #: model slope by this relative amount.
    refit_slope_shift: float = 0.25
    #: Refit when the refreshed posterior intercept moved by more than
    #: this many margin-band widths (the line itself has drifted away).
    refit_intercept_bands: float = 1.0
    #: Symmetric margin width of refreshed models, in posterior noise
    #: standard deviations (mirrors ``DetectionConfig.margin_sigmas``).
    margin_sigmas: float = 3.0

    def __post_init__(self) -> None:
        if self.min_observations < 2:
            raise ValueError("min_observations must be at least 2")
        if self.update_band_factor <= 0:
            raise ValueError("update_band_factor must be positive")
        if not 0.0 < self.remargin_capacity_ratio <= 1.0:
            raise ValueError("remargin_capacity_ratio must be in (0, 1]")
        for name in (
            "remargin_outside_excess",
            "refit_outside_excess",
            "refit_slope_shift",
            "refit_intercept_bands",
            "margin_sigmas",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.refit_outside_excess < self.remargin_outside_excess:
            raise ValueError(
                "refit_outside_excess must be at least remargin_outside_excess"
            )


@dataclass(frozen=True)
class LayoutConfig:
    """Workload-adaptive shard layout (``ShardedCOAX`` re-partitioning).

    When ``enabled``, the engine feeds a bounded sketch of recent query
    intervals on the partition dimension — plus per-shard hit / prune /
    rows-examined counters — into a
    :class:`~repro.core.layout.LayoutMonitor`.  At every *full*
    :meth:`~repro.core.engine.ShardedCOAX.compact` the monitor proposes
    new range boundaries (a weighted-quantile split of the query-mass
    histogram, optionally changing the shard count within
    ``[min_shards, max_shards]``) and the engine adopts them only when
    the cost model predicts at least a ``min_gain`` reduction of rows
    examined on the sketched workload.  Re-partitioning reuses the
    transactional reclaim-rebuild path, so results stay bit-identical
    across a layout change.

    Disabled by default: the partition boundaries then stay exactly as
    built (static quantiles of the build data), the paper's setting.
    """

    #: Master switch; everything below is inert when False.
    enabled: bool = False
    #: Ring-buffer capacity of sketched query intervals (older queries
    #: are overwritten, so the sketch tracks the *recent* workload).
    sketch_size: int = 512
    #: Resolution of the query-mass histogram the quantile split uses.
    histogram_bins: int = 64
    #: Minimum sketched queries before any proposal (fewer always vetoes).
    min_queries: int = 256
    #: Adopt a proposal only when ``old_cost / new_cost`` is at least
    #: this factor on the sketched workload (hysteresis against churn).
    min_gain: float = 1.2
    #: Smallest shard count a proposal may choose.
    min_shards: int = 1
    #: Largest shard count a proposal may choose; ``None`` keeps the
    #: current shard count as the ceiling (boundaries move, count fixed).
    max_shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sketch_size < 1:
            raise ValueError("sketch_size must be at least 1")
        if self.histogram_bins < 2:
            raise ValueError("histogram_bins must be at least 2")
        if self.min_queries < 1:
            raise ValueError("min_queries must be at least 1")
        if self.min_gain < 1.0:
            raise ValueError("min_gain must be at least 1.0")
        if self.min_shards < 1:
            raise ValueError("min_shards must be at least 1")
        if self.max_shards is not None and self.max_shards < self.min_shards:
            raise ValueError("max_shards must be at least min_shards")


@dataclass(frozen=True)
class COAXConfig:
    """All tuning knobs of the COAX build and query pipeline.

    The defaults follow the paper's described configuration: soft FDs are
    detected automatically, the primary index is a quantile grid file with a
    sorted dimension, and outliers go to a conventional multidimensional
    index over all attributes.
    """

    #: Soft-FD detection configuration (sampling, bucketing, thresholds).
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    #: Grid lines per dimension of the primary index.
    primary_cells_per_dim: int = 8
    #: Attribute sorted inside primary cells; ``None`` picks the predictor of
    #: the largest FD group automatically (Section 6 layout).
    primary_sort_dimension: Optional[str] = None
    #: Which structure holds the outliers (all dimensions are indexed there).
    outlier_index: str = "sorted_cell_grid"
    #: Node capacity when the outlier index is an R-Tree.
    outlier_node_capacity: int = 10
    #: Keep at most this many FD groups (the highest scoring ones); ``None``
    #: keeps all detected groups.
    max_groups: Optional[int] = None
    #: Warn (via the build report) when the primary index would retain less
    #: than this fraction of the data.
    min_primary_fraction: float = 0.5
    #: Compact automatically once this many inserted records are pending in
    #: the delta store; ``None`` disables auto-compaction (compaction is
    #: then entirely manual via :meth:`COAXIndex.compact`).
    auto_compact_threshold: Optional[int] = None
    #: Compact automatically once this fraction of the main-structure rows
    #: is tombstoned by deletes/updates (in ``(0, 1]``); ``None`` leaves
    #: tombstones in place until a manual :meth:`COAXIndex.compact`.
    auto_compact_tombstone_fraction: Optional[float] = None
    #: Drift-aware adaptive model maintenance (disabled by default — the
    #: learned models are then frozen at build time, the paper's setting).
    maintenance: MaintenanceConfig = field(default_factory=MaintenanceConfig)

    def __post_init__(self) -> None:
        if self.primary_cells_per_dim < 1:
            raise ValueError("primary_cells_per_dim must be at least 1")
        if self.outlier_index not in OUTLIER_INDEX_CHOICES:
            raise ValueError(
                f"outlier_index must be one of {OUTLIER_INDEX_CHOICES}, got {self.outlier_index!r}"
            )
        if self.max_groups is not None and self.max_groups < 0:
            raise ValueError("max_groups must be non-negative")
        if not 0.0 <= self.min_primary_fraction <= 1.0:
            raise ValueError("min_primary_fraction must be in [0, 1]")
        if self.auto_compact_threshold is not None and self.auto_compact_threshold < 1:
            raise ValueError("auto_compact_threshold must be at least 1 (or None)")
        if self.auto_compact_tombstone_fraction is not None and not (
            0.0 < self.auto_compact_tombstone_fraction <= 1.0
        ):
            raise ValueError(
                "auto_compact_tombstone_fraction must be in (0, 1] (or None)"
            )


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of the sharded scatter-gather engine (``ShardedCOAX``).

    The engine splits the table into ``n_shards`` horizontal partitions,
    each backed by its own :class:`~repro.core.coax.COAXIndex` built with
    the shared ``coax`` configuration, and scatters queries over a thread
    pool of ``workers`` (the NumPy kernels release the GIL; ``workers=1``
    is a strictly serial fallback with no pool at all).
    """

    #: Number of horizontal partitions.
    n_shards: int = 4
    #: ``"range"`` partitions on quantile boundaries of one attribute (best
    #: pruning for range workloads); ``"hash"`` spreads rows round-robin by
    #: row id (best write balance, no pruning structure).
    partitioning: str = "range"
    #: Attribute the range partitioner splits on; ``None`` picks the
    #: predictor of the largest FD group (the attribute query translation
    #: concentrates constraints on, so translated queries prune shards).
    partition_dimension: Optional[str] = None
    #: Scatter/build/compact thread-pool size; 1 disables the pool.
    workers: int = 1
    #: Scatter backend; ``"thread"`` (the worker thread pool) is the only
    #: one — the process executor was removed.
    executor: str = "thread"
    #: Configuration every per-shard COAX index is built with.
    coax: COAXConfig = field(default_factory=COAXConfig)
    #: Workload-adaptive layout (disabled by default: static boundaries).
    layout: LayoutConfig = field(default_factory=LayoutConfig)

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if self.layout.enabled and self.partitioning != "range":
            raise ValueError(
                "adaptive layout learns range boundaries; it requires "
                'partitioning="range"'
            )
        if self.partitioning not in PARTITIONING_CHOICES:
            raise ValueError(
                f"partitioning must be one of {PARTITIONING_CHOICES}, "
                f"got {self.partitioning!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.executor != "thread":
            raise ValueError(
                'the process executor was removed; executor must be "thread", '
                f"got {self.executor!r}"
            )
