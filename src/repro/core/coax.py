"""The COAX index (the paper's primary contribution).

``COAXIndex`` combines every piece of the pipeline:

1. soft-FD detection and grouping over the build data (Section 5);
2. the inlier/outlier partition with respect to the learned models
   (Algorithm 1);
3. a *primary* index — a quantile grid file with an in-cell sorted
   dimension — built only on the predictor attributes of the inlier
   records (Section 6);
4. an *outlier* index — a conventional multidimensional index over all
   attributes — holding the records that violate some margin;
5. query translation and planning (Section 4), with exact post-filtering so
   results are always identical to a full scan.

Updates (future work in the paper) are supported through a columnar delta
store (:mod:`repro.core.delta`): inserted batches are routed by the learned
models with one vectorised margin check per model, buffered in NumPy append
buffers that query execution scans vectorised, and folded into the main
structures incrementally by :meth:`COAXIndex.compact` — the learned FD
groups, the inlier/outlier routing and the primary grid's quantile
boundaries are all reused, so compaction merges instead of rebuilding.

Deletes and in-place updates complete the CRUD surface in the delta-store
tradition: :meth:`COAXIndex.delete_batch` tombstones main-structure rows in
their sub-index's bitmap (``O(k log n)`` per batch, immediately visible
because every read path masks tombstoned positions next to its exact
post-filter) and removes pending rows from the delta buffers in place;
:meth:`COAXIndex.update_batch` is delete + reinsert under the *same* row
ids.  A compaction that sees tombstones physically reclaims them — the
live rows are rebuilt into fresh structures, and partition fractions and
bounding boxes are recomputed from them — and can be triggered
automatically via ``COAXConfig.auto_compact_tombstone_fraction``.

The primary and the outlier index are the only place a COAX index stores
records: every row sits in exactly one of them (or, until compaction, in
the delta store) and carries its id there.  Ids are labels, not table
positions: they are stable for the lifetime of a record, deletion retires
an id forever and compaction never renumbers.  The facade keeps the
schema, never the table it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import COAXConfig
from repro.core.delta import BatchLike, DeltaStore, coerce_batch
from repro.core.partitioner import PartitionResult, partition_rows
from repro.core.planner import bounding_box_of_columns, box_overlaps, merge_boxes
from repro.core.query_translation import (
    dependent_attributes,
    rewritten_queries_from_bounds,
    translate_bounds_batch,
    translate_query,
)
from repro.core.results import QueryResult, merge_flat_row_ids, merge_row_ids
from repro.data.executors import Aggregate, AggregatePartial, TopK, merge_topk
from repro.data.predicates import Rectangle, batch_bounds
from repro.data.table import Table
from repro.fd.detection import DetectionConfig, FDCandidate, detect_soft_fds, evaluate_pair
from repro.fd.groups import FDGroup, build_groups
from repro.fd.maintenance import REFIT, REUSE, MaintenanceManager
from repro.indexes.base import IndexBuildError, MultidimensionalIndex, QueryStats
from repro.indexes.grid_file import SortedCellGridIndex, fitted_shape
from repro.indexes.rtree import RTreeIndex
from repro.indexes.uniform_grid import UniformGridIndex
from repro.indexes.full_scan import FullScanIndex

__all__ = ["COAXIndex", "COAXBuildReport", "learn_groups"]

#: Rows per cell the outlier grid's derived shape aims at.
OUTLIER_ROWS_PER_CELL = 24
#: The outlier grid never has more cells than this many per axis would
#: give (the fixed count the derived shape replaced).
OUTLIER_CELLS_PER_AXIS_CAP = 4
#: Rows sampled to fit the outlier grid's shape.
OUTLIER_SHAPE_SAMPLE = 2048
#: Compaction re-fits the outlier grid instead of absorbing into it once
#: its rows would allow this many times its cells: rows per cell stay
#: within this factor of the aim, and rebuilds are amortised over growth.
OUTLIER_REFIT_GROWTH = 4

#: The flat ``(row ids, query ids)`` part of a store no query routes to.
_NO_MATCHES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def learn_groups(
    table: Table,
    detection: DetectionConfig,
    dimensions: Sequence[str],
) -> List[FDGroup]:
    """Soft-FD detection and grouping over ``table`` (build-time entry point).

    Shared by :class:`COAXIndex` (when no groups are given) and the sharded
    engine, which learns the groups *once* over the full table and hands the
    same models to every shard — per-shard detection would make the shards'
    translation semantics diverge.
    """
    candidates = detect_soft_fds(table, config=detection, columns=dimensions)

    def fit_pair(predictor: str, dependent: str) -> Optional[FDCandidate]:
        return evaluate_pair(
            table.column(predictor),
            table.column(dependent),
            predictor=predictor,
            dependent=dependent,
            config=detection,
        )

    return build_groups(candidates, fit_pair)


@dataclass
class COAXBuildReport:
    """Summary of one COAX build, used by benchmarks, the CLI and tests."""

    n_rows: int
    groups: List[FDGroup]
    primary_ratio: float
    per_model_inlier_fraction: Dict[str, float]
    indexed_dimensions: Tuple[str, ...]
    predicted_dimensions: Tuple[str, ...]
    primary_sort_dimension: str
    #: n - m - 1 in the paper's notation (grid dimensions of the primary index).
    primary_grid_dimensions: Tuple[str, ...]
    warnings: List[str] = field(default_factory=list)

    @property
    def n_groups(self) -> int:
        """Number of FD groups in use."""
        return len(self.groups)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"rows indexed            : {self.n_rows}",
            f"FD groups               : {self.n_groups}",
        ]
        for group in self.groups:
            lines.append(
                f"  {group.predictor} -> {', '.join(group.dependents)}"
            )
        lines.extend(
            [
                f"indexed dimensions      : {', '.join(self.indexed_dimensions)}",
                f"predicted dimensions    : {', '.join(self.predicted_dimensions) or '(none)'}",
                f"primary sort dimension  : {self.primary_sort_dimension}",
                f"primary grid dimensions : {', '.join(self.primary_grid_dimensions) or '(none)'}",
                f"primary index ratio     : {self.primary_ratio:.1%}",
            ]
        )
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


class COAXIndex(MultidimensionalIndex):
    """Correlation-aware multidimensional primary index."""

    def __init__(
        self,
        table: Table,
        *,
        config: Optional[COAXConfig] = None,
        groups: Optional[Sequence[FDGroup]] = None,
        row_ids: Optional[np.ndarray] = None,
        dimensions: Optional[Sequence[str]] = None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        """Build over the rows of ``table`` that ``row_ids`` selects (default:
        all of them); each row carries its id from ``ids`` (default: its
        table position)."""
        self._init_state(table.schema, self._checked_dimensions(table, dimensions))
        self._config = config if config is not None else COAXConfig()
        config = self._config
        warnings: List[str] = []
        positions = (
            np.arange(table.n_rows, dtype=np.int64)
            if row_ids is None
            else np.asarray(row_ids, dtype=np.int64)
        )
        labels = positions if ids is None else np.asarray(ids, dtype=np.int64)
        if len(labels) != len(positions):
            raise IndexBuildError(f"{len(labels)} ids given for {len(positions)} rows")

        # ------------------------------------------------------------------
        # 1. Learn (or accept) the soft-FD groups.
        # ------------------------------------------------------------------
        if groups is None:
            build_table = table if row_ids is None else table.take(positions)
            learned_groups = self._detect_groups(build_table, config.detection)
        else:
            learned_groups = list(groups)
        if config.max_groups is not None:
            learned_groups = learned_groups[: config.max_groups]
        # Drop groups whose attributes are outside the indexed dimensions.
        usable_groups = [
            group
            for group in learned_groups
            if all(attr in self._dimensions for attr in group.attributes)
        ]
        if len(usable_groups) != len(learned_groups):
            warnings.append("dropped FD groups referencing non-indexed attributes")
        self._groups: List[FDGroup] = usable_groups

        # ------------------------------------------------------------------
        # 2. Partition rows into inliers and outliers.
        # ------------------------------------------------------------------
        inliers, partition = partition_rows(table, self._groups, row_ids=row_ids)
        self._partition = partition
        if partition.primary_ratio < config.min_primary_fraction:
            warnings.append(
                f"primary index retains only {partition.primary_ratio:.1%} of the data; "
                "the soft FDs may be too weak for COAX to pay off"
            )

        # ------------------------------------------------------------------
        # 3. Decide the reduced dimensionality of the primary index.
        # ------------------------------------------------------------------
        predicted = dependent_attributes(self._groups)
        indexed_dims = tuple(dim for dim in self._dimensions if dim not in predicted)
        sort_dim = config.primary_sort_dimension or self._default_sort_dimension(indexed_dims)
        if sort_dim not in indexed_dims:
            raise IndexBuildError(
                f"primary sort dimension {sort_dim!r} must be one of the indexed dimensions "
                f"{indexed_dims}"
            )
        self._indexed_dims = indexed_dims
        self._predicted_dims = tuple(sorted(predicted))
        self._sort_dim = sort_dim

        # ------------------------------------------------------------------
        # 4. Build the primary and the outlier index: each gathers its own
        #    rows from the table, and from then on they are the only copy.
        # ------------------------------------------------------------------
        self._primary = SortedCellGridIndex(
            table,
            cells_per_dim=config.primary_cells_per_dim,
            sort_dimension=sort_dim,
            row_ids=positions[inliers],
            dimensions=indexed_dims,
            ids=None if ids is None else labels[inliers],
        )
        self._outlier = self._build_outlier_index(
            table, positions[~inliers], None if ids is None else labels[~inliers]
        )
        self._set_boxes(self._box_of(self._primary), self._box_of(self._outlier))

        # ------------------------------------------------------------------
        # 5. Columnar delta store for inserted records (update support).
        # ------------------------------------------------------------------
        self._delta = DeltaStore(self._schema, self._groups)
        self._next_row_id = (
            int(table.n_rows) if ids is None else int(labels.max(initial=-1)) + 1
        )

        # ------------------------------------------------------------------
        # 6. Drift-aware model maintenance (optional; see fd.maintenance).
        # ------------------------------------------------------------------
        self._maintenance: Optional[MaintenanceManager] = None
        if config.maintenance.enabled and self._groups:
            self._maintenance = MaintenanceManager(
                self._groups,
                config.maintenance,
                partition.per_model_inlier_fraction,
            )

        self._report = COAXBuildReport(
            n_rows=self.n_rows,
            groups=list(self._groups),
            primary_ratio=partition.primary_ratio,
            per_model_inlier_fraction=dict(partition.per_model_inlier_fraction),
            indexed_dimensions=indexed_dims,
            predicted_dimensions=self._predicted_dims,
            primary_sort_dimension=sort_dim,
            primary_grid_dimensions=self._primary.grid_dimensions,
            warnings=warnings,
        )

    # ------------------------------------------------------------------
    # Structured restore (format v6)
    # ------------------------------------------------------------------
    @classmethod
    def _restore_structured(
        cls,
        *,
        config: COAXConfig,
        groups: Sequence[FDGroup],
        dimensions: Sequence[str],
        per_model_inlier_fraction: Mapping[str, float],
        indexed_dims: Sequence[str],
        predicted_dims: Sequence[str],
        sort_dim: str,
        primary: SortedCellGridIndex,
        outlier: MultidimensionalIndex,
        primary_box,
        outlier_box,
        report_warnings: Sequence[str] = (),
    ) -> "COAXIndex":
        """Reattach a COAX index from persisted derived state — no rebuild.

        Structured (format v6+) restore: the pre-built primary and outlier
        indexes, the bounding boxes and the per-model inlier fractions are
        adopted verbatim, so no FD model is evaluated and nothing is
        re-sorted — cold start is O(metadata).  The caller re-applies
        tombstones, delta state and drift-monitor state afterwards, exactly
        like the rebuild path does.
        """
        index = cls.__new__(cls)
        index._init_state(primary.schema, dimensions)
        index._config = config
        index._groups = list(groups)
        index._partition = PartitionResult(
            n_inliers=primary.n_rows,
            n_outliers=outlier.n_rows,
            per_model_inlier_fraction=dict(per_model_inlier_fraction),
        )
        index._indexed_dims = tuple(indexed_dims)
        index._predicted_dims = tuple(predicted_dims)
        index._sort_dim = sort_dim
        index._primary = primary
        index._outlier = outlier
        index._set_boxes(primary_box, outlier_box)
        index._delta = DeltaStore(index._schema, index._groups)
        index._next_row_id = index.n_rows
        index._maintenance = None
        if config.maintenance.enabled and index._groups:
            index._maintenance = MaintenanceManager(
                index._groups,
                config.maintenance,
                index._partition.per_model_inlier_fraction,
            )
        index._report = COAXBuildReport(
            n_rows=index.n_rows,
            groups=list(index._groups),
            primary_ratio=index._partition.primary_ratio,
            per_model_inlier_fraction=dict(index._partition.per_model_inlier_fraction),
            indexed_dimensions=index._indexed_dims,
            predicted_dimensions=index._predicted_dims,
            primary_sort_dimension=sort_dim,
            primary_grid_dimensions=index._primary.grid_dimensions,
            warnings=list(report_warnings),
        )
        return index

    # ------------------------------------------------------------------
    # Build helpers
    # ------------------------------------------------------------------
    def _detect_groups(self, table: Table, detection: DetectionConfig) -> List[FDGroup]:
        """Run soft-FD detection and grouping over the build table."""
        return learn_groups(table, detection, self._dimensions)

    def _default_sort_dimension(self, indexed_dims: Tuple[str, ...]) -> str:
        """Pick the in-cell sorted attribute of the primary index.

        The predictor of the largest FD group is preferred: queries on that
        group (direct or translated) reduce to a binary search, which is
        where COAX gains the most.  Without groups the first indexed
        dimension is used.
        """
        if not indexed_dims:
            raise IndexBuildError("COAX needs at least one indexed (non-predicted) dimension")
        for group in sorted(self._groups, key=lambda g: -g.n_attributes):
            if group.predictor in indexed_dims:
                return group.predictor
        return indexed_dims[0]

    def _build_outlier_index(
        self, table: Table, positions: Optional[np.ndarray], ids: Optional[np.ndarray]
    ) -> MultidimensionalIndex:
        """Instantiate the configured outlier index over all dimensions,
        holding the rows of ``table`` at ``positions`` (default: all) under
        ``ids`` (default: their positions).

        A grid is sized from its rows: about ``OUTLIER_ROWS_PER_CELL`` rows
        per cell, never more cells than ``OUTLIER_CELLS_PER_AXIS_CAP`` per
        axis would give.  The sorted-cell grid spends that budget per axis
        (:func:`repro.indexes.grid_file.fitted_shape` over a sample of the
        rows); the uniform grid takes the largest equal count within it.
        """
        kind = self._config.outlier_index
        n_rows = table.n_rows if positions is None else len(positions)
        if kind == "sorted_cell_grid":
            sort_dim = self._sort_dim if self._sort_dim in self._dimensions else self._dimensions[-1]
            grid_dims = [dim for dim in self._dimensions if dim != sort_dim]
            picked = np.linspace(0, n_rows - 1, min(n_rows, OUTLIER_SHAPE_SAMPLE)).astype(np.int64)
            if positions is not None:
                picked = np.asarray(positions, dtype=np.int64)[picked]
            shape = fitted_shape(
                [table.column(dim)[picked] for dim in grid_dims],
                self._outlier_cell_budget(n_rows, len(grid_dims)),
            )
            return SortedCellGridIndex(
                table,
                cells_per_dim=shape,
                sort_dimension=sort_dim,
                row_ids=positions,
                dimensions=self._dimensions,
                ids=ids,
            )
        if kind == "uniform_grid":
            return UniformGridIndex(
                table,
                cells_per_dim=OUTLIER_CELLS_PER_AXIS_CAP,
                max_cells=self._outlier_cell_budget(n_rows, len(self._dimensions)),
                row_ids=positions,
                dimensions=self._dimensions,
                ids=ids,
            )
        if kind == "rtree":
            return RTreeIndex(
                table,
                node_capacity=self._config.outlier_node_capacity,
                row_ids=positions,
                dimensions=self._dimensions,
                ids=ids,
            )
        if kind == "full_scan":
            return FullScanIndex(
                table, row_ids=positions, dimensions=self._dimensions, ids=ids
            )
        raise IndexBuildError(f"unknown outlier index type {kind!r}")

    @staticmethod
    def _outlier_cell_budget(n_rows: int, n_axes: int) -> int:
        """Most cells an outlier grid over ``n_rows`` rows and ``n_axes``
        grid axes may have."""
        return max(1, min(OUTLIER_CELLS_PER_AXIS_CAP**n_axes, n_rows // OUTLIER_ROWS_PER_CELL))

    def _box_of(
        self, index: MultidimensionalIndex
    ) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
        """Bounding box of a sub-index's rows, read from its own columns."""
        return bounding_box_of_columns({name: index.column(name) for name in self._schema})

    def _set_boxes(
        self,
        primary_box: Optional[Tuple[Dict[str, float], Dict[str, float]]],
        outlier_box: Optional[Tuple[Dict[str, float], Dict[str, float]]],
    ) -> None:
        """Adopt the sub-indexes' bounding boxes, together with the array
        form :meth:`_plan_batch` compares against.

        ``_box_bounds`` is ``(outlier, primary) x (low, high) x (schema
        attributes + 1)``; the last column spans ``(-inf, inf)`` and stands
        for every queried attribute a box does not carry.  A ``None`` box
        (an empty row set) is left to the planner.
        """
        self._primary_box = primary_box
        self._outlier_box = outlier_box
        self._box_column = {name: i for i, name in enumerate(self._schema)}
        sides = []
        for box in (outlier_box, primary_box):
            lows, highs = box if box is not None else ({}, {})
            sides.append(
                (
                    [lows.get(name, -np.inf) for name in self._schema] + [-np.inf],
                    [highs.get(name, np.inf) for name in self._schema] + [np.inf],
                )
            )
        self._box_bounds = np.array(sides, dtype=np.float64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> COAXConfig:
        """The configuration the index was built with."""
        return self._config

    @property
    def groups(self) -> Tuple[FDGroup, ...]:
        """The FD groups in use."""
        return tuple(self._groups)

    @property
    def primary_index(self) -> SortedCellGridIndex:
        """The reduced-dimensionality primary index over the inliers."""
        return self._primary

    @property
    def outlier_index(self) -> MultidimensionalIndex:
        """The conventional index over the outliers."""
        return self._outlier

    @property
    def partition(self) -> PartitionResult:
        """The inlier/outlier partition of the build data."""
        return self._partition

    @property
    def primary_box(self) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
        """Bounding box of the inlier (primary-index) rows; ``None`` if empty.

        A conservative hull: incremental compaction only grows it and
        tombstones do not shrink it until a reclaiming compaction rebuilds
        it from survivors.  The sharded engine prunes whole shards against
        it.
        """
        return self._primary_box

    @property
    def outlier_box(self) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
        """Bounding box of the outlier rows; ``None`` if empty (same hull
        semantics as :attr:`primary_box`)."""
        return self._outlier_box

    @property
    def build_report(self) -> COAXBuildReport:
        """Summary of the build (groups, ratios, layout, warnings)."""
        return self._report

    @property
    def primary_ratio(self) -> float:
        """Fraction of records held by the primary index."""
        return self._partition.primary_ratio

    @property
    def delta(self) -> DeltaStore:
        """The columnar delta store holding not-yet-compacted inserts."""
        return self._delta

    @property
    def maintenance(self) -> Optional[MaintenanceManager]:
        """Drift monitors of the learned models (``None`` when disabled)."""
        return self._maintenance

    @property
    def next_row_id(self) -> int:
        """Row id the next inserted record will be assigned."""
        return self._next_row_id

    @property
    def n_pending(self) -> int:
        """Number of inserted records still sitting in the delta store."""
        return self._delta.n_pending

    @property
    def n_pending_primary(self) -> int:
        """Pending records the learned models route to the primary index."""
        return self._delta.n_pending_primary

    @property
    def n_pending_outlier(self) -> int:
        """Pending records violating some margin (outlier-bound)."""
        return self._delta.n_pending_outlier

    # ------------------------------------------------------------------
    # Rows: held by the two sub-indexes (plus the delta store, pending)
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Records covered by the main structures (live and tombstoned)."""
        return self._primary.n_rows + self._outlier.n_rows

    @property
    def n_tombstoned(self) -> int:
        """Covered records marked deleted but not yet reclaimed."""
        return self._primary.n_tombstoned + self._outlier.n_tombstoned

    @property
    def tombstone_mask(self) -> Optional[np.ndarray]:
        """Tombstones live in each sub-index; the facade keeps no bitmap."""
        return None

    @property
    def row_ids(self) -> np.ndarray:
        """Ids of the records covered by the main structures (sorted)."""
        return np.sort(np.concatenate([self._primary.row_ids, self._outlier.row_ids]))

    def live_row_ids(self) -> np.ndarray:
        """Ids of the covered records that are still live (sorted)."""
        return np.sort(
            np.concatenate([self._primary.live_row_ids(), self._outlier.live_row_ids()])
        )

    def rows_live(self, row_ids: np.ndarray) -> np.ndarray:
        """Which of ``row_ids`` are covered and not tombstoned (one binary
        search per sub-index)."""
        return self._primary.rows_live(row_ids) | self._outlier.rows_live(row_ids)

    def positions_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Positions of the covered ``row_ids`` within :attr:`row_ids`;
        other ids are dropped."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        covered = self.row_ids
        if len(row_ids) == 0 or len(covered) == 0:
            return np.empty(0, dtype=np.int64)
        located = np.minimum(np.searchsorted(covered, row_ids), len(covered) - 1)
        return located[covered[located] == row_ids]

    def column(self, name: str) -> np.ndarray:
        """Not provided: the records live in the sub-indexes."""
        raise NotImplementedError(
            "COAXIndex keeps no column copies of its own; read "
            "primary_index.column() and outlier_index.column(), or live_rows()"
        )

    def live_rows(
        self, names: Optional[Sequence[str]] = None
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Every live record, main-structure and pending, with its id.

        Returns ``(columns, ids)`` in ascending id order; ``names``
        restricts the columns (default: the whole schema).  Main rows
        come from the sub-indexes' own columns minus their tombstones,
        pending rows from the delta buffers.  A row updated in place is
        tombstoned in its sub-index and re-buffered under the same id, so
        the sources are disjoint and together they are exactly the live
        set.  This is the one gather of live rows: reclaiming compaction
        rebuilds from it, and so does the engine's re-layout.
        """
        names = self._schema if names is None else tuple(names)
        parts = [
            _live_part(self._primary, names),
            _live_part(self._outlier, names),
            ({name: self._delta.column(name) for name in names}, self._delta.row_ids),
        ]
        return _concat_by_id(parts, names)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: Rectangle) -> QueryResult:
        """Full query execution returning per-sub-index attribution: a
        batch of one, with each store's part of the flat stream kept apart."""
        queries = [query]
        plan = self._plan_batch(queries)
        if plan is None:
            self.stats.record()
            return QueryResult(
                row_ids=np.empty(0, dtype=np.int64),
                indexes_used={"primary": False, "outlier": False},
            )
        _, _, _, use_primary, use_outlier, _ = plan
        primary_ids, outlier_ids, pending_ids = (
            np.sort(ids) for ids, _ in self._scatter_parts(queries, *plan)
        )
        return QueryResult(
            row_ids=merge_row_ids([primary_ids, outlier_ids, pending_ids]),
            primary_row_ids=primary_ids,
            outlier_row_ids=outlier_ids,
            pending_row_ids=pending_ids,
            indexes_used={"primary": bool(use_primary[0]), "outlier": bool(use_outlier[0])},
        )

    def range_query(self, query: Rectangle) -> np.ndarray:
        """Original row ids of records matching ``query`` exactly (a batch
        of one)."""
        return self.batch_range_query([query])[0]

    def batch_range_query(self, queries: Sequence[Rectangle]) -> List[np.ndarray]:
        """Original row ids for every query of a batch, sharing work batch-wide.

        True batch execution across every layer: the whole batch is planned
        and translated in one vectorized pass over its columnar bound
        matrices (:meth:`_plan_batch`), each sub-index receives *one*
        batched call covering every query routed to it (the grid family
        executes those with its own vectorized batch kernels), and the
        delta store is matched once on the same bound matrices.
        Results are positionally aligned and identical to
        ``[range_query(q) for q in queries]``.
        """
        queries = list(queries)
        plan = self._plan_batch(queries)
        if plan is None:
            return [np.empty(0, dtype=np.int64) for _ in queries]
        ids, qids = self.batch_scatter_flat(queries, *plan)
        return merge_flat_row_ids(ids, qids, len(queries))

    def _plan_batch(self, queries: List[Rectangle]) -> Optional[tuple]:
        """Plan a whole batch against this index (``None`` when no query
        is live).

        COAX's one planner: every read of one index, a single rectangle
        included, starts here.  Returns the leading arguments of
        :meth:`batch_scatter_flat` / :meth:`batch_scatter_aggregate` for
        the full batch: ``(slots, bounds, translated_bounds, use_primary,
        use_outlier, n_live)``.  Translation is Equation 2 as array
        arithmetic over the columnar bound matrices.  The original and the
        translated bounds are stacked into one array, which gives the live
        mask and, in one broadcast against the two stacked sub-index
        boxes, both routing masks: the outlier index sees the live queries
        that meet its box, the primary the live ones whose translated
        rectangle meets its box and leaves some inlier possible.
        """
        n_queries = len(queries)
        bounds = batch_bounds(queries)
        translated, no_inlier = translate_bounds_batch(bounds, n_queries, self._groups)
        # The queried attributes, then any group predictor none constrains.
        dims = list(translated)
        free = (
            (np.full(n_queries, -np.inf), np.full(n_queries, np.inf))
            if len(dims) > len(bounds)
            else None
        )
        # (original, translated) x dims x (low, high) x queries
        stacked = np.array(
            [side for dim in dims for side in bounds.get(dim, free)]
            + [side for dim in dims for side in translated[dim]]
        ).reshape(2, len(dims), 2, n_queries)
        live = ~np.logical_or.reduce(stacked[0, :, 0] > stacked[0, :, 1], axis=0)
        n_live = int(np.count_nonzero(live))
        if n_live == 0:
            return None
        columns = [self._box_column.get(dim, -1) for dim in dims]
        flags = box_overlaps(stacked, self._box_bounds[:, :, columns])
        flags &= live
        use_outlier, use_primary = flags
        use_primary &= ~no_inlier
        if self._outlier_box is None:
            use_outlier[:] = False
        if self._primary_box is None:
            use_primary[:] = False
        slots = np.arange(n_queries, dtype=np.int64)
        return slots, bounds, translated, use_primary, use_outlier, n_live

    def batch_scatter_flat(
        self,
        queries: Sequence[Rectangle],
        slots: np.ndarray,
        bounds,
        translated_bounds,
        use_primary: np.ndarray,
        use_outlier: np.ndarray,
        n_live: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Execute a pre-planned columnar sub-batch, returning flat streams.

        The execution core shared by :meth:`batch_range_query` and the
        sharded engine's scatter step.  ``slots`` selects the sub-batch out
        of ``queries``; ``bounds`` / ``translated_bounds`` and the planner
        flags are positionally aligned with ``slots`` (the caller has
        already translated and planned, so nothing is re-derived here —
        the engine pays batch translation once for all shards).  Returns
        ``(row_ids, sub_qids)`` where ``sub_qids[j]`` indexes into
        ``slots``; the caller owns the fused-key merge, so a scatter over
        many shards merges once globally instead of once per shard.
        """
        parts = self._scatter_parts(
            queries, slots, bounds, translated_bounds, use_primary, use_outlier, n_live
        )
        return (
            np.concatenate([ids for ids, _ in parts]),
            np.concatenate([qids for _, qids in parts]),
        )

    def _scatter_parts(
        self,
        queries: Sequence[Rectangle],
        slots: np.ndarray,
        bounds,
        translated_bounds,
        use_primary: np.ndarray,
        use_outlier: np.ndarray,
        n_live: int,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The ``(row ids, sub_qids)`` part of each store — primary,
        outlier, pending, in that order — of :meth:`batch_scatter_flat`.

        :meth:`query` reads its attribution from the parts.  Statistics
        are recorded once for the sub-batch; ``rows_matched`` is the total
        part length, which equals the merged count because the primary,
        outlier and pending result sets are disjoint by construction
        (disjoint row-id coverage, and a pending id that also exists in the
        main structures is tombstoned there).
        """
        n_sub = len(slots)
        before = self._sub_index_stats()

        # One batched call per sub-index.  The primary consumes the
        # translated bound matrices directly (it is always a sorted-cell
        # grid); so does a grid-family outlier index, while other outlier
        # structures fall back to their rectangle-level batch entry point.
        # A sub-index no query routes to is not called: it would record an
        # empty batch, which changes no counter.
        parts = [_NO_MATCHES, _NO_MATCHES, _NO_MATCHES]
        all_qids = np.arange(n_sub, dtype=np.int64)
        n_primary = int(np.count_nonzero(use_primary))
        if n_primary:
            ids, counts = self._primary.batch_flat_from_bounds(
                translated_bounds, n_sub, use_primary, n_primary
            )
            parts[0] = ids, all_qids.repeat(counts)
        n_outlier = int(np.count_nonzero(use_outlier))
        if n_outlier and isinstance(self._outlier, SortedCellGridIndex):
            ids, counts = self._outlier.batch_flat_from_bounds(
                bounds, n_sub, use_outlier, n_outlier
            )
            parts[1] = ids, all_qids.repeat(counts)
        elif n_outlier:
            outlier_slots = np.flatnonzero(use_outlier)
            batch = [queries[slots[i]] for i in outlier_slots]
            ids, counts = self._outlier.batch_range_query_flat(batch)
            parts[1] = ids, outlier_slots.repeat(counts)

        # One delta-store pass for the whole sub-batch.
        if self._delta.n_pending:
            parts[2] = self._delta.scan_batch(bounds, n_sub)

        work = self._sub_index_stats().delta(before)
        # Every live (non-empty) query of the batch examines the whole
        # pending buffer (a vectorised rectangle check over all of it), so
        # those rows count as examined: otherwise benchmarks under-report
        # the work of un-compacted inserts.
        self.stats.record_batch(
            n_live,
            rows_examined=work.rows_examined + self._delta.n_pending * n_live,
            rows_matched=sum(len(ids) for ids, _ in parts),
            cells_visited=work.cells_visited,
        )
        return parts

    # ------------------------------------------------------------------
    # Executors: aggregate pushdown and top-k/kNN across all three stores
    # ------------------------------------------------------------------
    def batch_aggregate_partial(
        self, queries: Sequence[Rectangle], spec: Aggregate
    ) -> AggregatePartial:
        """Per-query aggregate accumulators merged across primary/outlier/delta.

        The aggregate twin of :meth:`batch_range_query`: the batch is
        translated and planned once, each sub-index folds its routed
        sub-batch with its own pushdown (the grid family folds candidate
        runs without gathering ids), the delta store folds the pending
        rows in one blocked broadcast, and the three partials merge
        component-wise — exact because the row subsets are disjoint.
        """
        queries = list(queries)
        plan = self._plan_batch(queries)
        if plan is None:
            self.stats.record_batch(0, aggregates=len(queries))
            return AggregatePartial.identity(len(queries))
        return self.batch_scatter_aggregate(queries, *plan, spec)

    def batch_scatter_aggregate(
        self,
        queries: Sequence[Rectangle],
        slots: np.ndarray,
        bounds,
        translated_bounds,
        use_primary: np.ndarray,
        use_outlier: np.ndarray,
        n_live: int,
        spec: Aggregate,
    ) -> AggregatePartial:
        """Execute a pre-planned aggregate sub-batch, returning accumulators.

        The aggregate twin of :meth:`batch_scatter_flat` with the same
        calling convention: ``slots`` selects the sub-batch out of
        ``queries`` and the columnar bounds / planner flags are
        positionally aligned with it, so the sharded engine pays batch
        translation and planning once for all shards.  Returns one
        :class:`AggregatePartial` slot per sub-query; the caller owns the
        cross-shard merge, which moves O(sub-batch) floats instead of
        O(rows) ids.
        """
        n_sub = len(slots)
        partial = AggregatePartial.identity(n_sub)
        before = self._sub_index_stats()
        # Idle sub-indexes are skipped exactly like in batch_scatter_flat.
        n_primary = int(np.count_nonzero(use_primary))
        if n_primary:
            partial.merge(
                self._primary.batch_aggregate_from_bounds(
                    translated_bounds, n_sub, use_primary, n_primary, spec
                )
            )
        n_outlier = int(np.count_nonzero(use_outlier))
        if n_outlier and isinstance(self._outlier, SortedCellGridIndex):
            partial.merge(
                self._outlier.batch_aggregate_from_bounds(
                    bounds, n_sub, use_outlier, n_outlier, spec
                )
            )
        elif n_outlier:
            outlier_slots = np.flatnonzero(use_outlier)
            sub = self._outlier.batch_aggregate_partial(
                [queries[slots[i]] for i in outlier_slots], spec
            )
            partial.merge_at(outlier_slots, sub)
        if self._delta.n_pending:
            self._delta.fold_aggregate_batch(bounds, n_sub, spec, partial)
        work = self._sub_index_stats().delta(before)
        self.stats.record_batch(
            n_live,
            rows_examined=work.rows_examined + self._delta.n_pending * n_live,
            rows_matched=int(partial.count.sum()),
            cells_visited=work.cells_visited,
            aggregates=n_sub,
        )
        return partial

    def _knn_aux_axes(self, point: Mapping[str, float]) -> Dict[int, Tuple[float, float, float]]:
        """FD translation of the query point onto the primary's grid axes.

        For a predictor axis not in the point whose dependent *is* in the
        point, Equation 2's linear model yields a distance bound valid for
        every primary (inlier) row: with ``coordinate = (y - intercept) /
        slope``, ``|v_dep - y| >= |slope|·|v_pred - coordinate| - slack``
        where ``slack = max(eps_lb, eps_ub)`` bounds the residual.  The
        ring search uses it to seed and prune on axes the point never
        names.  Spline models (no global slope) and near-flat slopes carry
        no usable bound and are skipped.
        """
        aux: Dict[int, Tuple[float, float, float]] = {}
        grid_dims = self._primary.grid_dimensions
        for group in self._groups:
            if group.predictor not in grid_dims or group.predictor in point:
                continue
            axis = grid_dims.index(group.predictor)
            for dependent in group.dependents:
                if dependent not in point:
                    continue
                model = group.model_for(dependent)
                slope = getattr(model, "slope", None)
                if slope is None or abs(slope) < 1e-12:
                    continue
                coordinate = (float(point[dependent]) - model.intercept) / slope
                aux[axis] = (coordinate, abs(slope), max(model.eps_lb, model.eps_ub))
                break
        return aux

    def knn_partial(
        self, point: Mapping[str, float], k: int, *, metric: str = "l2"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """kNN candidates merged across primary (ring search), outlier, delta."""
        before = self._sub_index_stats()
        parts = [
            self._primary.knn_partial(
                point, k, metric=metric, aux_axes=self._knn_aux_axes(point)
            ),
            self._outlier.knn_partial(point, k, metric=metric),
            self._delta.knn_candidates(point, k, metric),
        ]
        keys, ids = merge_topk(parts, k)
        work = self._sub_index_stats().delta(before)
        self.stats.record(
            rows_examined=work.rows_examined + self._delta.n_pending,
            cells_visited=work.cells_visited,
            knn_queries=1,
            rings_expanded=work.rings_expanded,
        )
        return keys, ids

    def topk_partial(
        self, query: Rectangle, spec: TopK
    ) -> Tuple[np.ndarray, np.ndarray]:
        """By-column top-k candidates merged across primary/outlier/delta,
        planned as a batch of one."""
        plan = self._plan_batch([query])
        if plan is None:
            self.stats.record(knn_queries=1)
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        _, bounds, translated_bounds, use_primary, use_outlier, _ = plan
        before = self._sub_index_stats()
        parts = []
        if use_primary[0]:
            (translated,) = rewritten_queries_from_bounds(
                [query], translated_bounds, self._groups
            )
            parts.append(self._primary.topk_partial(translated, spec))
        if use_outlier[0]:
            parts.append(self._outlier.topk_partial(query, spec))
        if self._delta.n_pending:
            parts.append(self._delta.topk_candidates(bounds, spec))
        keys, ids = merge_topk(parts, spec.k, largest=spec.largest)
        work = self._sub_index_stats().delta(before)
        self.stats.record(
            rows_examined=work.rows_examined + self._delta.n_pending,
            cells_visited=work.cells_visited,
            knn_queries=1,
        )
        return keys, ids

    def translated_query(self, query: Rectangle) -> Rectangle:
        """The rewritten query the primary index receives (for inspection)."""
        return translate_query(query, self._groups)

    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        """Positional ids; only needed to satisfy the base-class contract."""
        return self.positions_of(self.range_query(query))

    def _sub_index_stats(self) -> QueryStats:
        """Primary plus outlier counters, summed into a snapshot.

        A facade call brackets its sub-index work with two of these:
        ``self._sub_index_stats().delta(before)`` is the work in between.
        """
        return self._primary.stats.snapshot().merge(self._outlier.stats)

    # ------------------------------------------------------------------
    # Updates (paper future work)
    # ------------------------------------------------------------------
    def insert(self, record: Mapping[str, float]) -> int:
        """Insert a single record, returning its assigned row id.

        Convenience wrapper over :meth:`insert_batch`; for any non-trivial
        write volume the batch API is orders of magnitude faster.
        """
        return int(self.insert_batch([record])[0])

    def insert_batch(self, batch: BatchLike) -> np.ndarray:
        """Insert a batch of records, returning their assigned row ids.

        ``batch`` may be a :class:`Table`, a mapping of column arrays, or a
        sequence of record dicts.  The whole batch is routed by the learned
        models in one vectorised margin check per model: rows inside every
        margin logically belong to the primary index, the rest to the
        outlier index.  Either way they land in the columnar delta store,
        are immediately visible to queries, and are folded into the main
        structures by :meth:`compact` — automatically once the configured
        ``auto_compact_threshold`` is reached.

        Mutation entry point: holds the single-writer lock for the whole
        batch (see the concurrency contract in :mod:`repro.indexes.base`).
        """
        with self._write_lock:
            columns = coerce_batch(batch, self._schema)
            n_new = len(next(iter(columns.values()))) if columns else 0
            row_ids = self._next_row_id + np.arange(n_new, dtype=np.int64)
            if n_new:
                self._append_pending(columns, row_ids)
            return row_ids

    def _append_pending(self, columns: Mapping[str, np.ndarray], row_ids: np.ndarray) -> None:
        """Buffer coerced new rows under fresh ``row_ids``, then run the
        auto-compaction triggers.

        The write path of :meth:`insert_batch`, and of the sharded engine,
        which issues the ids itself; the caller holds the write lock.
        """
        self._delta.append_batch(columns, row_ids)
        # Claim the ids only after the append succeeded: a batch that
        # blows up mid-routing must not permanently burn its id range.
        self._next_row_id = max(self._next_row_id, int(row_ids.max()) + 1)
        self._observe_pending_tail(columns, len(row_ids))
        self._maybe_auto_compact()

    def _observe_pending_tail(self, columns: Mapping[str, np.ndarray], n_new: int) -> None:
        """Stream a just-appended batch into the drift monitors.

        The delta store has already recorded every per-model margin mask
        for routing; the monitors read the batch's slice of those buffers,
        so maintenance never re-evaluates a model on the write path.
        """
        if self._maintenance is None or n_new == 0:
            return
        masks = {
            name: self._delta.model_mask(name)[-n_new:]
            for name in self._maintenance.model_names
        }
        self._maintenance.observe_batch(columns, masks)

    def _maybe_auto_compact(self) -> None:
        """Compact when either configured trigger (pending count or
        tombstone fraction) has been reached."""
        threshold = self._config.auto_compact_threshold
        if threshold is not None and self._delta.n_pending >= threshold:
            self.compact()
            return
        fraction = self._config.auto_compact_tombstone_fraction
        if fraction is not None and self.tombstone_fraction >= fraction:
            self.compact()

    # ------------------------------------------------------------------
    # Deletes and in-place updates
    # ------------------------------------------------------------------
    def delete(self, row_id: int) -> bool:
        """Delete one record by row id; ``True`` if it was live.

        Convenience wrapper over :meth:`delete_batch`; for any non-trivial
        delete volume the batch API is orders of magnitude faster.
        """
        return self.delete_batch(np.array([row_id], dtype=np.int64)) == 1

    def delete_batch(self, row_ids: np.ndarray) -> int:
        """Delete records by row id; returns how many were actually live.

        Main-structure rows are tombstoned in a bitmap (``O(k log n)`` for
        the whole batch) and disappear from results immediately — every
        read path masks tombstoned positions next to its exact post-filter.
        Pending rows are removed from the delta buffers in place, with the
        per-model routing counts decremented exactly.  Ids that are
        unknown, already deleted, or not covered by this index are skipped,
        so the call is idempotent.  Deleted ids are retired forever (new
        inserts never reuse them); the physical space is reclaimed by the
        next :meth:`compact`, which triggers automatically once
        ``COAXConfig.auto_compact_tombstone_fraction`` is exceeded.

        Mutation entry point: holds the single-writer lock for the whole
        batch (see the concurrency contract in :mod:`repro.indexes.base`).
        """
        with self._write_lock:
            return self._delete_unique(np.unique(np.asarray(row_ids, dtype=np.int64)))

    def _delete_unique(self, row_ids: np.ndarray) -> int:
        """:meth:`delete_batch` of ids already sorted and de-duplicated
        (the engine de-duplicates a batch once for all its shards)."""
        with self._write_lock:
            if len(row_ids) == 0:
                return 0
            deleted = self._delta.delete_rows(row_ids)
            deleted += self._delete_main_rows(row_ids)
            if deleted:
                self._maybe_auto_compact()
            return int(deleted)

    def delete_rows(self, row_ids: np.ndarray, *, assume_unique: bool = False) -> int:
        """Generic tombstone entry point (see the base class).

        Routes through the full COAX delete — delta store included — so the
        facade and the sub-indexes can never diverge.  ``assume_unique`` is
        accepted for signature compatibility; :meth:`delete_batch`
        de-duplicates once internally either way.
        """
        del assume_unique
        return self.delete_batch(row_ids)

    def delete_where(self, query: Rectangle) -> np.ndarray:
        """Delete every record matching ``query``; returns their row ids.

        Mutation entry point: the lock spans the query *and* the delete,
        so no concurrent mutation can slip between finding the matches
        and tombstoning them.
        """
        with self._write_lock:
            matches = self.range_query(query)
            self.delete_batch(matches)
            return matches

    def _delete_main_rows(self, row_ids: np.ndarray) -> int:
        """Tombstone main-structure rows in the sub-index holding each.

        ``row_ids`` must already be de-duplicated; the sort is paid once by
        the caller instead of once per structure.  Every covered row sits
        in exactly one sub-index, so the two counts add up.
        """
        newly = self._primary.delete_rows(row_ids, assume_unique=True)
        return newly + self._outlier.delete_rows(row_ids, assume_unique=True)

    def _live_ids_mask(self, row_ids: np.ndarray) -> np.ndarray:
        """Which of ``row_ids`` are currently live (main or pending)."""
        mask = self.rows_live(row_ids)
        if self._delta.n_pending:
            mask |= np.isin(row_ids, self._delta.row_ids)
        return mask

    def update_batch(self, row_ids: np.ndarray, batch: BatchLike) -> np.ndarray:
        """Replace live records in place, preserving their row ids.

        ``batch`` (same forms as :meth:`insert_batch`) holds the new
        attribute values, positionally aligned with ``row_ids``.  Each
        update is a delete plus a reinsert through the delta store: the old
        version is tombstoned (main rows) or removed in place (pending
        rows) and the new version is appended under the *same* row id with
        its routing re-evaluated against the learned models, so the next
        compaction carries the new values under the old id.  Unknown or
        already-deleted ids raise ``KeyError`` (a partial update never
        applies silently);
        duplicate ids in one batch raise ``ValueError``.  Returns
        ``row_ids`` unchanged, mirroring :meth:`insert_batch`.

        Mutation entry point: holds the single-writer lock for the whole
        batch (see the concurrency contract in :mod:`repro.indexes.base`).
        """
        with self._write_lock:
            columns = coerce_batch(batch, self._schema)
            row_ids = np.asarray(row_ids, dtype=np.int64)
            n_new = len(next(iter(columns.values()))) if columns else 0
            if n_new != len(row_ids):
                raise ValueError(
                    f"update batch has {n_new} rows for {len(row_ids)} row ids"
                )
            if n_new == 0:
                return row_ids
            if len(np.unique(row_ids)) != len(row_ids):
                raise ValueError("update batch contains duplicate row ids")
            live = self._live_ids_mask(row_ids)
            if not live.all():
                missing = row_ids[~live]
                raise KeyError(
                    f"cannot update unknown or deleted row ids: {missing.tolist()[:10]}"
                )
            self._delta.delete_rows(row_ids)
            self._delete_main_rows(row_ids)
            self._delta.append_batch(columns, row_ids)
            self._observe_pending_tail(columns, n_new)
            self._maybe_auto_compact()
            return row_ids

    def compact(self) -> "COAXIndex":
        """Fold the delta store into the main structures in place.

        Insert-only compaction is incremental: the learned FD groups are
        kept (no re-detection), the routing recorded at insert time is
        reused (no re-partitioning), and the primary grid absorbs its new
        rows into the existing quantile layout (no re-quantiling).  The
        outlier index is rebuilt only when its type cannot merge in place —
        it holds the small minority of the data by construction.

        When tombstones exist, the tombstoned rows are physically reclaimed
        instead: the index is rebuilt with the learned groups over the
        survivors only, so partition fractions and the primary/outlier
        bounding boxes are recomputed from live rows.  Row ids are
        preserved either way — compaction never renumbers.  Returns
        ``self`` so existing ``index = index.compact()`` call sites keep
        working.

        With drift-aware maintenance enabled
        (``COAXConfig.maintenance.enabled``), compaction first consults the
        model monitors: *reuse* keeps the fast paths above untouched,
        *remargin* widens the affected models' margins in place (bands
        only grow, so existing primary rows stay covered — no structural
        work), and *refit* replaces the models from their refreshed
        posteriors and re-partitions the affected rows through the
        reclaiming rebuild.

        Mutation entry point: holds the single-writer lock for the whole
        fold (see the concurrency contract in :mod:`repro.indexes.base`).
        """
        with self._write_lock:
            refresh = REUSE
            refit_groups: Optional[List[FDGroup]] = None
            if self._maintenance is not None:
                outcome = self._maintenance.refresh(self._groups)
                refresh = outcome.action
                if refresh == REFIT:
                    # Refitted margins may shrink, so the groups are only
                    # adopted together with the re-partition — the rebuild
                    # below consumes them, and the monitors reset only
                    # after it commits: a failed rebuild leaves the old
                    # models, structures AND monitor state fully
                    # consistent.
                    refit_groups = list(outcome.groups)
                elif refresh != REUSE:
                    # Widened margins are safe to adopt immediately: every
                    # primary-index record inside the old band is inside
                    # the new one too.
                    self._adopt_groups(outcome.groups)
                    self._maintenance.commit(outcome)
            reclaim = self.n_tombstoned > 0 or refresh == REFIT
            if self._delta.n_pending == 0 and not reclaim:
                return self
            if not reclaim:
                self._compact_incremental()
            else:
                self._compact_reclaim(groups=refit_groups)
                if refresh == REFIT:
                    self._maintenance.commit(outcome)
            self._delta.clear()
            if self._maintenance is not None and refresh != REUSE:
                # The refreshed band's baseline follows the partition
                # fractions the fold just recomputed (reclaim) or merged
                # (incremental), so the next epoch's reactive triggers
                # compare against the band actually being monitored —
                # identically on both compaction paths.
                self._maintenance.rebind(
                    self._groups, self._partition.per_model_inlier_fraction
                )
            return self

    def _adopt_groups(self, groups: Sequence[FDGroup]) -> None:
        """Switch to refreshed FD models (same ``predictor->dependent`` set).

        Only sound for *monotonically widened* margins (or together with a
        re-partition, which the reclaiming rebuild handles itself via its
        ``groups`` argument): future routing, translation and planning
        immediately use the new models, while already-routed pending rows
        keep their recorded masks (conservative: stale narrower margins
        can only send a row to the outlier index, where every query finds
        it without any model).
        """
        self._groups = list(groups)
        self._delta.set_groups(self._groups)
        self._report = replace(self._report, groups=list(self._groups))

    def apply_refresh(self, groups: Sequence[FDGroup]) -> None:
        """Adopt externally *widened* models (engine-coordinated re-margin).

        The sharded engine owns ONE shared maintenance manager and pushes
        the refreshed groups to every shard through this entry point, so
        all shards keep identical translation semantics.  Only sound for
        monotonically widened margins — no structural work is done; a
        refit (margins may shrink, rows must move) goes through the
        engine's transactional :meth:`_build_reclaimed` /
        :meth:`_swap_reclaimed` protocol instead.
        """
        with self._write_lock:
            self._adopt_groups(
                [
                    group
                    for group in groups
                    if all(attr in self._dimensions for attr in group.attributes)
                ]
            )

    def _compact_incremental(self) -> None:
        """Merge the pending rows into the existing structures (no
        tombstones, so every pending id is new to them)."""
        pending = self._delta.columns()
        pending_ids = self._delta.row_ids
        inliers = self._delta.inlier_mask
        new_inliers = {name: values[inliers] for name, values in pending.items()}
        new_outliers = {name: values[~inliers] for name, values in pending.items()}
        # Primary grid: absorb into the existing quantile layout.
        self._primary.absorb_rows(new_inliers, pending_ids[inliers])
        # Outlier index: absorb when the structure supports it and its
        # shape still fits its rows, else rebuild (over the outlier
        # minority only).
        if isinstance(self._outlier, SortedCellGridIndex) and (
            self._outlier.n_cells * OUTLIER_REFIT_GROWTH
            > self._outlier_cell_budget(
                self._outlier.n_rows + len(pending_ids) - int(np.count_nonzero(inliers)),
                len(self._outlier.grid_dimensions),
            )
        ):
            self._outlier.absorb_rows(new_outliers, pending_ids[~inliers])
        else:
            columns, ids = _concat_by_id(
                [
                    _live_part(self._outlier, self._schema),
                    (new_outliers, pending_ids[~inliers]),
                ],
                self._schema,
            )
            self._outlier = self._build_outlier_index(Table(columns), None, ids)
        # Per-model fractions merge exactly as weighted means using the
        # counts the delta store recorded at append time — no model is
        # re-evaluated during compaction.
        n_old = self._partition.n_rows
        n_new = len(pending_ids)
        pending_model_counts = self._delta.per_model_inlier_counts
        per_model = {
            name: (old_fraction * n_old + pending_model_counts.get(name, 0))
            / (n_old + n_new)
            for name, old_fraction in self._partition.per_model_inlier_fraction.items()
        }
        n_new_inliers = int(np.count_nonzero(inliers))
        self._partition = PartitionResult(
            n_inliers=self._partition.n_inliers + n_new_inliers,
            n_outliers=self._partition.n_outliers + n_new - n_new_inliers,
            per_model_inlier_fraction=per_model,
        )
        # Bounding boxes only ever grow: hull of the old box and the batch box.
        self._set_boxes(
            merge_boxes(self._primary_box, bounding_box_of_columns(new_inliers)),
            merge_boxes(self._outlier_box, bounding_box_of_columns(new_outliers)),
        )
        self._report = replace(
            self._report,
            n_rows=self.n_rows,
            primary_ratio=self._partition.primary_ratio,
            per_model_inlier_fraction=dict(per_model),
        )

    def _compact_reclaim(self, groups: Optional[Sequence[FDGroup]] = None) -> None:
        """Rebuild over the survivors with the learned groups, keeping ids.

        Used whenever tombstones exist or a model refit requires a
        re-partition (``groups`` then carries the refitted models): the
        live rows (:meth:`live_rows`, pending ones included) are rebuilt
        into fresh structures under the ids they carry, so tombstoned rows
        are gone from every structure, partition and bounding boxes are
        recomputed from live rows only, and every surviving record keeps
        the row id it has always had.

        Exception-safe: the fresh index (including any refitted groups) is
        fully built *before* anything on ``self`` changes, so a failed
        rebuild leaves the index exactly as it was — structures, groups
        and delta store all still mutually consistent.
        """
        self._swap_reclaimed(self._build_reclaimed(groups))

    def _build_reclaimed(
        self, groups: Optional[Sequence[FDGroup]] = None
    ) -> "COAXIndex":
        """Phase 1 of a reclaiming rebuild: construct the fresh index.

        Pure with respect to ``self`` — nothing is mutated, so a failure
        here (allocation, outlier-index build, ...) is harmless.  The
        engine's coordinated refit uses this directly to prepare every
        shard before committing any of them.
        """
        columns, ids = self.live_rows()
        return COAXIndex(
            Table(columns),
            config=self._config,
            groups=list(groups) if groups is not None else self._groups,
            dimensions=self._dimensions,
            ids=ids,
        )

    def _swap_reclaimed(self, fresh: "COAXIndex") -> None:
        """Phase 2 of a reclaiming rebuild: adopt the fresh index's state.

        Nothing here allocates or can meaningfully fail — the commit step
        of the build-then-swap protocol.
        """
        stats = self.stats
        next_row_id = self._next_row_id
        # The lock identity must survive the rebuild: concurrent readers
        # and the sharded engine hold references to *this* lock, and the
        # current thread is inside it right now.  The maintenance manager
        # survives too — its monitors keep their streamed statistics and
        # just follow the rebuilt index's model objects and baselines.
        write_lock = self._write_lock
        maintenance = self._maintenance
        self.__dict__.update(fresh.__dict__)
        self.stats = stats
        self._next_row_id = next_row_id
        self._write_lock = write_lock
        self._maintenance = maintenance
        if maintenance is not None:
            maintenance.rebind(
                self._groups, self._partition.per_model_inlier_fraction
            )

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def directory_bytes(self) -> int:
        """Primary + outlier directories plus the FD model parameters."""
        model_bytes = sum(group.memory_bytes() for group in self._groups)
        return self._primary.directory_bytes() + self._outlier.directory_bytes() + model_bytes

    def memory_breakdown(self) -> Dict[str, int]:
        """Directory bytes per component (primary, outlier, models)."""
        return {
            "primary": self._primary.directory_bytes(),
            "outlier": self._outlier.directory_bytes(),
            "models": sum(group.memory_bytes() for group in self._groups),
        }

    def data_bytes(self) -> int:
        """Record bytes of the main structures: the sub-indexes' columns,
        the one copy of every covered record."""
        return self._primary.data_bytes() + self._outlier.data_bytes()


def _live_part(
    index: MultidimensionalIndex, names: Sequence[str]
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """``(columns, ids)`` of a sub-index's live rows, in its own order."""
    dead = index.tombstone_mask
    if dead is None:
        return {name: index.column(name) for name in names}, index.row_ids
    live = ~dead
    return {name: index.column(name)[live] for name in names}, index.row_ids[live]


def _concat_by_id(
    parts: Sequence[Tuple[Mapping[str, np.ndarray], np.ndarray]], names: Sequence[str]
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Concatenate ``(columns, ids)`` parts into one, in ascending id
    order — the order a fresh build lays rows out from, whatever order the
    parts came in."""
    ids = np.concatenate([part_ids for _, part_ids in parts])
    order = np.argsort(ids, kind="stable")
    columns = {
        name: np.concatenate([part[name] for part, _ in parts])[order] for name in names
    }
    return columns, ids[order]
