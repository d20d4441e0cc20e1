"""Drift benchmark — frozen vs adaptive FD models (CLI: ``drift-bench``).

Its export is the committed ``BENCH_drift.json``: it measures what
drift-aware model maintenance (:mod:`repro.fd.maintenance`) buys on a
drifting insert stream, the only evidence for that claim (the repository
benchmark's ingest-mixed workload never triggers a refresh).

The workload is a regime change on a synthetic correlated table: the
stream's soft-FD intercept ramps away from the build-time line by
``drift_bands`` margin-band widths and then stabilises
(:func:`repro.data.synthetic.generate_drifting_batches`).  Three engines
ingest the *same* stream with periodic compaction:

* ``COAX (frozen)`` — models exactly as built, the paper's static setting:
  drifted records fail the stale margins, fall to the outlier index, and
  the primary fraction collapses;
* ``COAX (adaptive)`` — ``COAXConfig.maintenance.enabled``: the monitors
  stream every batch into the Bayesian posterior, Equation 9 (and the
  outside-margin excess) picks the refresh tier at each compaction, and
  refitted models follow the stream — the primary fraction recovers;
* ``ShardedCOAX (adaptive)`` — the same stream through the sharded engine
  with ONE shared monitor, proving coordinated refresh keeps every shard
  on identical groups.

After the stream, two KNN-derived range workloads over the full (build +
stream) data are executed through ``batch_range_query`` on every engine:
``range-predicted`` constrains only the FD-*predicted* attributes — the
workload Equation-2 translation exists for, and where stale models hurt
most (the frozen engine must fish most answers out of an outlier index
holding the bulk of the data) — and ``range`` constrains every attribute.
**Every result list is verified element-for-element against a full-scan
oracle** over the accumulated table before any number is reported —
adaptivity must change performance, never results.

The pass/fail gates are deterministic: the adaptive engine must retain a
strictly higher primary fraction than the frozen one, examine strictly
fewer rows per query on the ``range-predicted`` workload, and at least
one model refresh must actually have fired.  The rows carry each
engine's wall clock, but no adaptive-vs-frozen wall-clock ratio is
reported: the timed work is a few hundredths of a second, and the ratio
ranged from 0.45x to 1.38x between runs.  ``smoke=True``
shrinks everything to CI scale and keeps all gates, so a maintenance
regression fails the pipeline next to the read-path, CRUD and scale
gates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.bench.harness import (
    count_mismatches,
    drive_insert_stream,
    time_batched_queries,
)
from repro.bench.reporting import ExperimentResult
from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig, EngineConfig, MaintenanceConfig
from repro.core.engine import ShardedCOAX
from repro.data.queries import WorkloadConfig, generate_knn_queries
from repro.data.synthetic import (
    CorrelatedGroupSpec,
    SyntheticDatasetSpec,
    generate_correlated_dataset,
    generate_drifting_batches,
)
from repro.data.table import Table

__all__ = ["run"]

#: K of the KNN query generator (matches the other benchmarks).
K_NEIGHBOURS = 200


def _dataset_spec(n_rows: int, seed: int) -> SyntheticDatasetSpec:
    """One strong soft-FD group plus an uncorrelated attribute."""
    return SyntheticDatasetSpec(
        n_rows=n_rows,
        groups=(
            CorrelatedGroupSpec(
                attributes=("x", "y"),
                slopes=(2.0,),
                noise_scale=1.0,
                outlier_fraction=0.05,
                base_low=0.0,
                base_high=1000.0,
            ),
        ),
        independent_attributes=(("z", 0.0, 10.0),),
        seed=seed,
    )


def _combined_table(base: Table, batches: Sequence[Dict[str, np.ndarray]]) -> Table:
    """Build + stream rows in insert order (row id == position)."""
    return Table(
        {
            name: np.concatenate(
                [base.column(name)] + [batch[name] for batch in batches]
            )
            for name in base.schema
        }
    )


def _primary_fraction(index) -> float:
    """Share of main-structure rows in a primary index (engine-aware)."""
    if isinstance(index, ShardedCOAX):
        total = sum(shard.n_rows for shard in index.shards)
        if not total:
            return 0.0
        return (
            sum(shard.primary_ratio * shard.n_rows for shard in index.shards)
            / total
        )
    return index.primary_ratio


def _refresh_count(index) -> int:
    """Completed model-refresh epochs (0 for frozen engines)."""
    manager = index.maintenance
    if manager is None:
        return 0
    return max(
        (manager.monitor(name).epoch for name in manager.model_names),
        default=0,
    )


def run(
    n_rows: int = 40_000,
    n_queries: int = 512,
    seed: int = 33,
    n_batches: int = 20,
    rows_per_batch: int = 5_000,
    drift_bands: float = 6.0,
    hold_fraction: float = 0.7,
    compact_every: int = 1,
    batch_size: int = 256,
    n_shards: int = 4,
    smoke: bool = False,
    repeats: int = 3,
) -> ExperimentResult:
    """Run the drift benchmark and return its result table.

    ``drift_bands`` scales the total intercept shift in margin-band
    widths; ``hold_fraction`` is the tail share of the stream generated at
    the final (stabilised) shift.  ``smoke`` shrinks everything to CI
    scale and asserts the oracle identity plus the adaptive win on the
    primary fraction.
    """
    if smoke:
        n_rows = min(n_rows, 4_000)
        n_queries = min(n_queries, 128)
        n_batches = min(n_batches, 8)
        rows_per_batch = min(rows_per_batch, 1_000)
        n_shards = min(n_shards, 2)
        batch_size = min(batch_size, 128)
        repeats = min(repeats, 2)

    spec = _dataset_spec(n_rows, seed)
    base_table, _ = generate_correlated_dataset(spec)
    frozen_config = COAXConfig()
    adaptive_config = COAXConfig(
        maintenance=MaintenanceConfig(enabled=True, min_observations=256)
    )

    # The frozen build also learns the groups every engine shares, so all
    # three start from the identical build-time models.
    frozen = COAXIndex(base_table, config=frozen_config)
    groups = list(frozen.groups)
    if not groups:
        raise AssertionError("soft-FD detection found no groups on the synthetic table")
    model = groups[0].model_for(groups[0].dependents[0])
    band_width = model.eps_lb + model.eps_ub
    adaptive = COAXIndex(base_table, config=adaptive_config, groups=groups)
    engine = ShardedCOAX(
        base_table,
        config=EngineConfig(n_shards=n_shards, workers=1, coax=adaptive_config),
        groups=groups,
    )
    engines = [
        ("COAX (frozen)", frozen),
        ("COAX (adaptive)", adaptive),
        (f"ShardedCOAX (adaptive, {n_shards} shards)", engine),
    ]

    batches = generate_drifting_batches(
        spec,
        n_batches=n_batches,
        rows_per_batch=rows_per_batch,
        intercept_drift=drift_bands * band_width,
        hold_fraction=hold_fraction,
        seed=seed + 1,
    )
    combined = _combined_table(base_table, batches)

    rows: List[Dict[str, object]] = []
    notes: List[str] = [
        f"drift: intercept ramps {drift_bands:.1f} margin-band widths "
        f"({drift_bands * band_width:.1f}) over {n_batches} batches "
        f"(hold fraction {hold_fraction}), compaction every {compact_every} batches"
    ]

    for name, index in engines:
        stream = drive_insert_stream(index, batches, compact_every=compact_every)
        rows.append(
            {
                "dataset": "synthetic-drift",
                "phase": "stream",
                "engine": name,
                "rows_inserted": int(stream["rows_inserted"]),
                "seconds": round(stream["seconds"], 3),
                "rows_per_s": int(stream["rows_inserted"] / max(stream["seconds"], 1e-9)),
                "compactions": int(stream["compactions"]),
                "model_refreshes": _refresh_count(index),
                "primary_fraction": round(_primary_fraction(index), 4),
            }
        )

    predicted_dims = tuple(frozen.build_report.predicted_dimensions)
    workloads = {
        "range-predicted": list(
            generate_knn_queries(
                combined,
                WorkloadConfig(
                    n_queries=n_queries,
                    k_neighbours=K_NEIGHBOURS,
                    dimensions=predicted_dims,
                    seed=seed + 2,
                ),
            )
        ),
        "range": list(
            generate_knn_queries(
                combined,
                WorkloadConfig(
                    n_queries=n_queries, k_neighbours=K_NEIGHBOURS, seed=seed + 3
                ),
            )
        ),
    }
    # Full-scan oracle over the accumulated table: row id == position for
    # the whole build + stream history, so select() positions ARE the
    # expected row ids.
    oracle_results = {
        workload_name: [combined.select(query) for query in queries]
        for workload_name, queries in workloads.items()
    }

    examined: Dict[tuple, float] = {}
    for name, index in engines:
        for workload_name, queries in workloads.items():
            index.stats.reset()
            seconds, results = time_batched_queries(
                index, queries, batch_size, repeats
            )
            mismatched = count_mismatches(
                oracle_results[workload_name], results
            )
            if mismatched:
                raise AssertionError(
                    f"{name} diverged from the full-scan oracle on "
                    f"{mismatched}/{len(queries)} {workload_name} queries"
                )
            examined[(name, workload_name)] = index.stats.rows_examined / max(
                index.stats.queries, 1
            )
            rows.append(
                {
                    "dataset": "synthetic-drift",
                    "phase": "query",
                    "engine": name,
                    "workload": workload_name,
                    "queries": len(queries),
                    "seconds": round(seconds, 4),
                    "mean_ms": round(seconds / len(queries) * 1e3, 4),
                    "rows_examined_per_q": round(examined[(name, workload_name)], 1),
                    "primary_fraction": round(_primary_fraction(index), 4),
                    "mismatched_queries": 0,
                }
            )
    engine.close()

    frozen_fraction = _primary_fraction(frozen)
    adaptive_fraction = _primary_fraction(adaptive)
    notes.append(
        "every result verified element-for-element against the full-scan "
        "oracle over the accumulated table (adaptivity changes performance, "
        "never results)"
    )
    notes.append(
        f"primary fraction after the stream: frozen {frozen_fraction:.1%} "
        f"vs adaptive {adaptive_fraction:.1%} "
        f"({_refresh_count(adaptive)} model refreshes)"
    )
    for workload_name in workloads:
        exam_ratio = examined[("COAX (frozen)", workload_name)] / max(
            examined[("COAX (adaptive)", workload_name)], 1e-9
        )
        notes.append(
            f"adaptive vs frozen on {workload_name}: {exam_ratio:.2f}x rows examined"
        )

    if adaptive_fraction <= frozen_fraction:
        raise AssertionError(
            f"adaptive maintenance did not recover the primary fraction "
            f"(adaptive {adaptive_fraction:.1%} <= frozen {frozen_fraction:.1%})"
        )
    if examined[("COAX (adaptive)", "range-predicted")] >= examined[
        ("COAX (frozen)", "range-predicted")
    ]:
        raise AssertionError(
            "adaptive maintenance did not reduce the work of "
            "predicted-attribute queries"
        )
    if _refresh_count(adaptive) < 1 or _refresh_count(engine) < 1:
        raise AssertionError("no model refresh fired on the drifting stream")
    if smoke:
        notes.append(
            "smoke mode: asserted oracle identity, active model refresh, the "
            "adaptive primary-fraction win and the rows-examined win"
        )

    return ExperimentResult(
        experiment="drift",
        description="Drift — frozen vs adaptive FD models on a drifting insert stream",
        rows=rows,
        notes=notes,
    )
