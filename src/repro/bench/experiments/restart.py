"""Restart benchmark — cold-start latency of the v6 archive (CLI: ``restart-bench``).

The operational half of the format-v6 story: a serving process that dies
should come back in O(metadata), not O(data).  The legacy (v5) ``.npz``
archive forces a copy-load — every column is decompressed into fresh
heap pages and every grid is rebuilt from its sorted order — while the
columnar (v6) directory is attached with copy-on-write ``np.memmap`` and
its structured section reattaches the saved grids without evaluating a
single FD model, so the kernel page cache (still warm from the previous
incarnation, and shared with any sibling process) does the rest.

The driver builds one sharded engine, saves it in both layouts, then
times ``load_engine`` on each (minimum over ``repeats`` attempts, a
fresh load per attempt) and runs a probe workload through every loaded
engine, verifying the results element-for-element against the pre-save
engine.  Rows report ``cold_start_s`` per format plus the v6-over-npz
speedup; the first post-load probe batch is timed separately so the
lazily-paged mmap path is visible rather than hidden.

``smoke=True`` shrinks the build to CI scale and asserts that the v6
cold start beats the npz copy-load and that both loaded engines answer
the probes bit-identically — a restart regression fails the pipeline
next to the read-path and scale gates.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.bench.experiments.datasets import airline_table, standard_workloads
from repro.bench.harness import count_mismatches
from repro.bench.reporting import ExperimentResult
from repro.core.config import COAXConfig, EngineConfig
from repro.core.engine import ShardedCOAX
from repro.io.persistence import load_engine, save_index

__all__ = ["run"]


def _tree_bytes(path: Path) -> int:
    """Total on-disk size of an archive (file or directory)."""
    if path.is_file():
        return path.stat().st_size
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def run(
    n_rows: int = 1_000_000,
    n_shards: int = 8,
    n_queries: int = 64,
    seed: int = 23,
    smoke: bool = False,
    repeats: int = 3,
) -> ExperimentResult:
    """Run the restart benchmark and return its result table.

    ``smoke`` shrinks everything to CI scale and
    asserts the v6 mmap cold start beats the legacy copy-load.
    """
    if smoke:
        n_rows = min(n_rows, 6_000)
        n_shards = min(n_shards, 2)
        n_queries = min(n_queries, 32)
        repeats = min(repeats, 2)

    table = airline_table(n_rows, seed=seed)
    engine = ShardedCOAX(
        table,
        config=EngineConfig(n_shards=n_shards, workers=n_shards, coax=COAXConfig()),
    )
    probes = list(standard_workloads(table, n_queries=n_queries, seed=seed + 3)["range"])
    expected = engine.batch_range_query(probes)
    engine.close()

    rows: List[Dict[str, object]] = []
    notes: List[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="coax-restart-"))
    try:
        archives = {
            "v6-columnar": save_index(engine, workdir / "engine.coax"),
            "v5-npz": save_index(engine, workdir / "engine.npz", layout="npz"),
        }
        cold_start: Dict[str, float] = {}
        for format_name, path in archives.items():
            best_load = float("inf")
            best_probe = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                loaded = load_engine(path)
                load_seconds = time.perf_counter() - start
                start = time.perf_counter()
                got = loaded.batch_range_query(probes)
                probe_seconds = time.perf_counter() - start
                mismatched = count_mismatches(expected, got)
                if mismatched:
                    raise AssertionError(
                        f"{format_name} restart diverged from the pre-save engine "
                        f"on {mismatched}/{len(probes)} probe queries"
                    )
                loaded.close()
                best_load = min(best_load, load_seconds)
                best_probe = min(best_probe, probe_seconds)
            cold_start[format_name] = best_load
            rows.append(
                {
                    "dataset": "Airline",
                    "phase": "restart",
                    "format": format_name,
                    "n_rows": n_rows,
                    "shards": n_shards,
                    "executor": "thread",
                    "archive_mb": round(_tree_bytes(path) / 1e6, 2),
                    "cold_start_s": round(best_load, 4),
                    "first_probe_batch_s": round(best_probe, 4),
                    "probe_queries": len(probes),
                    "mismatched_queries": 0,
                }
            )
        speedup = cold_start["v5-npz"] / max(cold_start["v6-columnar"], 1e-9)
        for row in rows:
            if row["format"] == "v6-columnar":
                row["speedup_vs_npz"] = round(speedup, 2)
        notes.append(
            "cold_start_s is the minimum load_engine wall time over "
            f"{repeats} fresh loads; every loaded engine verified "
            "element-for-element against the pre-save engine"
        )
        notes.append(
            f"v6 mmap cold start is {speedup:.1f}x faster than the v5 npz copy-load "
            f"at {n_rows:,} rows / {n_shards} shards"
        )
        if smoke and speedup <= 1.0:
            raise AssertionError(
                f"v6 mmap cold start ({cold_start['v6-columnar']:.4f}s) did not beat "
                f"the v5 npz copy-load ({cold_start['v5-npz']:.4f}s) in smoke mode"
            )
        if smoke:
            notes.append("smoke mode: asserted v6 cold start beats the npz copy-load")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return ExperimentResult(
        experiment="restart",
        description="Restart — v6 mmap cold start vs legacy npz copy-load",
        rows=rows,
        notes=notes,
    )
