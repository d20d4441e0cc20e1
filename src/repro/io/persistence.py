"""Saving and loading COAX indexes and sharded engines.

Since format version 6 an archive is a *directory* holding one raw
little-endian binary file per array plus a single ``manifest.json``:

* ``manifest.json`` — the JSON header (format version, configuration,
  group definitions, schema order, delta/tombstone bookkeeping, the
  structured-restore state described below and, for engines, the engine
  section) plus one entry per array mapping its logical key to its file,
  dtype and shape.  The manifest is written *last* and the whole
  directory is assembled under a temporary name and atomically renamed
  into place, so a reader either sees a complete archive or none at all
  — never a torn one;
* ``arrays/…`` — one file per array, raw little-endian values with no
  framing, so the files can be attached with ``np.memmap`` (copy-on-write
  mode) instead of being parsed and copied.  ``load_index`` /
  ``load_engine`` map every large numeric array: loading is O(metadata),
  page cache is shared between every process that maps the same archive,
  and tables larger than RAM stream through the query kernels on demand.

The logical array keys are those of the legacy ``.npz`` layout — one
table column per ``column::<name>``, pending records under
``delta::<key>``, the tombstone bitmap under ``__tombstone__``, covered
ids under ``__row_ids__`` for subset-scoped indexes, drift-monitor state
under ``monitor::<name>``, and one complete flat section per shard under
a ``shard<j>::`` prefix (plus ``shard<j>::__global_of__``) for engines —
extended with the *structured-restore* section that makes cold starts
O(metadata): the inlier/outlier partition (``partition::*``), and for the
primary and the (grid-backed) outlier index the quantile boundaries, the
per-cell offsets and, all in the grid's (cell, sort-key) order, the grid's
row ids, its run-search keys and its column subsets, plus the distinct
sort keys (``primary::*`` / ``outlier::*``; this clustered grid section
is format v8).  With that state a load *reattaches* the saved structures
verbatim instead of replaying the build — no FD model is evaluated,
nothing is re-sorted.  Indexes whose state cannot be reattached
(subset-scoped after a reclaiming compaction, or non-grid outlier
indexes) simply omit the section and are rebuilt deterministically from
the stored groups, exactly like pre-v6 archives.  v6/v7 archives carry
the older permutation grid section, which is ignored: they rebuild the
same way.

Versions 1–5 are the single-``.npz`` layouts of earlier builds (v1 no
delta section, v2 delta without per-model masks, v3 tombstones + masks,
v4 the sharded archive, v5 drift-monitor state; see the git history for
the blow-by-blow).  They all keep loading through a conversion shim —
the loaders dispatch on *file* (npz, v1–v5) vs *directory with manifest*
(v6+) — and saving a loaded index writes the current version.  ``save_index(...,
layout="npz")`` still writes the v5 single-file layout for compatibility
tooling and benchmarks.  :func:`load_engine` wraps any flat archive into
a 1-shard engine; sharded archives remember the engine's ``workers``
setting, which can be overridden at load time (a deployment knob, not
part of the data).  Their ``executor`` key is written for compatibility
and ignored on load: archives saved with the removed process executor
load as thread engines.  Unsupported versions raise the typed
:class:`UnsupportedFormatError` carrying the supported-version list.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.coax import COAXIndex
from repro.core.config import (
    COAXConfig,
    EngineConfig,
    LayoutConfig,
    MaintenanceConfig,
)
from repro.core.engine import ShardedCOAX
from repro.core.partitioner import PartitionResult
from repro.data.table import Table
from repro.fd.detection import DetectionConfig
from repro.fd.bucketing import BucketingConfig
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel, SplineFDModel, SplineSegment
from repro.indexes.grid_file import SortedCellGridIndex

__all__ = [
    "save_index",
    "load_index",
    "load_engine",
    "UnsupportedFormatError",
    "FORMAT_VERSION",
    "LEGACY_FORMAT_VERSION",
    "SHARDED_FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "MANIFEST_NAME",
]

#: Version written for every archive (flat and sharded; the two layouts
#: are distinguished by the presence of the ``engine`` header section).
FORMAT_VERSION = 8

#: The single-file ``.npz`` layout still written by
#: ``save_index(..., layout="npz")`` for compatibility tooling.
LEGACY_FORMAT_VERSION = 5

#: Deprecated alias: since format 5 the version number no longer
#: distinguishes the flat and sharded layouts — check for the ``engine``
#: key in the archive header instead (the rule every loader here uses).
SHARDED_FORMAT_VERSION = FORMAT_VERSION

#: Versions this build can read (2 added the delta-store section, 3 the
#: tombstone bitmap, the live-row count and the per-model routing masks,
#: 4 the sharded-engine archive, 5 the drift-monitor state of adaptive
#: model maintenance, 6 the mmap-backed columnar directory layout with
#: structured O(metadata) restore, 7 the workload-adaptive layout state
#: of the sharded engine — ``layout::<name>`` arrays plus the layout
#: knobs/epoch in the ``engine`` header; pre-7 archives load with an
#: empty monitor), 8 the clustered grid sections — grid row ids, run-search
#: keys, distinct sort keys and columns in (cell, sort-key) order; v6/v7
#: grid sections describe the older permutation layout, so those archives
#: rebuild from their groups).
SUPPORTED_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8)

#: Header file of a columnar (v6) archive directory; written last, so its
#: presence certifies the archive is complete.
MANIFEST_NAME = "manifest.json"

#: Subdirectory of a columnar archive holding the raw array files.
ARRAY_DIR = "arrays"

#: Numeric arrays at least this large are attached with ``np.memmap``
#: (copy-on-write) instead of being read eagerly; smaller ones are not
#: worth an open file descriptor.
MMAP_MIN_BYTES = 4096


class UnsupportedFormatError(ValueError):
    """An archive declares a format version this build cannot read.

    Subclasses ``ValueError`` so pre-existing ``except ValueError``
    handlers keep working; carries the offending and the supported
    versions as attributes for programmatic handling.
    """

    def __init__(self, version, supported=SUPPORTED_VERSIONS) -> None:
        self.version = version
        self.supported = tuple(supported)
        super().__init__(
            f"unsupported format version {version!r} "
            f"(this build reads versions {list(self.supported)})"
        )


def _model_to_dict(model) -> Dict:
    """Serialisable representation of a soft-FD model."""
    if isinstance(model, LinearFDModel):
        return {
            "kind": "linear",
            "slope": model.slope,
            "intercept": model.intercept,
            "eps_lb": model.eps_lb,
            "eps_ub": model.eps_ub,
        }
    if isinstance(model, SplineFDModel):
        return {
            "kind": "spline",
            "eps_lb": model.eps_lb,
            "eps_ub": model.eps_ub,
            "segments": [
                {
                    "x_low": segment.x_low,
                    "x_high": segment.x_high,
                    "slope": segment.slope,
                    "intercept": segment.intercept,
                }
                for segment in model.segments
            ],
        }
    raise TypeError(f"cannot serialise model of type {type(model).__name__}")


def _model_from_dict(payload: Dict):
    """Inverse of :func:`_model_to_dict`."""
    kind = payload.get("kind")
    if kind == "linear":
        return LinearFDModel(
            slope=float(payload["slope"]),
            intercept=float(payload["intercept"]),
            eps_lb=float(payload["eps_lb"]),
            eps_ub=float(payload["eps_ub"]),
        )
    if kind == "spline":
        segments = [
            SplineSegment(
                x_low=float(item["x_low"]),
                x_high=float(item["x_high"]),
                slope=float(item["slope"]),
                intercept=float(item["intercept"]),
            )
            for item in payload["segments"]
        ]
        return SplineFDModel(segments, eps_lb=float(payload["eps_lb"]), eps_ub=float(payload["eps_ub"]))
    raise ValueError(f"unknown model kind {kind!r}")


def _group_to_dict(group: FDGroup) -> Dict:
    return {
        "predictor": group.predictor,
        "dependents": list(group.dependents),
        "models": {name: _model_to_dict(model) for name, model in group.models.items()},
    }


def _group_from_dict(payload: Dict) -> FDGroup:
    return FDGroup(
        predictor=payload["predictor"],
        dependents=tuple(payload["dependents"]),
        models={name: _model_from_dict(model) for name, model in payload["models"].items()},
    )


def _config_to_dict(config: COAXConfig) -> Dict:
    """Nested-dataclass serialisation of the configuration."""
    payload = asdict(config)
    return payload


def _config_from_dict(payload: Dict) -> COAXConfig:
    detection_payload = dict(payload.get("detection", {}))
    bucketing_payload = dict(detection_payload.pop("bucketing", {}))
    detection = DetectionConfig(bucketing=BucketingConfig(**bucketing_payload), **detection_payload)
    # Archives written before format v5 carry no maintenance section; the
    # default (disabled) configuration is exactly their behaviour.
    maintenance = MaintenanceConfig(**dict(payload.get("maintenance", {})))
    remaining = {
        key: value
        for key, value in payload.items()
        if key not in ("detection", "maintenance")
    }
    return COAXConfig(detection=detection, maintenance=maintenance, **remaining)


# ----------------------------------------------------------------------
# Structured-restore payload (format v6)
# ----------------------------------------------------------------------

def _box_to_json(box) -> Optional[List[Dict[str, float]]]:
    return None if box is None else [dict(box[0]), dict(box[1])]


def _box_from_json(payload) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
    if payload is None:
        return None
    lows, highs = payload
    return (
        {name: float(value) for name, value in lows.items()},
        {name: float(value) for name, value in highs.items()},
    )


def _structured_eligible(index: COAXIndex) -> bool:
    """Whether the index's derived state can be reattached verbatim.

    Requires row id == table position (subset-scoped indexes left behind
    by a reclaiming compaction re-run the deterministic rebuild instead)
    and grid-file structures on both sides (the r-tree / uniform-grid
    outlier variants carry no stable persisted form).
    """
    return (
        index.rows_aligned
        and type(index._primary) is SortedCellGridIndex
        and type(index._outlier) is SortedCellGridIndex
    )


def _grid_payload(
    grid: SortedCellGridIndex, prefix: str, arrays: Dict[str, np.ndarray]
) -> Dict:
    """Store one grid's derived state under ``prefix::`` keys; return its meta."""
    for axis, boundary in enumerate(grid._boundaries):
        arrays[f"{prefix}::boundary{axis}"] = np.asarray(boundary, dtype=np.float64)
    arrays[f"{prefix}::row_ids"] = grid.row_ids
    arrays[f"{prefix}::offsets"] = grid._offsets
    arrays[f"{prefix}::rank_keys"] = grid._rank_keys
    arrays[f"{prefix}::distinct"] = grid._distinct
    for name in grid.table.schema:
        arrays[f"{prefix}::column::{name}"] = grid._columns[name]
    return {
        "dimensions": list(grid.dimensions),
        "sort_dimension": grid.sort_dimension,
        "cells_per_dim": int(grid._cells_per_dim),
        "n_axes": len(grid._boundaries),
        "axis_lows": [float(value) for value in grid._axis_lows],
        "axis_highs": [float(value) for value in grid._axis_highs],
    }


def _structured_payload(index: COAXIndex, arrays: Dict[str, np.ndarray]) -> Dict:
    """Meta + arrays of the O(metadata) restore state of an aligned index."""
    partition = index._partition
    arrays["partition::inlier_ids"] = np.asarray(partition.inlier_ids, dtype=np.int64)
    arrays["partition::outlier_ids"] = np.asarray(partition.outlier_ids, dtype=np.int64)
    return {
        "indexed_dims": list(index._indexed_dims),
        "predicted_dims": list(index._predicted_dims),
        "sort_dim": index._sort_dim,
        "per_model_inlier_fraction": {
            name: float(value)
            for name, value in partition.per_model_inlier_fraction.items()
        },
        "primary_box": _box_to_json(index._primary_box),
        "outlier_box": _box_to_json(index._outlier_box),
        "primary": _grid_payload(index._primary, "primary", arrays),
        "outlier": _grid_payload(index._outlier, "outlier", arrays),
        "warnings": list(index._report.warnings),
    }


def _restore_grid(
    table: Table,
    grid_meta: Dict,
    prefix: str,
    arrays: Mapping[str, np.ndarray],
) -> SortedCellGridIndex:
    """Reattach one grid from its ``prefix::`` arrays (inverse of
    :func:`_grid_payload`)."""
    columns = {
        name: arrays[f"{prefix}::column::{name}"] for name in table.schema
    }
    boundaries = [
        arrays[f"{prefix}::boundary{axis}"] for axis in range(int(grid_meta["n_axes"]))
    ]
    return SortedCellGridIndex._restore(
        table,
        row_ids=arrays[f"{prefix}::row_ids"],
        columns=columns,
        dimensions=grid_meta["dimensions"],
        sort_dimension=grid_meta["sort_dimension"],
        cells_per_dim=int(grid_meta["cells_per_dim"]),
        boundaries=boundaries,
        axis_lows=grid_meta["axis_lows"],
        axis_highs=grid_meta["axis_highs"],
        offsets=arrays[f"{prefix}::offsets"],
        rank_keys=arrays[f"{prefix}::rank_keys"],
        distinct=arrays[f"{prefix}::distinct"],
    )


def _index_payload(
    index: COAXIndex, *, structured: bool = True
) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Flat-format ``(meta, arrays)`` of one COAX index (no file I/O).

    Shared by the flat save path and the per-shard sections of a sharded
    archive.  Only the covered rows are stored (dead table slots a
    reclaiming compaction left behind cost nothing on disk);
    ``__row_ids__`` records their original ids so loading can scatter them
    back to their table positions — row ids survive a round trip even for
    subset-scoped indexes, which format v2 had to fold-and-renumber
    instead.  With ``structured`` (the columnar layout), eligible indexes
    additionally store their derived structures so loading reattaches
    instead of rebuilding.
    """
    aligned = index.rows_aligned
    table = index.table if aligned else index.table.take(index.row_ids)
    pending = index.n_pending > 0
    next_row_id = int(index.next_row_id)
    tombstone = index.tombstone_mask
    if tombstone is not None and not tombstone.any():
        tombstone = None
    n_tombstoned = int(tombstone.sum()) if tombstone is not None else 0
    meta = {
        "format_version": FORMAT_VERSION,
        "schema": list(table.schema),
        "dimensions": list(index.dimensions),
        "config": _config_to_dict(index.config),
        "groups": [_group_to_dict(group) for group in index.groups],
        "n_rows": table.n_rows,
        "n_pending": int(index.n_pending),
        "next_row_id": next_row_id,
        "n_tombstoned": n_tombstoned,
        "n_live": table.n_rows - n_tombstoned + int(index.n_pending),
    }
    arrays = {f"column::{name}": table.column(name) for name in table.schema}
    if not aligned:
        arrays["__row_ids__"] = np.asarray(index.row_ids, dtype=np.int64)
    if pending:
        for key, array in index.delta.state().items():
            arrays[f"delta::{key}"] = array
    if tombstone is not None:
        arrays["__tombstone__"] = tombstone.copy()
    if index.maintenance is not None:
        # The monitor sections are self-describing (one ``monitor::<name>``
        # array per monitored model); no header field is needed.
        for name, state in index.maintenance.state().items():
            arrays[f"monitor::{name}"] = state
    if structured and _structured_eligible(index):
        meta["structured"] = _structured_payload(index, arrays)
    return meta, arrays


def _strip_structured(meta: Dict, arrays: Dict[str, np.ndarray]) -> None:
    """Drop the v6+ sections for the legacy (v5) ``.npz`` layout."""
    meta.pop("structured", None)
    if "engine" in meta:
        meta["engine"].pop("layout", None)
    for key in [key for key in arrays if key.startswith("layout::")]:
        del arrays[key]
    for shard_meta in meta.get("shards", ()):
        shard_meta.pop("structured", None)
    structured_markers = ("partition::", "primary::", "outlier::")
    for key in [
        key
        for key in arrays
        if key.split("::", 1)[-1:] and any(
            key.split("shard", 1)[-1].split("::", 1)[-1].startswith(marker)
            if key.startswith("shard")
            else key.startswith(marker)
            for marker in structured_markers
        )
    ]:
        del arrays[key]


def _restore_structured_index(
    meta: Dict, arrays: Mapping[str, np.ndarray]
) -> COAXIndex:
    """Reattach an aligned index from its structured (v8) state."""
    state = meta["structured"]
    columns = {name: arrays[f"column::{name}"] for name in meta["schema"]}
    table = Table(columns)
    groups = [_group_from_dict(item) for item in meta["groups"]]
    config = _config_from_dict(meta["config"])
    # repro-lint: allow[materialize] dtype-preserving view of the archived id arrays: zero-copy on v6 mmap (already int64), copies only for legacy archives
    inlier_ids = np.asarray(arrays["partition::inlier_ids"], dtype=np.int64)
    # repro-lint: allow[materialize] dtype-preserving view of the archived id arrays: zero-copy on v6 mmap (already int64), copies only for legacy archives
    outlier_ids = np.asarray(arrays["partition::outlier_ids"], dtype=np.int64)
    partition = PartitionResult(
        inlier_ids=inlier_ids,
        outlier_ids=outlier_ids,
        per_model_inlier_fraction={
            name: float(value)
            for name, value in state["per_model_inlier_fraction"].items()
        },
    )
    primary = _restore_grid(table, state["primary"], "primary", arrays)
    outlier = _restore_grid(table, state["outlier"], "outlier", arrays)
    return COAXIndex._restore_structured(
        table,
        config=config,
        groups=groups,
        dimensions=meta["dimensions"],
        partition=partition,
        indexed_dims=state["indexed_dims"],
        predicted_dims=state["predicted_dims"],
        sort_dim=state["sort_dim"],
        primary=primary,
        outlier=outlier,
        primary_box=_box_from_json(state["primary_box"]),
        outlier_box=_box_from_json(state["outlier_box"]),
        report_warnings=state.get("warnings", ()),
    )


def _restore_flat_index(meta: Dict, arrays: Mapping[str, np.ndarray]) -> COAXIndex:
    """Rebuild one COAX index from a flat-format ``(meta, arrays)`` pair."""
    delta_payload: Dict[str, np.ndarray] = {}
    if meta.get("n_pending"):
        prefix = "delta::"
        delta_payload = {
            key[len(prefix):]: array
            for key, array in arrays.items()
            if key.startswith(prefix)
        }
    tombstone = (
        # repro-lint: allow[materialize] dtype-preserving view of the archived bitmask: zero-copy on v6 mmap (already bool)
        np.asarray(arrays["__tombstone__"], dtype=bool)
        if "__tombstone__" in arrays
        else None
    )
    if "structured" in meta and meta["format_version"] >= 8:
        # Structured state of a clustered (v8+) grid layout: reattach the
        # saved structures verbatim — no model evaluation, no re-sort,
        # O(metadata) plus the mapping.  The v6/v7 grid sections describe
        # the older permutation layout and are ignored: those archives
        # rebuild from their groups below.
        index = _restore_structured_index(meta, arrays)
        table = index.table
        row_ids = None
    else:
        columns = {name: arrays[f"column::{name}"] for name in meta["schema"]}
        row_ids = (
            # repro-lint: allow[materialize] dtype-preserving view of the archived id array: zero-copy on v6 mmap (already int64)
            np.asarray(arrays["__row_ids__"], dtype=np.int64)
            if "__row_ids__" in arrays
            else None
        )
        groups: List[FDGroup] = [_group_from_dict(item) for item in meta["groups"]]
        config = _config_from_dict(meta["config"])
        if row_ids is None:
            # Aligned archive: saved order is table order, ids are 0..n-1.
            table = Table(columns)
            index = COAXIndex(
                table, config=config, groups=groups, dimensions=meta["dimensions"]
            )
        else:
            # Subset-scoped archive: scatter the saved rows back to their
            # original table positions (row id == position, the invariant the
            # whole update path relies on); the gaps are dead slots no row-id
            # set ever covers.
            size = int(row_ids.max()) + 1 if len(row_ids) else 0
            scattered = {}
            for name in meta["schema"]:
                column = np.full(size, np.nan)
                column[row_ids] = columns[name]
                scattered[name] = column
            table = Table(scattered)
            index = COAXIndex(
                table,
                config=config,
                groups=groups,
                row_ids=row_ids,
                dimensions=meta["dimensions"],
            )
    if tombstone is not None and tombstone.any():
        # The bitmap is positional over the saved coverage order; map it to
        # row ids and re-apply without triggering an auto-compaction
        # mid-load.
        covered = row_ids if row_ids is not None else np.arange(table.n_rows, dtype=np.int64)
        index._delete_main_rows(np.unique(covered[tombstone]))
    if delta_payload:
        index.delta.load_state(delta_payload)
    next_row_id = meta.get("next_row_id")
    if next_row_id is not None:
        index._next_row_id = int(next_row_id)
    _load_monitor_state(index.maintenance, arrays)
    return index


def _load_monitor_state(maintenance, arrays: Mapping[str, np.ndarray]) -> None:
    """Restore drift-monitor state from ``monitor::<name>`` arrays.

    Archives written before format v5 (or with maintenance disabled)
    simply carry no such arrays: the monitors then start fresh, exactly
    the state a newly built adaptive index has.
    """
    if maintenance is None:
        return
    prefix = "monitor::"
    payload = {
        key[len(prefix):]: np.asarray(array)
        for key, array in arrays.items()
        if key.startswith(prefix)
    }
    if payload:
        maintenance.load_state(payload)


def _load_layout_state(monitor, arrays: Mapping[str, np.ndarray]) -> None:
    """Restore the layout monitor's sketch from ``layout::<name>`` arrays.

    Archives written before format v7 (or with adaptive layout disabled)
    carry no such arrays: the monitor then starts fresh — empty sketch,
    epoch 0 — exactly the state a newly built adaptive engine has.
    """
    if monitor is None:
        return
    prefix = "layout::"
    payload = {
        key[len(prefix):]: np.asarray(array)
        for key, array in arrays.items()
        if key.startswith(prefix)
    }
    if payload:
        monitor.load_state(payload)


# ----------------------------------------------------------------------
# On-disk layouts
# ----------------------------------------------------------------------

def _sanitize_key(key: str) -> str:
    """Filesystem-safe slug of a logical array key (uniqueness comes from
    the numbered prefix the writer adds, not from the slug)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key)[:80]


def _swap_into_place(tmp: Path, path: Path) -> None:
    """Atomically promote the fully written ``tmp`` directory to ``path``.

    A pre-existing archive (directory or legacy file) is renamed aside
    first and removed after the swap, so at every instant ``path`` either
    does not exist or names a complete archive.  Readers that already
    attached the old files keep valid mappings — POSIX keeps the data
    alive until the last descriptor drops.
    """
    retired: Optional[Path] = None
    if path.exists():
        retired = path.parent / f".{path.name}.retired-{os.getpid()}"
        if retired.is_dir():
            shutil.rmtree(retired)
        elif retired.exists():
            retired.unlink()
        os.rename(path, retired)
    os.rename(tmp, path)
    if retired is not None:
        if retired.is_dir():
            shutil.rmtree(retired)
        else:
            retired.unlink()


def _write_columnar(meta: Dict, arrays: Dict[str, np.ndarray], path: Path) -> Path:
    """Write a v6 columnar archive directory (tmp dir + atomic rename)."""
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    (tmp / ARRAY_DIR).mkdir(parents=True)
    entries: Dict[str, Dict] = {}
    for number, (key, array) in enumerate(arrays.items()):
        array = np.asarray(array)
        dtype = array.dtype
        if dtype.byteorder == ">":
            dtype = dtype.newbyteorder("<")
            array = array.astype(dtype, copy=False)
        filename = f"{ARRAY_DIR}/{number:04d}_{_sanitize_key(key)}.bin"
        array.tofile(tmp / filename)
        entries[key] = {
            "file": filename,
            "dtype": dtype.str,
            "shape": list(array.shape),
        }
    manifest = {"meta": meta, "arrays": entries}
    # The manifest goes in last: its presence certifies every array file
    # before it is complete.
    (tmp / MANIFEST_NAME).write_text(json.dumps(manifest))
    _swap_into_place(tmp, path)
    return path


def _read_columnar(path: Path) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Attach a v6 columnar archive: parse the manifest, map the arrays."""
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(
            f"{path} is not a COAX index archive (missing {MANIFEST_NAME})"
        )
    manifest = json.loads(manifest_path.read_text())
    meta = manifest.get("meta")
    if not isinstance(meta, dict):
        raise ValueError(f"{path} is not a COAX index archive (malformed manifest)")
    version = meta.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise UnsupportedFormatError(version)
    arrays: Dict[str, np.ndarray] = {}
    for key, entry in manifest["arrays"].items():
        file = path / entry["file"]
        dtype = np.dtype(entry["dtype"])
        shape = tuple(int(dim) for dim in entry["shape"])
        n_items = int(np.prod(shape)) if shape else 1
        if n_items == 0:
            arrays[key] = np.empty(shape, dtype=dtype)
        elif dtype.kind in "fiu" and n_items * dtype.itemsize >= MMAP_MIN_BYTES:
            # Copy-on-write mapping: reads share the page cache across
            # every process attached to this archive, and an in-place
            # write could only dirty private pages, never the file.  The
            # path goes in as a string: np.memmap resolves a Path through
            # the filesystem, one lstat per path component and array.
            arrays[key] = np.memmap(os.fspath(file), dtype=dtype, mode="c", shape=shape)
        else:
            arrays[key] = np.fromfile(file, dtype=dtype).reshape(shape)
    return meta, arrays


def _write_npz(meta: Dict, arrays: Dict[str, np.ndarray], path: Path) -> Path:
    """Write the legacy (v5) single-file ``.npz`` layout."""
    meta = dict(meta)
    arrays = dict(arrays)
    _strip_structured(meta, arrays)
    meta["format_version"] = LEGACY_FORMAT_VERSION
    arrays["__meta__"] = np.array(json.dumps(meta))
    with path.open("wb") as handle:
        np.savez_compressed(handle, **arrays)
    return path


def _build_archive(index: Union[COAXIndex, ShardedCOAX]) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Assemble the full ``(meta, arrays)`` snapshot of an index or engine.

    Taken under the single-writer lock: a mutation landing between two
    shard sections (or between a shard section and its mapping array)
    would otherwise produce a torn snapshot.
    """
    if isinstance(index, ShardedCOAX):
        with index.write_lock:
            engine_config = index.config
            shard_metas = []
            arrays: Dict[str, np.ndarray] = {}
            for shard_no, shard in enumerate(index.shards):
                shard_meta, shard_arrays = _index_payload(shard)
                shard_metas.append(shard_meta)
                prefix = f"shard{shard_no}::"
                for key, array in shard_arrays.items():
                    arrays[prefix + key] = array
                arrays[prefix + "__global_of__"] = np.asarray(
                    index._global_of[shard_no], dtype=np.int64
                )
            meta = {
                "format_version": FORMAT_VERSION,
                "engine": {
                    "n_shards": engine_config.n_shards,
                    "partitioning": engine_config.partitioning,
                    "partition_dimension": index.partition_dimension,
                    "workers": engine_config.workers,
                    "executor": engine_config.executor,
                    "boundaries": [float(b) for b in index.shard_boundaries],
                    "dimensions": list(index.dimensions),
                    "config": _config_to_dict(engine_config.coax),
                    "groups": [_group_to_dict(group) for group in index.groups],
                    "next_global_id": int(index.next_row_id),
                    # Format v7: the workload-adaptive layout knobs (the
                    # monitor's sketch rides along as ``layout::`` arrays).
                    "layout": asdict(engine_config.layout),
                },
                "shards": shard_metas,
            }
            if index.maintenance is not None:
                for name, state in index.maintenance.state().items():
                    arrays[f"monitor::{name}"] = state
            if index.layout is not None:
                for name, state in index.layout.state().items():
                    arrays[f"layout::{name}"] = state
    else:
        with index.write_lock:
            meta, arrays = _index_payload(index)
    return meta, arrays


def save_index(
    index: Union[COAXIndex, ShardedCOAX],
    path: Union[str, Path],
    *,
    layout: str = "columnar",
) -> Path:
    """Persist an index (data + learned state + delta store) to ``path``.

    The default ``layout="columnar"`` writes a :data:`FORMAT_VERSION`
    archive *directory*: one raw little-endian file per column/array plus a
    ``manifest.json`` written last, assembled under a temporary name and
    atomically renamed into place so readers never observe a torn
    archive.  ``layout="npz"`` writes the legacy v5 single-file archive
    (no structured-restore section) for compatibility tooling.  Both
    layouts serve flat :class:`COAXIndex` and sharded :class:`ShardedCOAX`
    snapshots — pending records, tombstones and drift-monitor state
    included — so loading restores the exact pre-save state.  Returns the
    path written.
    """
    path = Path(path)
    if layout not in ("columnar", "npz"):
        raise ValueError(f"layout must be 'columnar' or 'npz', got {layout!r}")
    meta, arrays = _build_archive(index)
    if layout == "npz":
        return _write_npz(meta, arrays, path)
    return _write_columnar(meta, arrays, path)


def _restore_engine(
    meta: Dict,
    arrays: Mapping[str, np.ndarray],
    *,
    workers: Optional[int] = None,
) -> ShardedCOAX:
    """Rebuild a sharded engine from a sharded (format 4+) archive's contents."""
    engine_meta = meta["engine"]
    shards: List[COAXIndex] = []
    global_of: List[np.ndarray] = []
    for shard_no, shard_meta in enumerate(meta["shards"]):
        prefix = f"shard{shard_no}::"
        shard_arrays = {
            key[len(prefix):]: array
            for key, array in arrays.items()
            if key.startswith(prefix)
        }
        # repro-lint: allow[materialize] dtype-preserving view of the archived id array: zero-copy on v6 mmap (already int64)
        global_of.append(np.asarray(shard_arrays.pop("__global_of__"), dtype=np.int64))
        shards.append(_restore_flat_index(shard_meta, shard_arrays))
    config = EngineConfig(
        n_shards=int(engine_meta["n_shards"]),
        partitioning=engine_meta["partitioning"],
        partition_dimension=engine_meta.get("partition_dimension"),
        workers=int(workers if workers is not None else engine_meta.get("workers", 1)),
        coax=_config_from_dict(engine_meta["config"]),
        # Archives written before format v7 carry no layout section; the
        # default (disabled) configuration is exactly their behaviour.
        layout=LayoutConfig(**dict(engine_meta.get("layout", {}))),
    )
    groups = [_group_from_dict(item) for item in engine_meta["groups"]]
    engine = ShardedCOAX._from_shards(
        shards,
        config=config,
        groups=groups,
        dimensions=engine_meta["dimensions"],
        global_of=global_of,
        next_global_id=int(engine_meta["next_global_id"]),
        boundaries=np.asarray(engine_meta.get("boundaries", []), dtype=np.float64),
        partition_dimension=engine_meta.get("partition_dimension"),
    )
    _load_monitor_state(engine.maintenance, arrays)
    _load_layout_state(engine.layout, arrays)
    return engine


def _read_archive(path: Path) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Attach an archive's header and arrays, validating the version.

    Dispatches on the path kind: a directory is the columnar (v6) layout
    — arrays come back memmap-attached; a file is a legacy (v1–v5)
    ``.npz`` — arrays are materialised, the conversion shim for every
    older format.
    """
    if path.is_dir():
        return _read_columnar(path)
    with np.load(path, allow_pickle=False) as archive:
        if "__meta__" not in archive:
            raise ValueError(f"{path} is not a COAX index archive (missing __meta__)")
        meta = json.loads(str(archive["__meta__"]))
        version = meta.get("format_version")
        if version not in SUPPORTED_VERSIONS:
            raise UnsupportedFormatError(version)
        arrays = {key: archive[key] for key in archive.files if key != "__meta__"}
    return meta, arrays


def load_index(path: Union[str, Path]) -> Union[COAXIndex, ShardedCOAX]:
    """Load an index previously written by :func:`save_index`.

    Flat archives (no ``engine`` header) come back as a
    :class:`COAXIndex`; sharded archives (``engine`` header present) as a
    :class:`ShardedCOAX` engine (use :func:`load_engine` to always
    receive an engine).  Columnar (v6) archives attach their arrays with
    copy-on-write ``np.memmap`` and *reattach* the saved structures when
    the structured section is present — O(metadata) cold start, no model
    evaluation, page cache shared across processes; other archives are
    rebuilt deterministically with the stored groups and configuration
    (no re-detection), so the loaded index partitions and answers queries
    exactly like the saved one either way.  Pending delta-store records
    are restored un-compacted — without re-evaluating any FD model when
    the archive carries the per-model masks (version 3+) — tombstoned
    rows come back deleted, ready for the next compaction to reclaim, and
    drift-monitor state (version 5+) resumes exactly where it left off.
    Unsupported versions raise :class:`UnsupportedFormatError`.
    """
    meta, arrays = _read_archive(Path(path))
    if "engine" in meta:
        return _restore_engine(meta, arrays)
    return _restore_flat_index(meta, arrays)


def load_engine(
    path: Union[str, Path],
    *,
    workers: Optional[int] = None,
) -> ShardedCOAX:
    """Load any supported archive as a sharded engine.

    Sharded archives restore natively; flat archives are wrapped into a
    1-shard engine whose shard is the loaded COAX index, so legacy
    archives adopt the engine API without conversion (an adaptive flat
    index's drift monitors are promoted to the engine, which coordinates
    every refresh from then on).  ``workers`` overrides the saved pool
    size — a deployment knob, not part of the data; a sharded archive
    remembers it, but a load-time override always wins.
    """
    meta, arrays = _read_archive(Path(path))
    if "engine" in meta:
        return _restore_engine(meta, arrays, workers=workers)
    return ShardedCOAX.from_index(_restore_flat_index(meta, arrays), workers=workers or 1)
