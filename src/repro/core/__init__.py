"""COAX core: the paper's primary contribution.

The :class:`~repro.core.coax.COAXIndex` ties together the soft-FD learning
of :mod:`repro.fd`, the reduced-dimensionality primary index and the outlier
index of :mod:`repro.indexes`, and the query translation of Section 4.  The
submodules are usable on their own (e.g. the query translator operates on
plain rectangles and FD groups) and are combined by the index class.  The
``*_batch`` variants are the vectorized whole-batch forms the batch read
path is built from.
"""

from repro.core.config import COAXConfig, EngineConfig, LayoutConfig
from repro.core.delta import DeltaStore
from repro.core.engine import EngineClosedError, ShardedCOAX
from repro.core.query_translation import (
    translate_bounds_batch,
    translate_query,
    translate_query_batch,
    translated_predictor_interval,
)
from repro.core.partitioner import PartitionResult, partition_rows
from repro.core.planner import QueryPlan, plan_query, plan_query_flags
from repro.core.results import (
    QueryResult,
    merge_flat_row_ids,
    merge_row_ids,
)
from repro.core.coax import COAXIndex, COAXBuildReport

__all__ = [
    "COAXConfig",
    "EngineConfig",
    "LayoutConfig",
    "EngineClosedError",
    "ShardedCOAX",
    "DeltaStore",
    "translate_query",
    "translate_query_batch",
    "translate_bounds_batch",
    "translated_predictor_interval",
    "PartitionResult",
    "partition_rows",
    "QueryPlan",
    "plan_query",
    "plan_query_flags",
    "QueryResult",
    "merge_row_ids",
    "merge_flat_row_ids",
    "COAXIndex",
    "COAXBuildReport",
]
