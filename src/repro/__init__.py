"""COAX: Correlation-Aware Indexing — reproduction library.

A from-scratch Python implementation of COAX (Hadian, Ghaffari, Wang,
Heinis): a multidimensional primary index that learns soft functional
dependencies between attributes, indexes only one predictor attribute per
correlated group, translates query constraints on the predicted attributes
into constraints on the indexed ones, and keeps the records violating the
learned dependency in a small conventional outlier index.

Quickstart::

    from repro import COAXIndex, Rectangle, Interval, generate_airline_dataset

    table, _ = generate_airline_dataset()
    index = COAXIndex(table)
    query = Rectangle({"Distance": Interval(500, 800), "AirTime": Interval(60, 120)})
    row_ids = index.range_query(query)

See DESIGN.md (repository root) for the architecture: the layer inventory,
the query pipeline, and the columnar delta-store update subsystem.
"""

from repro.data import (
    MATERIALIZE,
    Aggregate,
    Interval,
    MaterializeIds,
    Rectangle,
    Schema,
    Table,
    TopK,
    AirlineConfig,
    OSMConfig,
    generate_airline_dataset,
    generate_osm_dataset,
    generate_knn_queries,
    generate_point_queries,
    generate_selectivity_queries,
    WorkloadConfig,
)
from repro.fd import (
    BayesianLinearRegression,
    DetectionConfig,
    FDGroup,
    LinearFDModel,
    SplineFDModel,
    detect_soft_fds,
)
from repro.indexes import (
    ColumnFilesIndex,
    FullScanIndex,
    RTreeIndex,
    SortedCellGridIndex,
    UniformGridIndex,
)
from repro.core import (
    COAXConfig,
    COAXIndex,
    DeltaStore,
    EngineClosedError,
    EngineConfig,
    LayoutConfig,
    QueryResult,
    ShardedCOAX,
    translate_query,
)
from repro.data.sql import parse_where
from repro.io import (
    UnsupportedFormatError,
    load_csv,
    load_engine,
    load_index,
    save_csv,
    save_index,
)
from repro.stats.profile import TableProfile, profile_table

__version__ = "1.0.0"

__all__ = [
    "MATERIALIZE",
    "Aggregate",
    "MaterializeIds",
    "TopK",
    "Interval",
    "Rectangle",
    "Schema",
    "Table",
    "AirlineConfig",
    "OSMConfig",
    "generate_airline_dataset",
    "generate_osm_dataset",
    "generate_knn_queries",
    "generate_point_queries",
    "generate_selectivity_queries",
    "WorkloadConfig",
    "BayesianLinearRegression",
    "DetectionConfig",
    "FDGroup",
    "LinearFDModel",
    "SplineFDModel",
    "detect_soft_fds",
    "ColumnFilesIndex",
    "FullScanIndex",
    "RTreeIndex",
    "SortedCellGridIndex",
    "UniformGridIndex",
    "COAXConfig",
    "COAXIndex",
    "EngineClosedError",
    "EngineConfig",
    "LayoutConfig",
    "ShardedCOAX",
    "DeltaStore",
    "QueryResult",
    "translate_query",
    "parse_where",
    "save_index",
    "load_index",
    "load_engine",
    "UnsupportedFormatError",
    "load_csv",
    "save_csv",
    "TableProfile",
    "profile_table",
    "__version__",
]
