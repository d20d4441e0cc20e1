"""The repository benchmark's tracer still sees the delta store's batch calls.

``perfbench/tracer.py`` records per-layer spans by wrapping public method
names on live objects; ``delta.scan_ms`` is the summed time of the spans
it takes around ``DeltaStore.scan_batch`` and ``fold_aggregate_batch``.
A rename or a read path that stopped calling them would silently read as
zero delta time, so this test runs one range batch and one aggregate
batch over an engine with pending rows and checks that both spans exist.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.executors import Aggregate
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import LAYER_METHODS, Tracer  # noqa: E402


def test_delta_batch_spans_are_recorded():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 100.0, size=600)
    table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1.0, 1.0, size=600)})
    groups = [
        FDGroup(predictor="x", dependents=("y",), models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
    ]
    engine = ShardedCOAX(table, config=EngineConfig(n_shards=2, workers=1), groups=groups)
    try:
        nx = rng.uniform(0.0, 100.0, size=50)
        engine.insert_batch({"x": nx, "y": 2.0 * nx})
        assert all(shard.n_pending for shard in engine.shards)
        tracer = Tracer()
        tracer.instrument(engine)
        queries = [Rectangle({"x": Interval(low, low + 30.0)}) for low in (0.0, 35.0, 70.0)]
        assert sum(len(ids) for ids in engine.batch_range_query(queries)) > 0
        assert engine.batch_aggregate(queries, Aggregate("count")).sum() > 0
        for method in ("scan_batch", "fold_aggregate_batch"):
            assert method in LAYER_METHODS["delta"]
            assert tracer.counters[("delta", method)]["calls"] > 0, method
            assert len(tracer.intervals("delta", [method])) > 0, method
        assert tracer.total_ms("delta") > 0.0
    finally:
        engine.close()
