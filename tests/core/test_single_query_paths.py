"""COAX answers a single rectangle as a batch of one, for every outlier index.

``range_query``, ``query`` and ``topk`` plan one rectangle through the
batch planner and run the batch sub-index calls.  A non-grid outlier index
(R-tree, full scan, uniform grid) takes its rectangle-level batch entry
point, so each of the four ``outlier_index`` kinds is a separate path.
With pending inserts, pending updates and tombstones in place, every
answer must equal a full scan of the live rows, which this file keeps by
hand:

* ``range_query`` and ``batch_range_query`` return the oracle's ids;
* ``query`` splits them into disjoint primary, outlier and pending parts
  whose union is the oracle's ids, and the pending part holds only
  pending ids;
* COUNT and SUM (``batch_aggregate``) and ``topk`` by column equal a
  :class:`FullScanIndex` over the live rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig
from repro.data.executors import Aggregate, TopK
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel
from repro.indexes.full_scan import FullScanIndex

OUTLIER_KINDS = ["sorted_cell_grid", "uniform_grid", "rtree", "full_scan"]
SCHEMA = ("x", "y", "z")


def groups():
    return [
        FDGroup(predictor="x", dependents=("y",), models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
    ]


def fd_rows(rng, n: int):
    """``n`` rows on the soft FD y ~= 2x, about a sixth of them outliers."""
    x = rng.uniform(0.0, 100.0, size=n)
    y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
    flip = rng.random(n) < 0.15
    y[flip] = rng.uniform(0.0, 250.0, size=int(flip.sum()))
    return {"x": x, "y": y, "z": rng.uniform(0.0, 8.0, size=n)}


def queries_for(rng, live):
    """Points on live rows, boxes, dependent-only, empty and unconstrained
    rectangles."""
    ids = np.flatnonzero(live["alive"])
    queries = [Rectangle.unconstrained(), Rectangle({"x": Interval(5.0, 1.0)})]
    for row in rng.choice(ids, size=4, replace=False):
        queries.append(Rectangle.from_point({name: float(live[name][row]) for name in SCHEMA}))
    for _ in range(8):
        x = float(rng.uniform(-10.0, 100.0))
        y = float(rng.uniform(-10.0, 230.0))
        box = {
            "x": Interval(x, x + float(rng.uniform(0.0, 40.0))),
            "y": Interval(y, y + float(rng.uniform(0.0, 80.0))),
            "z": Interval(0.0, float(rng.uniform(2.0, 9.0))),
        }
        keep = rng.random(3) < 0.7
        queries.append(Rectangle({name: box[name] for name, k in zip(SCHEMA, keep) if k}))
    queries.append(Rectangle({"y": Interval(100.0, 140.0)}))
    return queries


def build(kind: str, seed: int):
    """A COAX index with pending inserts and updates and tombstoned rows,
    and the live rows it must hold (``alive`` marks them by id)."""
    rng = np.random.default_rng(seed)
    base = fd_rows(rng, 400)
    index = COAXIndex(Table(base), groups=groups(), config=COAXConfig(outlier_index=kind))
    live = {name: np.array(values) for name, values in base.items()}
    new = fd_rows(rng, 60)
    ids = index.insert_batch(new)
    for name in SCHEMA:
        live[name] = np.concatenate([live[name], new[name]])
    live["alive"] = np.ones(len(live["x"]), dtype=bool)
    assert ids.tolist() == list(range(400, 460))
    # Update main rows (tombstoned, re-buffered) and pending rows in place.
    updated = np.concatenate([rng.choice(400, size=25, replace=False), ids[:5]])
    changes = fd_rows(rng, len(updated))
    index.update_batch(updated, changes)
    for name in SCHEMA:
        live[name][updated] = changes[name]
    # Delete main rows and pending rows.
    doomed = np.concatenate([rng.choice(400, size=30, replace=False), ids[10:15]])
    index.delete_batch(doomed)
    live["alive"][doomed] = False
    assert index.n_pending and index.n_tombstoned
    return index, live, rng


def oracle(live) -> FullScanIndex:
    ids = np.flatnonzero(live["alive"])
    return FullScanIndex(Table({name: live[name][ids] for name in SCHEMA}), ids=ids)


class TestSingleQueryPaths:
    @given(st.sampled_from(OUTLIER_KINDS), st.integers(0, 10_000))
    @settings(max_examples=24, deadline=None)
    def test_matches_full_scan(self, kind, seed):
        index, live, rng = build(kind, seed)
        full = oracle(live)
        pending = set(index.delta.row_ids.tolist())
        queries = queries_for(rng, live)
        batch = index.batch_range_query(queries)
        counts = index.batch_aggregate(queries, Aggregate("count"))
        sums = index.batch_aggregate(queries, Aggregate("sum", "z"))
        for i, query in enumerate(queries):
            expected = np.sort(full.range_query(query))
            assert np.array_equal(index.range_query(query), expected), query
            assert np.array_equal(batch[i], expected), query
            result = index.query(query)
            parts = [result.primary_row_ids, result.outlier_row_ids, result.pending_row_ids]
            assert np.array_equal(result.row_ids, expected), query
            assert np.array_equal(np.sort(np.concatenate(parts)), expected), query
            assert set(result.pending_row_ids.tolist()) <= pending
            assert counts[i] == len(expected)
            assert sums[i] == pytest.approx(full.aggregate(query, Aggregate("sum", "z")), rel=1e-12)
            for spec in (TopK(5, column="z"), TopK(3, column="y", largest=True)):
                assert np.array_equal(index.topk(query, spec), full.topk(query, spec)), query

    @pytest.mark.parametrize("kind", OUTLIER_KINDS)
    def test_delete_where_removes_exactly_the_matches(self, kind):
        index, live, _ = build(kind, 7)
        query = Rectangle({"x": Interval(20.0, 45.0), "z": Interval(1.0, 6.0)})
        expected = np.sort(oracle(live).range_query(query))
        assert np.array_equal(np.sort(index.delete_where(query)), expected)
        live["alive"][expected] = False
        assert len(index.range_query(query)) == 0
        unconstrained = Rectangle.unconstrained()
        assert np.array_equal(
            index.range_query(unconstrained), np.sort(oracle(live).range_query(unconstrained))
        )
