#!/usr/bin/env python
"""Update workflow: batch-inserting new records into a live COAX index.

The paper leaves updates as future work but sketches the mechanism: the
learned grid and the Bayesian regression can absorb new data incrementally.
This example demonstrates the columnar delta-store update subsystem:

1. build COAX over an initial batch of order records;
2. stream new orders in with ``insert_batch`` — the whole batch is routed
   by the learned soft-FD models in one vectorised margin check and is
   immediately queryable;
3. measure batch vs one-row-at-a-time insert throughput;
4. show the Bayesian model being refined online from the new batch;
5. let threshold-triggered auto-compaction fold the buffers into the main
   structures incrementally, and verify results stay exact throughout;
6. complete the CRUD cycle: cancel orders with ``delete_batch`` /
   ``delete_where`` (tombstoned, invisible immediately), reprice orders
   in place with ``update_batch`` (same row ids), and reclaim the
   tombstones with a compaction.

Run with::

    python examples/update_workflow.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    BayesianLinearRegression,
    COAXConfig,
    COAXIndex,
    Interval,
    Rectangle,
    Table,
)


def order_batch(n_rows: int, rng: np.random.Generator, start_id: float = 1.0) -> Table:
    """Order table: order_id, price, ship weight (correlated with price)."""
    order_id = np.arange(start_id, start_id + n_rows)
    price = rng.gamma(shape=2.0, scale=40.0, size=n_rows) + 5.0
    # Shipping weight roughly tracks price (bigger orders weigh more), with
    # a few gift-card orders (zero weight) breaking the pattern.
    weight = 0.08 * price + rng.normal(0.0, 0.4, size=n_rows)
    gift_cards = rng.random(n_rows) < 0.06
    weight[gift_cards] = 0.01
    return Table({"order_id": order_id, "price": price, "weight": weight})


def main() -> None:
    rng = np.random.default_rng(3)
    table = order_batch(40_000, rng)
    config = COAXConfig(auto_compact_threshold=150_000)
    index = COAXIndex(table, config=config)
    print("initial build")
    print("-------------")
    print(index.build_report.describe())
    print()

    heavy_and_pricey = Rectangle(
        {"price": Interval(100.0, 200.0), "weight": Interval(8.0, 20.0)}
    )
    before = len(index.range_query(heavy_and_pricey))
    print(f"orders with price in [100, 200] and weight in [8, 20]: {before}\n")

    # ------------------------------------------------------------------
    # Stream new orders in, one vectorised batch.
    # ------------------------------------------------------------------
    stream_rng = np.random.default_rng(99)
    new_orders = order_batch(100_000, stream_rng, start_id=float(table.n_rows + 1))
    inserted_matching = int(np.count_nonzero(new_orders.mask(heavy_and_pricey)))

    print(f"inserting {new_orders.n_rows} new orders with insert_batch() ...")
    start = time.perf_counter()
    row_ids = index.insert_batch(new_orders)
    batch_seconds = time.perf_counter() - start
    print(f"  batch insert: {new_orders.n_rows} rows in {batch_seconds * 1e3:.1f} ms "
          f"({new_orders.n_rows / batch_seconds:,.0f} rows/s)")
    print(f"  pending records: {index.n_pending} "
          f"(primary-bound {index.n_pending_primary}, "
          f"outlier-bound {index.n_pending_outlier})")

    # One-row-at-a-time comparison over a small sample, for contrast.
    sample = order_batch(1_000, np.random.default_rng(7), start_id=1e9)
    probe = COAXIndex(table, config=config, groups=list(index.groups))
    start = time.perf_counter()
    for record in sample.iter_rows():
        probe.insert(record)
    seq_seconds = (time.perf_counter() - start) / sample.n_rows * new_orders.n_rows
    print(f"  sequential insert() would take ~{seq_seconds:.2f} s for the same stream "
          f"({seq_seconds / batch_seconds:,.0f}x slower)\n")

    after = len(index.range_query(heavy_and_pricey))
    print(f"same query now returns {after} orders "
          f"({after - before} of the inserted ones match; expected {inserted_matching})")
    assert after - before == inserted_matching
    assert len(row_ids) == new_orders.n_rows

    # ------------------------------------------------------------------
    # Online refinement of the soft-FD model (the Bayesian update path).
    # ------------------------------------------------------------------
    group = index.groups[0]
    dependent = group.dependents[0]
    model = group.model_for(dependent)
    print("\nonline model refinement")
    print("-----------------------")
    print(f"model in use: {dependent} ~ {model.slope:.4f} * {group.predictor} "
          f"+ {model.intercept:.4f}")
    refreshed = BayesianLinearRegression()
    refreshed.update(table.column(group.predictor), table.column(dependent))
    posterior_before = refreshed.posterior()
    pending_primary = index.delta.inlier_mask
    refreshed.update(
        index.delta.column(group.predictor)[pending_primary],
        index.delta.column(dependent)[pending_primary],
    )
    posterior_after = refreshed.posterior()
    print(f"posterior slope before new batch: {posterior_before.slope:.5f} "
          f"(+/- {posterior_before.slope_std:.5f})")
    print(f"posterior slope after new batch : {posterior_after.slope:.5f} "
          f"(+/- {posterior_after.slope_std:.5f})")

    # ------------------------------------------------------------------
    # Compaction: threshold-triggered, incremental, in place.
    # ------------------------------------------------------------------
    print("\nauto-compaction")
    print("---------------")
    trigger = order_batch(60_000, stream_rng, start_id=2e9)
    expected_extra = int(np.count_nonzero(trigger.mask(heavy_and_pricey)))
    print(f"inserting {trigger.n_rows} more orders "
          f"(crosses the auto_compact_threshold of {config.auto_compact_threshold}) ...")
    start = time.perf_counter()
    index.insert_batch(trigger)
    elapsed = time.perf_counter() - start
    print(f"  insert + triggered compaction took {elapsed * 1e3:.1f} ms")
    print(f"  rows indexed: {index.n_rows}, pending: {index.n_pending}")
    assert index.n_pending == 0, "auto-compaction should have drained the delta store"
    final = len(index.range_query(heavy_and_pricey))
    assert final == after + expected_extra
    print("query results unchanged by compaction — exactness preserved.")

    # ------------------------------------------------------------------
    # Deletes and in-place updates (the rest of CRUD).
    # ------------------------------------------------------------------
    print("\ndeletes and updates")
    print("-------------------")
    matching = index.range_query(heavy_and_pricey)
    cancelled = matching[: len(matching) // 2]
    start = time.perf_counter()
    n_deleted = index.delete_batch(cancelled)
    delete_ms = (time.perf_counter() - start) * 1e3
    print(f"cancelled {n_deleted} orders with delete_batch() in {delete_ms:.2f} ms "
          f"(tombstoned, {index.n_tombstoned} pending reclaim)")
    assert len(index.range_query(heavy_and_pricey)) == final - n_deleted

    # Reprice the remaining matches in place — the row ids stay the same.
    # live_rows() reads the current values back from the index, in id order.
    remaining = index.range_query(heavy_and_pricey)
    current, live_ids = index.live_rows(("order_id", "weight"))
    at = np.searchsorted(live_ids, remaining)
    repriced = {
        "order_id": current["order_id"][at],
        "price": np.full(len(remaining), 99.0),
        "weight": current["weight"][at],
    }
    index.update_batch(remaining, repriced)
    print(f"repriced {len(remaining)} orders to 99.00 with update_batch() "
          f"(ids preserved, {index.n_pending} pending)")
    assert len(index.range_query(heavy_and_pricey)) == 0
    sale = Rectangle({"price": Interval(99.0, 99.0), "weight": Interval(8.0, 20.0)})
    assert len(index.range_query(sale)) == len(remaining)

    # delete_where removes whatever a predicate matches, in one call.
    gift_cards = Rectangle({"weight": Interval(0.0, 0.02)})
    swept = index.delete_where(gift_cards)
    print(f"swept {len(swept)} gift-card orders with delete_where()")

    # Compaction physically reclaims every tombstone; ids survive.
    index.compact()
    assert index.n_tombstoned == 0 and index.n_pending == 0
    assert len(index.range_query(sale)) == len(remaining)
    print(f"compacted: {index.n_rows} live rows, tombstones reclaimed, "
          "query results unchanged — full CRUD, exact throughout.")


if __name__ == "__main__":
    main()
