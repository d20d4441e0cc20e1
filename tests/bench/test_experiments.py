"""Smoke and shape tests for the experiment drivers (tiny scales).

These tests run every driver end to end at a very small scale and check the
structural properties the paper's artefacts rely on — not absolute numbers.
The full-scale regeneration lives in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    ablations,
    agg,
    appendix_g,
    crud,
    drift,
    fig4,
    fig6,
    fig7,
    fig8,
    headline,
    layout,
    read_path,
    restart,
    table1,
    theory,
    updates,
)


SMALL = 4_000


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig4", "fig6", "fig7", "fig8",
            "theory", "appendix_g", "headline", "ablations", "updates",
            "read_path", "crud", "restart", "scale", "drift", "serve",
            "layout", "agg",
        }


class TestTable1:
    def test_rows_and_ratios(self):
        result = table1.run(n_rows=SMALL)
        assert [row["dataset"] for row in result.rows] == ["Airline", "OSM"]
        airline, osm = result.rows
        assert airline["dimensions"] == 8
        assert osm["dimensions"] == 4
        assert 0.8 <= airline["primary_ratio"] <= 1.0
        assert 0.6 <= osm["primary_ratio"] <= 0.9
        # Airline must reduce to fewer indexed than total dimensions.
        assert airline["indexed_dims"] < airline["dimensions"]


class TestFig4:
    def test_histogram_shape(self):
        result = fig4.run(n_rows=SMALL, cells_per_dim=16, n_bins=6)
        layouts = {row["layout"] for row in result.rows}
        assert layouts == {"uniform 2D grid", "quantile 2D grid"}
        summaries = [row for row in result.rows if row["page_length_low"] == "summary"]
        assert len(summaries) == 2
        uniform = next(r for r in summaries if r["layout"] == "uniform 2D grid")
        quantile = next(r for r in summaries if r["layout"] == "quantile 2D grid")
        # Quantile boundaries reduce the page-size spread (Figure 4b vs 4c).
        assert quantile["std_page"] <= uniform["std_page"]


class TestFig6:
    def test_shape(self):
        result = fig6.run(n_rows=SMALL, n_queries=6)
        indexes = {row["index"] for row in result.rows}
        assert {"COAX", "R-Tree", "Full Grid", "Full Scan", "COAX (components)"} <= indexes
        coax_rows = [r for r in result.rows if r["index"] == "COAX" and r["workload"] == "range"]
        scan_rows = [r for r in result.rows if r["index"] == "Full Scan" and r["workload"] == "range"]
        # COAX must examine far fewer rows than the full scan on every dataset.
        for coax_row, scan_row in zip(coax_rows, scan_rows):
            assert coax_row["rows_examined_per_q"] < 0.7 * scan_row["rows_examined_per_q"]
        # Results counts agree across indexes (verified inside the harness too).
        assert len(coax_rows) == 2


class TestFig7:
    def test_selectivity_sweep(self):
        result = fig7.run(n_rows=SMALL, n_queries=5, selectivity_fractions=(0.01, 0.1))
        targets = sorted({row["target_selectivity"] for row in result.rows})
        assert len(targets) == 2
        coax = [r for r in result.rows if r["index"] == "COAX"]
        rtree = [r for r in result.rows if r["index"] == "R-Tree"]
        assert len(coax) == len(rtree) == 2
        # Work grows with selectivity for every index.
        assert coax[0]["rows_examined_per_q"] < coax[1]["rows_examined_per_q"]


class TestFig8:
    def test_tradeoff_rows(self):
        result = fig8.run(n_rows=SMALL, n_queries=5, cell_sweep=(2, 6), capacity_sweep=(8,))
        coax_rows = [r for r in result.rows if r["index"] == "COAX (total)" and r["dataset"] == "Airline"]
        assert len(coax_rows) == 2
        # Directory grows with the cell count.
        assert coax_rows[0]["dir_bytes"] <= coax_rows[1]["dir_bytes"]
        rtree_rows = [r for r in result.rows if r["index"] == "R-Tree"]
        assert all(r["dir_bytes"] > coax_rows[0]["dir_bytes"] for r in rtree_rows)


class TestTheory:
    def test_predictions_close_to_measurement(self):
        result = theory.run(n_rows=20_000, stream_length=50_000)
        for row in result.rows:
            if row["check"].startswith("effectiveness"):
                assert row["relative_error"] < 0.15
        thm71 = [r for r in result.rows if "7.1" in r["check"]]
        # For the largest margin the MFET estimate is tight.
        assert thm71[-1]["relative_error"] < 0.3


class TestAppendixG:
    def test_analytic_cells_grow_as_margin_shrinks(self):
        result = appendix_g.run(n_rows=SMALL, epsilons=(4.0, 16.0))
        cells = {row["epsilon"]: row["analytic_cells_to_scan"] for row in result.rows}
        assert cells[4.0] > cells[16.0]


class TestHeadline:
    def test_memory_reduction_factors(self):
        result = headline.run(n_rows=SMALL, n_queries=6)
        rtree_rows = [r for r in result.rows if r.get("competitor") == "R-Tree"]
        assert len(rtree_rows) == 2
        for row in rtree_rows:
            assert row["memory_reduction_x"] > 5.0


class TestAblations:
    def test_all_ablation_families_present(self):
        result = ablations.run(n_rows=SMALL, n_queries=5)
        families = {row["ablation"] for row in result.rows}
        assert families == {"margins", "outlier index", "bucketing", "spline model"}

    def test_spline_segments_decrease_with_epsilon(self):
        rows = ablations.spline_ablation(n_rows=SMALL)
        segments = [row["n_segments"] for row in rows]
        assert segments == sorted(segments, reverse=True)


class TestUpdates:
    def test_phases_and_acceptance_checks(self):
        result = updates.run(
            n_rows=SMALL,
            n_queries=5,
            n_inserts=6_000,
            batch_size=2_000,
            n_pending_for_query=2_000,
        )
        phases = {row["phase"] for row in result.rows}
        assert phases == {"insert", "compact", "query", "mixed"}
        batch_row = next(
            row for row in result.rows if row["method"] == "insert_batch()"
        )
        # The acceptance bar (20x at 100k inserts) is checked by the
        # full-scale benchmark run; here the batch path times in single-digit
        # milliseconds, where a scheduler stall on a shared CI runner can
        # eat an order of magnitude, so only a loose sanity bound is safe.
        assert batch_row["speedup_vs_seq"] >= 5.0
        compact_rows = [
            row for row in result.rows if row["method"] == "incremental compact()"
        ]
        assert {row["dataset"] for row in compact_rows} == {"Airline", "OSM"}
        for row in compact_rows:
            assert row["mismatched_queries"] == 0
        mixed_row = next(row for row in result.rows if row["phase"] == "mixed")
        assert mixed_row["rows"] == 6_000


class TestCRUD:
    def test_smoke_mode_structure_and_oracle_identity(self):
        result = crud.run(n_rows=SMALL, n_queries=8, smoke=True)
        phases = {row["phase"] for row in result.rows}
        assert phases == {"delete", "query", "update", "compact"}
        # Every result set was verified against the delete-aware full scan.
        for row in result.rows:
            assert row.get("mismatched_queries", 0) == 0
        delete_row = next(
            row for row in result.rows if row["method"] == "delete_batch()"
        )
        update_row = next(
            row for row in result.rows if row["method"] == "update_batch()"
        )
        # The full-scale acceptance bars (>= 100x deletes) belong to the
        # benchmark run; on CI scale only loose sanity bounds are safe.
        assert delete_row["speedup_vs_seq"] >= 10.0
        assert update_row["speedup_vs_seq"] >= 5.0
        reclaim_row = next(
            row for row in result.rows if row["method"] == "compact() reclaim"
        )
        fresh_row = next(
            row
            for row in result.rows
            if row["method"] == "fresh build over live rows"
        )
        assert reclaim_row["rows"] == fresh_row["rows"]


class TestDrift:
    def test_smoke_mode_structure_and_gates(self):
        """The driver's internal gates (oracle identity, refresh fired,
        primary-fraction and rows-examined wins) all hold at CI scale;
        here the reported rows are spot-checked for shape."""
        result = drift.run(smoke=True)
        engines = {row["engine"] for row in result.rows}
        assert "COAX (frozen)" in engines
        assert "COAX (adaptive)" in engines
        assert any(engine.startswith("ShardedCOAX") for engine in engines)
        stream = [row for row in result.rows if row["phase"] == "stream"]
        query = [row for row in result.rows if row["phase"] == "query"]
        assert len(stream) == 3
        assert {row["workload"] for row in query} == {"range-predicted", "range"}
        frozen = next(r for r in stream if r["engine"] == "COAX (frozen)")
        adaptive = next(r for r in stream if r["engine"] == "COAX (adaptive)")
        assert frozen["model_refreshes"] == 0
        assert adaptive["model_refreshes"] >= 1
        assert adaptive["primary_fraction"] > frozen["primary_fraction"]
        for row in query:
            assert row["mismatched_queries"] == 0


class TestLayout:
    def test_smoke_mode_structure_and_gates(self):
        """The driver's internal gates (oracle identity on every phase,
        >=1 adopted re-layout, the deterministic post-shift rows_examined
        advantage) all hold at CI scale; the reported rows are
        spot-checked for shape and the static/adaptive contrast."""
        result = layout.run(smoke=True)
        assert {row["engine"] for row in result.rows} == {"static", "adaptive"}
        assert {row["phase"] for row in result.rows} == {
            "skew", "shift-before-adapt", "shift-after-adapt",
        }
        for row in result.rows:
            assert row["mismatched_queries"] == 0
        by_phase: dict = {}
        for row in result.rows:
            by_phase.setdefault(row["phase"], {})[row["engine"]] = row
        for phase, engines in by_phase.items():
            # Same queries, same live rows: matched counts must agree.
            assert (
                engines["static"]["rows_matched"]
                == engines["adaptive"]["rows_matched"]
            ), phase
            assert engines["static"]["layout_epoch"] == 0
        # One adoption per workload regime: skew, then the shift.
        assert by_phase["skew"]["adaptive"]["layout_epoch"] == 1
        assert by_phase["shift-after-adapt"]["adaptive"]["layout_epoch"] == 2
        post = by_phase["shift-after-adapt"]
        assert (
            post["adaptive"]["rows_examined"] * 1.5
            <= post["static"]["rows_examined"]
        )


class TestAgg:
    def test_smoke_mode_structure_and_gates(self):
        """The driver's internal gates (per-query pushdown/baseline
        equality, exact kNN vs brute force, the >=5x examined-rows
        advantage for COUNT/SUM/AVG) all hold at CI scale; the reported
        rows are spot-checked for shape and the pushdown contrast."""
        result = agg.run(smoke=True)
        assert result.experiment == "agg"
        assert {row["dataset"] for row in result.rows} == {"Airline", "OSM"}
        workloads = {row["workload"] for row in result.rows}
        assert {f"agg:{op}" for op in agg.AGG_OPS} <= workloads
        assert any(w.startswith("knn:") for w in workloads)
        for row in result.rows:
            if row["workload"].split(":")[1] in agg.FOLD_ONLY_OPS:
                assert (
                    row["pushdown_rows_examined"] * agg.SMOKE_EXAMINED_FACTOR
                    <= row["materialize_rows_examined"]
                )

    def test_smoke_gate_raises_on_regression(self, monkeypatch):
        # Forcing the gate factor sky-high must trip the AssertionError —
        # proving the CI step actually fails on a pushdown regression.
        monkeypatch.setattr(agg, "SMOKE_EXAMINED_FACTOR", float("inf"))
        with pytest.raises(AssertionError, match="examined-rows gate"):
            agg.run(smoke=True)


class TestReadPath:
    def test_smoke_mode_structure_and_identity(self):
        result = read_path.run(n_rows=SMALL, n_queries=48, smoke=True)
        assert {row["dataset"] for row in result.rows} == {"Airline", "OSM"}
        assert {row["workload"] for row in result.rows} == {"range", "point"}
        indexes = {row["index"] for row in result.rows}
        assert "COAX" in indexes and "Column Files" in indexes
        assert any(index.startswith("COAX (+") for index in indexes)
        # Every batch row was verified against the sequential loop.
        for row in result.rows:
            assert row["mismatched_queries"] == 0
        sequential = [row for row in result.rows if row["mode"] == "sequential"]
        batch = [row for row in result.rows if row["mode"] == "batch"]
        assert sequential and batch
        assert all(row["batch_size"] == 1 for row in sequential)
        assert all(row["batch_size"] > 1 for row in batch)
        # Smoke mode asserts batch >= sequential internally (best batch size
        # per dataset/workload); spot-check the reported numbers agree.
        best: dict = {}
        for row in batch:
            if row["index"] == "COAX":
                key = (row["dataset"], row["workload"])
                best[key] = max(best.get(key, 0.0), row["speedup_vs_seq"])
        assert best and all(value >= 1.0 for value in best.values())


class TestRestart:
    def test_smoke_mode_structure_and_gates(self):
        result = restart.run(n_rows=SMALL, smoke=True)
        formats = {row["format"] for row in result.rows}
        assert formats == {"v6-columnar", "v5-npz"}
        for row in result.rows:
            # Every loaded engine answered the probes bit-identically.
            assert row["mismatched_queries"] == 0
            assert row["cold_start_s"] > 0.0
            assert row["executor"] == "thread"
        v6 = next(row for row in result.rows if row["format"] == "v6-columnar")
        # Smoke mode gates on the mmap attach beating the npz copy-load.
        assert v6["speedup_vs_npz"] > 1.0
