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
    drift,
    fig4,
    fig6,
    fig7,
    fig8,
    headline,
    layout,
    table1,
    theory,
)


SMALL = 4_000


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig4", "fig6", "fig7", "fig8",
            "theory", "appendix_g", "headline", "ablations",
            "drift", "layout", "agg",
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
        # The paper notes and dimension counts match table1.PAPER_VALUES.
        assert result.notes[:2] == [
            "paper: Airline correlated dims (3, 3), indexed 2-4, primary ratio 92%",
            "paper: OSM correlated dims (2,), indexed 3, primary ratio 73%",
        ]
        assert [row["dimensions"] for row in result.rows] == [
            table1.PAPER_VALUES[row["dataset"]]["dimensions"] for row in result.rows
        ]


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
