"""Tests for the tuning grid search and result export."""

from __future__ import annotations

import json
import os
import platform

import numpy as np
import pytest

from repro.bench.export import export_json
from repro.bench.reporting import ExperimentResult
from repro.bench.tuning import grid_search, tune_coax
from repro.core.coax import COAXIndex
from repro.data.queries import WorkloadConfig, generate_knn_queries
from repro.data.table import Table
from repro.indexes.base import IndexBuildError
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.uniform_grid import UniformGridIndex


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(77)
    n = 3_000
    x = rng.uniform(0.0, 100.0, size=n)
    y = 2.0 * x + rng.normal(0.0, 1.0, size=n)
    z = rng.uniform(0.0, 50.0, size=n)
    return Table({"x": x, "y": y, "z": z})


@pytest.fixture(scope="module")
def workload(table):
    return generate_knn_queries(table, WorkloadConfig(n_queries=6, k_neighbours=60, seed=1))


class TestGridSearch:
    def test_finds_some_best_configuration(self, table, workload):
        result = grid_search(
            table,
            workload,
            lambda t, params: UniformGridIndex(t, cells_per_dim=int(params["cells"])),
            {"cells": [2, 4, 8]},
        )
        assert len(result.trials) == 3
        assert result.best_params["cells"] in (2, 4, 8)
        assert all(not trial.failed for trial in result.trials)

    def test_failed_builds_are_recorded_not_raised(self, table, workload):
        def factory(t, params):
            if params["cells"] == 0:
                raise IndexBuildError("impossible")
            return UniformGridIndex(t, cells_per_dim=int(params["cells"]))

        result = grid_search(table, workload, factory, {"cells": [0, 4]})
        assert len(result.trials) == 2
        assert result.trials[0].failed
        assert result.best_params["cells"] == 4

    def test_wrong_results_disqualify_a_configuration(self, table, workload):
        class BrokenIndex(FullScanIndex):
            def _range_query_positions(self, query):
                return np.empty(0, dtype=np.int64)

        def factory(t, params):
            return BrokenIndex(t) if params["broken"] else FullScanIndex(t)

        result = grid_search(table, workload, factory, {"broken": [True, False]})
        assert result.best_params["broken"] is False
        assert any(trial.failed for trial in result.trials)

    def test_all_failed_raises_on_best(self, table, workload):
        def factory(t, params):
            raise IndexBuildError("nope")

        result = grid_search(table, workload, factory, {"cells": [1]})
        with pytest.raises(ValueError):
            _ = result.best

    def test_empty_grid_rejected(self, table, workload):
        with pytest.raises(ValueError):
            grid_search(table, workload, lambda t, p: FullScanIndex(t), {})


class TestTuners:
    def test_tune_coax_returns_usable_config(self, table, workload, fast_detection_config):
        from repro.core.config import COAXConfig

        base = COAXConfig(detection=fast_detection_config)
        best_config, result = tune_coax(
            table, workload, cells_candidates=(2, 8), base_config=base
        )
        assert best_config.primary_cells_per_dim in (2, 8)
        index = COAXIndex(table, config=best_config)
        query = workload[0]
        assert np.array_equal(np.sort(index.range_query(query)), table.select(query))


class TestExport:
    @pytest.fixture()
    def result(self):
        return ExperimentResult(
            experiment="demo",
            description="demo experiment",
            rows=[{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}],
            notes=["a note"],
        )

    def test_export_rows_carry_standard_fields(self, result, tmp_path):
        payload = json.loads(
            export_json(result, tmp_path / "demo.json").read_text()
        )
        for row in payload["rows"]:
            assert row["shards_pruned"] is None
            assert row["rows_examined"] is None

    def test_export_json(self, result, tmp_path):
        path = export_json(result, tmp_path / "demo.json")
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "demo"
        assert payload["rows"][0]["a"] == 1
        assert payload["notes"] == ["a note"]

    def test_export_json_records_host(self, result, tmp_path):
        host = json.loads(export_json(result, tmp_path / "demo.json").read_text())["host"]
        assert host["cores"] == os.cpu_count()
        assert host["python"] == platform.python_version()
        assert host["numpy"] == np.__version__
        # A 40-hex-digit commit inside a git checkout, None outside one.
        sha = host["git_sha"]
        assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)
