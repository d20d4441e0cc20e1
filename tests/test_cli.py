"""Tests for the benchmark CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main, run_experiment


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.rows is None

    def test_options(self):
        args = build_parser().parse_args(["fig6", "--rows", "1000", "--queries", "5", "--seed", "2"])
        assert args.rows == 1000
        assert args.queries == 5
        assert args.seed == 2


class TestRunExperiment:
    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_table1_text(self):
        text = run_experiment("table1", rows=3_000)
        assert "Airline" in text and "OSM" in text
        assert "primary_ratio" in text

    def test_queries_parameter_forwarded(self):
        text = run_experiment("fig4", rows=3_000)
        assert "page_length_low" in text


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "fig8" in output
        assert len(output.splitlines()) == 12

    def test_single_experiment(self, capsys):
        assert main(["table1", "--rows", "3000"]) == 0
        assert "Airline" in capsys.readouterr().out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["bogus"]) == 2
        # The retired benchmark commands are unknown experiments now.
        for retired in ("query-bench", "update-bench", "crud", "scale-bench",
                        "restart-bench", "serve-bench"):
            assert main([retired]) == 2
            assert f"unknown experiment {retired!r}" in capsys.readouterr().err


class TestAggBench:
    def test_alias_registered(self):
        from repro.cli import COMMAND_ALIASES

        assert COMMAND_ALIASES["agg-bench"] == "agg"

    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["agg-bench", "--smoke", "--rows", "8000", "--export", "agg.json"]
        )
        assert args.smoke is True
        assert args.rows == 8_000
        assert args.export == "agg.json"


class TestLayoutBench:
    def test_alias_registered(self):
        from repro.cli import COMMAND_ALIASES

        assert COMMAND_ALIASES["layout-bench"] == "layout"

    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["layout-bench", "--smoke", "--rows", "200000",
             "--n-shards", "8", "--export", "layout.json"]
        )
        assert args.smoke is True
        assert args.rows == 200_000
        assert args.n_shards == 8
        assert args.export == "layout.json"
