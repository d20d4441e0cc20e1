"""Command-line entry point for the benchmark experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli table1
    python -m repro.cli fig6 --rows 50000 --queries 40
    python -m repro.cli drift-bench --export BENCH_drift.json
    python -m repro.cli drift-bench --smoke
    python -m repro.cli layout-bench --rows 1000000 --export BENCH_layout.json
    python -m repro.cli layout-bench --smoke
    python -m repro.cli agg-bench --rows 1000000 --export BENCH_agg.json
    python -m repro.cli agg-bench --smoke
    python -m repro.cli all --rows 20000
    python -m repro.cli lint --export repro_lint_findings.json

Every experiment prints the paper-style text table produced by its driver
in :mod:`repro.bench.experiments` (DESIGN.md §7).  Beyond the paper's
tables and figures, ``drift-bench`` runs the drifting insert stream
comparing frozen vs adaptive FD models (``drift``), ``layout-bench`` the
skewed-then-shifting stream comparing the workload-adaptive shard layout
against the static build-time partition (``layout``), and ``agg-bench``
the aggregate/kNN executor benchmark (``agg``), comparing aggregate
pushdown and ring-search kNN against the materialize-then-reduce and
brute-force baselines; each verifies every result against an oracle.
``--smoke`` is the quick CI variant of each (asserting its gates), and
``--export`` writes the JSON artifact, host stamp included.

``lint`` is not an experiment: it runs the repro-lint static-analysis
suite (:mod:`repro.analysis`) over ``src/repro`` and exits non-zero on
any unwaived finding; ``--export`` writes the structured JSON report.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS
from repro.bench.export import export_json

__all__ = ["main", "build_parser", "run_experiment", "run_lint_command"]

#: Command spellings accepted in addition to the experiment registry ids.
COMMAND_ALIASES = {
    "drift-bench": "drift",
    "layout-bench": "layout",
    "agg-bench": "agg",
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the CLI."""
    parser = argparse.ArgumentParser(
        prog="coax-bench",
        description="Reproduce the COAX paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (see 'list') or alias, 'all' to run everything, "
            "'list', or 'lint' (static-analysis gate)"
        ),
    )
    parser.add_argument("--rows", type=int, default=None, help="dataset size (records)")
    parser.add_argument("--queries", type=int, default=None, help="queries per workload")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument(
        "--batch-size", type=int, default=None, help="query batch size (drift-bench)"
    )
    parser.add_argument(
        "--n-shards",
        type=int,
        default=None,
        help="shard count of the engine (drift-bench, layout-bench)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI variant: small data, asserts the driver's gates",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="also write the experiment result as JSON to PATH",
    )
    return parser


def _run_experiment(
    name: str,
    *,
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    seed: Optional[int] = None,
    batch_size: Optional[int] = None,
    n_shards: Optional[int] = None,
    smoke: bool = False,
):
    """Run one experiment by id (or alias), returning its result object."""
    name = COMMAND_ALIASES.get(name, name)
    try:
        runner, _ = EXPERIMENTS[name]
    except KeyError as exc:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}") from exc
    kwargs = {}
    signature = inspect.signature(runner)
    forwarded = {
        "n_rows": rows,
        "n_queries": queries,
        "seed": seed,
        "batch_size": batch_size,
        "n_shards": n_shards,
        "smoke": smoke or None,
    }
    for parameter, value in forwarded.items():
        if value is not None and parameter in signature.parameters:
            kwargs[parameter] = value
    return runner(**kwargs)


def run_experiment(
    name: str,
    *,
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    seed: Optional[int] = None,
    batch_size: Optional[int] = None,
    n_shards: Optional[int] = None,
    smoke: bool = False,
) -> str:
    """Run one experiment by id (or alias) and return its formatted table."""
    return _run_experiment(
        name,
        rows=rows,
        queries=queries,
        seed=seed,
        batch_size=batch_size,
        n_shards=n_shards,
        smoke=smoke,
    ).table()


def run_lint_command(export: Optional[str] = None) -> int:
    """Run the repro-lint static-analysis suite over ``src/repro``.

    Prints every finding (waived ones annotated), writes the structured
    JSON report when ``--export`` is given, and exits 1 on any unwaived
    finding — this is the CI gate.
    """
    from repro.analysis import run_lint

    findings, report = run_lint(export=Path(export) if export else None)
    for finding in findings:
        print(finding.render())
    counts = report["counts"]
    print(
        f"repro-lint: {counts['findings']} finding(s), "
        f"{counts['unwaived']} unwaived, {counts['waived']} waived"
    )
    if export:
        print(f"wrote {export}")
    return 1 if counts["unwaived"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (_, description) in sorted(EXPERIMENTS.items()):
            print(f"{name:12s} {description}")
        return 0

    if args.experiment == "lint":
        return run_lint_command(export=args.export)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        try:
            result = _run_experiment(
                name,
                rows=args.rows,
                queries=args.queries,
                seed=args.seed,
                batch_size=args.batch_size,
                n_shards=args.n_shards,
                smoke=args.smoke,
            )
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(result.table())
        if args.export:
            target = Path(args.export)
            if len(names) > 1:
                # One file per experiment, or `all` would silently overwrite
                # the same path and keep only the last result.
                target = target.with_name(
                    f"{target.stem}_{result.experiment}{target.suffix or '.json'}"
                )
            path = export_json(result, target)
            print(f"wrote {path}")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
