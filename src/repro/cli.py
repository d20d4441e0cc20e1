"""Command-line entry point for the benchmark experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli table1
    python -m repro.cli fig6 --rows 50000 --queries 40
    python -m repro.cli update-bench --inserts 100000 --batch-size 10000
    python -m repro.cli query-bench --rows 30000 --queries 1024 --export BENCH_read.json
    python -m repro.cli query-bench --smoke --export BENCH_read.json
    python -m repro.cli crud --deletes 10000 --export BENCH_crud.json
    python -m repro.cli crud --smoke
    python -m repro.cli scale-bench --shards 1 2 4 8 --workers 1 4 --export BENCH_scale.json
    python -m repro.cli scale-bench --smoke
    python -m repro.cli restart-bench --rows 1000000 --export BENCH_restart.json
    python -m repro.cli restart-bench --smoke
    python -m repro.cli drift-bench --export BENCH_drift.json
    python -m repro.cli drift-bench --smoke
    python -m repro.cli serve-bench --clients 1 64 256 --export BENCH_serve.json
    python -m repro.cli serve-bench --smoke
    python -m repro.cli layout-bench --rows 1000000 --export BENCH_layout.json
    python -m repro.cli layout-bench --smoke
    python -m repro.cli agg-bench --rows 1000000 --export BENCH_agg.json
    python -m repro.cli agg-bench --smoke
    python -m repro.cli all --rows 20000
    python -m repro.cli lint --export repro_lint_findings.json

Every experiment prints the paper-style text table produced by its driver
in :mod:`repro.bench.experiments`.  ``update-bench`` is the command for the
delta-store update benchmark (an alias of the ``updates`` experiment id);
``query-bench`` runs the read-path benchmark (``read_path``); ``crud`` runs
the delete/update benchmark against a delete-aware full-scan oracle;
``scale-bench`` runs the sharded-engine scaling benchmark (``scale``) over
a ``--shards`` x ``--workers`` grid; ``restart-bench`` times the v6 mmap
cold start against the legacy npz copy-load (``restart``);
``drift-bench`` runs the drifting insert stream comparing frozen vs
adaptive FD models (``drift``), every result verified against a
full-scan oracle; ``serve-bench`` drives TCP
load through the asyncio serving front end, comparing the adaptive
query-coalescing server against a naive one-query-at-a-time baseline
(``serve``), every served result verified against direct engine queries;
``layout-bench`` runs the skewed-then-shifting stream comparing the
workload-adaptive shard layout against the static build-time partition
(``layout``), every eval result verified against a full-scan oracle;
``agg-bench`` runs the aggregate/kNN executor benchmark (``agg``),
comparing aggregate pushdown and ring-search kNN against the
materialize-then-reduce and brute-force baselines with per-query result
verification.
``--smoke`` is the quick CI
variant of each (asserting the batch/sharded/adaptive paths hold their
guarantees), and ``--export`` writes the JSON artifact.

``lint`` is not an experiment: it runs the repro-lint static-analysis
suite (:mod:`repro.analysis`) over ``src/repro`` and exits non-zero on
any unwaived finding; ``--export`` writes the structured JSON report.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bench.experiments import EXPERIMENTS
from repro.bench.export import export_json

__all__ = ["main", "build_parser", "run_experiment", "run_lint_command"]

#: Command spellings accepted in addition to the experiment registry ids.
COMMAND_ALIASES = {
    "update-bench": "updates",
    "query-bench": "read_path",
    "scale-bench": "scale",
    "restart-bench": "restart",
    "drift-bench": "drift",
    "serve-bench": "serve",
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
            "experiment id (see 'list'), 'update-bench', 'all' to run "
            "everything, 'list', or 'lint' (static-analysis gate)"
        ),
    )
    parser.add_argument("--rows", type=int, default=None, help="dataset size (records)")
    parser.add_argument("--queries", type=int, default=None, help="queries per workload")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument(
        "--inserts", type=int, default=None, help="insert-stream size (update-bench)"
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, help="insert batch size (update-bench)"
    )
    parser.add_argument(
        "--batch-sizes",
        type=int,
        nargs="+",
        default=None,
        help="query batch sizes to sweep (query-bench)",
    )
    parser.add_argument(
        "--deletes", type=int, default=None, help="delete-stream size (crud)"
    )
    parser.add_argument(
        "--updates", type=int, default=None, help="update-stream size (crud)"
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        help="shard counts to sweep (scale-bench)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        help="worker-pool sizes to sweep (scale-bench)",
    )
    parser.add_argument(
        "--n-shards",
        type=int,
        default=None,
        help="shard count of the saved engine (restart-bench, serve-bench)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=None,
        help="closed-loop client counts to sweep (serve-bench)",
    )
    parser.add_argument(
        "--offered-qps",
        type=int,
        nargs="+",
        default=None,
        help="open-loop offered query rates to sweep (serve-bench)",
    )
    parser.add_argument(
        "--swarm-clients",
        type=int,
        default=None,
        help="concurrent connections of the swarm phase (serve-bench)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI variant: small data, asserts batch >= sequential (query-bench)",
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
    inserts: Optional[int] = None,
    deletes: Optional[int] = None,
    updates: Optional[int] = None,
    batch_size: Optional[int] = None,
    batch_sizes: Optional[Sequence[int]] = None,
    shards: Optional[Sequence[int]] = None,
    workers: Optional[Sequence[int]] = None,
    n_shards: Optional[int] = None,
    clients: Optional[Sequence[int]] = None,
    offered_qps: Optional[Sequence[int]] = None,
    swarm_clients: Optional[int] = None,
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
        "n_inserts": inserts,
        "n_deletes": deletes,
        "n_updates": updates,
        "batch_size": batch_size,
        "batch_sizes": batch_sizes,
        "shard_counts": shards,
        "worker_counts": workers,
        "n_shards": n_shards,
        "client_counts": clients,
        "offered_qps": offered_qps,
        "swarm_clients": swarm_clients,
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
    inserts: Optional[int] = None,
    deletes: Optional[int] = None,
    updates: Optional[int] = None,
    batch_size: Optional[int] = None,
    batch_sizes: Optional[Sequence[int]] = None,
    shards: Optional[Sequence[int]] = None,
    workers: Optional[Sequence[int]] = None,
    n_shards: Optional[int] = None,
    clients: Optional[Sequence[int]] = None,
    offered_qps: Optional[Sequence[int]] = None,
    swarm_clients: Optional[int] = None,
    smoke: bool = False,
) -> str:
    """Run one experiment by id (or alias) and return its formatted table."""
    return _run_experiment(
        name,
        rows=rows,
        queries=queries,
        seed=seed,
        inserts=inserts,
        deletes=deletes,
        updates=updates,
        batch_size=batch_size,
        batch_sizes=batch_sizes,
        shards=shards,
        workers=workers,
        n_shards=n_shards,
        clients=clients,
        offered_qps=offered_qps,
        swarm_clients=swarm_clients,
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
                inserts=args.inserts,
                deletes=args.deletes,
                updates=args.updates,
                batch_size=args.batch_size,
                batch_sizes=args.batch_sizes,
                shards=args.shards,
                workers=args.workers,
                n_shards=args.n_shards,
                clients=args.clients,
                offered_qps=args.offered_qps,
                swarm_clients=args.swarm_clients,
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
