"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan-analytics --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload scan-analytics --repeat 5   # steadiness report

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``serve-lookup``   — point lookups and kNN over the TCP serving stack.
* ``scan-analytics`` — direct batch range and aggregate calls at 1M rows.
* ``ingest-mixed``   — interleaved writes, reads and compactions.

Each workload indexes the same table on every run — the dataset
generator at its default seed — because the soft-FD structure COAX
learns depends on the sample: with a per-run table, runs fell into two
index shapes whose query cost differs by a fifth.  For the same kind
of reason the benchmark runs with ``PYTHONHASHSEED=0`` (it re-executes
itself under it).  ``--seed`` draws everything else: the queries, the
request sequence and the write stream.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (spans taken around calls into each layer, see ``tracer.py``).  Every
result is checked against an exact oracle outside the timed calls; the
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}`` and a line before it stamps the host.  A traced run also
writes its spans, one JSON line each with the id of the span that
caused it, to ``.perfbench_work/spans-<workload>-seed<seed>.jsonl``.  A run whose results
disagree with the oracle prints ``"correct": false`` and exits 1; a
run that cannot start (no library next to it) exits 2 without a result.

``--repeat N`` is the steadiness mode: it runs the workload N times in
fresh processes with seeds ``seed .. seed+N-1`` and prints, per
end-to-end metric, the median, the quartiles and the interquartile
spread relative to the median, flagging any spread above the metric's
bound in ``BENCHMARK.json``.  It then makes two traced runs with the same
seed and asserts that the deterministic counters repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-lookup", "scan-analytics", "ingest-mixed")

#: Per-layer counters that must repeat exactly under one seed.
DETERMINISTIC = (
    "primary.rows_examined_per_query",
    "primary.cells_visited_per_query",
    "primary.agg_rows_examined_per_query",
    "outlier.rows_examined_per_query",
    "engine.shards_pruned_per_query",
    "engine.mapping_bytes",
    "coax.directory_bytes",
    "compact.count",
    "compact.rows_rewritten",
    "layout.adoptions",
    "fd.refreshes",
)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_once(args) -> int:
    # The library is built from this checkout's sources, never from an
    # installed copy: without ``src/repro`` next to the benchmark there is
    # nothing to measure.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import common
    from perfbench.tracer import write_spans

    module = {
        "serve-lookup": "serve_lookup",
        "scan-analytics": "scan_analytics",
        "ingest-mixed": "ingest_mixed",
    }[args.workload]
    workload = __import__(f"perfbench.{module}", fromlist=["run"])
    outcome = workload.run(args.seed, float(args.seconds), bool(args.trace), ROOT)
    spec = _spec()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {entry["name"]: entry["unit"] for entry in spec[section]}
    produced = outcome["metrics"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    if args.trace:
        produced["error_rate"] = failed / max(attempted, 1)
    else:
        missing = [name for name in wanted if name not in produced]
        if missing:
            raise common.BenchmarkFailure(f"workload did not produce {missing}")
    metrics = {name: produced.get(name, 0.0) for name in wanted}
    if outcome["tracer"] is not None:
        spans = ROOT / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        write_spans(outcome["tracer"], spans)
    stamp = common.host_stamp(ROOT, outcome["canary"])
    stamp.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"host": stamp}))
    common.emit(failed == 0, attempted, failed, metrics, wanted)
    return 0 if failed == 0 else 1


def _child(args, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run with seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _repeat(args) -> int:
    spec = _spec()
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    runs = [_child(args, args.seed + i, 0) for i in range(args.repeat)]
    ok = all(run["correct"] for run in runs)
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        flag = "" if spread <= bound or name == "setup_s" else "  <-- spread above bound"
        if flag:
            ok = False
        print(f"  {name:16s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
              f"spread {spread:7.4f}  bound {bound}{flag}")
        print("  " + " " * 16 + " runs   " + " ".join(f"{value:.6g}" for value in values))
    traced = [_child(args, args.seed, 1) for _ in range(2)]
    for name in DETERMINISTIC:
        first, second = (run["metrics"][name]["value"] for run in traced)
        same = first == second
        ok = ok and same
        print(f"  {name:36s} {first!r:>20} {'repeats' if same else f'DIFFERS: {second!r}'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run N times and report spreads")
    args = parser.parse_args(argv)
    if args.repeat:
        return _repeat(args)
    return _run_once(args)


def _fixed_hash_seed() -> None:
    """Re-execute this interpreter with ``PYTHONHASHSEED=0`` if it is not set so.

    String hashes decide dict and set layouts, so with a random hash seed
    the interpreter's speed differs from one process to the next (served
    throughput read in two clusters about a third apart).  A fixed hash
    seed, like the fixed table, is part of the benchmark's input;
    ``--seed`` varies the rest.  ``exec`` replaces the process, so nothing
    is left running.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})


if __name__ == "__main__":
    _fixed_hash_seed()
    sys.exit(main())
