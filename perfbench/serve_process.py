"""The server side of ``serve-lookup``, run as its own process.

Usage (started by ``serve_lookup.py``, not by hand)::

    python3 perfbench/serve_process.py <archive> <loads>

Attaches the saved engine ``<loads>`` times with ``load_engine`` (every
attach but the last is shut down again, and garbage is collected before
each), serves the last one with a
``CoalescingQueryServer`` on an ephemeral port and prints one JSON line
``{"port", "loads_s"}``.  It then reads commands from standard input,
one per line: ``snapshot`` prints ``QueryServer.snapshot()`` as a JSON
line, with the process's peak resident set as ``peak_rss_mb``;
``stop`` or end of input stops the server, shuts the engine down
and exits 0.

Running the server apart from the load generator, each pinned to a
core of its own when there are two or more, keeps the benchmark's
clients from competing with the server for one interpreter lock or one
core.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path


def _say(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def _serve(engine, loads_s) -> None:
    from repro.serve import CoalescingQueryServer, ServerConfig

    server = CoalescingQueryServer(engine, config=ServerConfig(port=0))
    await server.start()
    try:
        _say({"port": server.port, "loads_s": loads_s})
        loop = asyncio.get_running_loop()
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command == "snapshot":
                counters = {key: value for key, value in server.snapshot().items()
                            if isinstance(value, (int, float))}
                # Linux reports the peak resident set in KiB.
                counters["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                _say(counters)
            elif command in ("stop", ""):
                break
    finally:
        await server.stop()


def main(argv) -> int:
    archive, loads = argv[0], int(argv[1])
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        # The last core for the server (its threads inherit this); the
        # load generator keeps to the first.
        os.sched_setaffinity(0, {cpus[-1]})
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from repro import load_engine

    engine, loads_s = None, []
    for _ in range(loads):
        if engine is not None:
            engine.shutdown()
            engine = None
        # The previous attach's garbage is an artefact of repeating the
        # load, not part of one: collect it before the clock starts.
        gc.collect()
        start = time.perf_counter()
        engine = load_engine(archive)
        loads_s.append(time.perf_counter() - start)
    try:
        asyncio.run(_serve(engine, loads_s))
    finally:
        engine.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
