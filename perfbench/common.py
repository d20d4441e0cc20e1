"""Shared harness pieces: timing, percentiles, host stamp, canary, result."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

clock = time.perf_counter


class BenchmarkFailure(RuntimeError):
    """A run that cannot produce a trustworthy result (exit non-zero)."""


class OpLog:
    """Per-operation latencies of one timed phase plus its query count.

    ``busy_s`` is the summed duration of the timed calls only; oracle
    checks and input preparation between calls are excluded, so a slower
    check never reads as a slower program.

    ``mark()`` closes a window of like work: one pass over a fixed op
    cycle, or one second of served traffic.  With three or more windows
    every percentile and the throughput are the median over the windows
    of that window's value, so host contention (or an idle neighbour)
    that lasts a few seconds moves them little; with fewer, they are
    taken over the whole phase.  A window's length is its busy time, or
    the wall time given to ``mark()`` when calls overlap (served traffic).
    """

    def __init__(self) -> None:
        self.latencies_s: List[float] = []
        self.queries = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        #: ``(first latency, end latency, queries, seconds)`` per window.
        self.windows: List[tuple] = []
        self._marked = (0, 0, 0.0)

    def add(self, seconds: float, queries: int) -> None:
        self.latencies_s.append(seconds)
        self.busy_s += seconds
        self.queries += queries

    def mark(self, seconds: Optional[float] = None) -> None:
        """Close a window that lasted ``seconds`` (default: its busy time)."""
        first, queries, busy_s = self._marked
        end = len(self.latencies_s)
        if seconds is None:
            seconds = self.busy_s - busy_s
        if end > first and seconds > 0:
            self.windows.append((first, end, self.queries - queries, seconds))
        self._marked = (end, self.queries, self.busy_s)

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            raise BenchmarkFailure("timed phase completed no operation")
        latencies = np.asarray(self.latencies_s)
        if len(self.windows) >= 3:
            return median([np.percentile(latencies[a:b], q) for a, b, _, _ in self.windows]) * 1e3
        return float(np.percentile(latencies, q) * 1e3)

    def throughput(self) -> float:
        if len(self.windows) >= 3:
            return median([queries / seconds for _, _, queries, seconds in self.windows])
        if self.windows:
            return sum(w[2] for w in self.windows) / sum(w[3] for w in self.windows)
        return self.queries / self.busy_s


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Canary:
    """A fixed NumPy kernel timed between measurement windows.

    Its duration depends only on the host, never on the program, so a
    canary that moved together with a metric points at host drift.
    """

    REPEATS = 5

    def __init__(self) -> None:
        self._data = np.random.default_rng(12345).random(1 << 18)
        self.samples_ms: List[float] = []

    def tick(self) -> None:
        """One sample: the median of ``REPEATS`` timed sorts (the first warms)."""
        spent = []
        for _ in range(self.REPEATS):
            start = clock()
            np.sort(self._data)
            spent.append((clock() - start) * 1e3)
        self.samples_ms.append(median(spent))

    @property
    def median_ms(self) -> float:
        return median(self.samples_ms) if self.samples_ms else 0.0


def _git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """SHA-256 over the library sources, stable without a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_stamp(root: Path, canary: Canary) -> Dict[str, object]:
    """Where and on what code a run was measured."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "canary_ms": round(canary.median_ms, 4),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
         units: Dict[str, str]) -> None:
    """Print the result object as the last line of standard output."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
