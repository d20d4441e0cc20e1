#!/usr/bin/env python
"""Reproduce every table and figure of the paper in one run.

Thin wrapper over the experiment drivers (the same code the CLI and the
pytest-benchmark suites use).  Prints the paper-style text table for each
artefact; DESIGN.md §7 indexes the drivers and compares Table 1 with
the paper.

Run with::

    python examples/reproduce_paper.py            # default scale (~30k rows)
    python examples/reproduce_paper.py 100000     # bigger datasets
"""

from __future__ import annotations

import sys
import time

from repro.bench.experiments import EXPERIMENTS


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else None
    for name in ("table1", "fig4", "fig6", "fig7", "fig8", "theory", "appendix_g", "headline"):
        runner, description = EXPERIMENTS[name]
        kwargs = {"n_rows": rows} if rows is not None else {}
        start = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - start
        print(result.table())
        print(f"({name} regenerated in {elapsed:.1f}s)\n")


if __name__ == "__main__":
    main()
