"""Per-table / per-figure experiment drivers.

Each module reproduces one artefact of the paper's evaluation and returns an
:class:`~repro.bench.reporting.ExperimentResult` whose rows are the numbers
the corresponding table or figure reports.  The mapping from paper artefact
to driver is documented in DESIGN.md §7.  The ``drift``, ``layout`` and
``agg`` drivers go beyond the paper: each is the only evidence for one
claim of the engine (see DESIGN.md §9, §13 and §14).
"""

from repro.bench.experiments import (
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

#: Registry used by the CLI: experiment id -> (callable, description).
EXPERIMENTS = {
    "table1": (table1.run, "Table 1 — dataset characteristics"),
    "fig4": (fig4.run, "Figure 4a — page-length distribution of a 2D grid"),
    "fig6": (fig6.run, "Figure 6 — query runtime on Airline and OSM"),
    "fig7": (fig7.run, "Figure 7 — range-query runtime vs selectivity"),
    "fig8": (fig8.run, "Figure 8 — runtime vs memory-overhead trade-off"),
    "theory": (theory.run, "Section 7 — effectiveness and Theorems 7.1-7.4"),
    "appendix_g": (appendix_g.run, "Appendix G — grid cells scanned vs soft-FD index"),
    "headline": (headline.run, "Headline claims — memory reduction and speedup"),
    "ablations": (ablations.run, "Ablations — margins, outlier index, bucketing, splines"),
    "drift": (drift.run, "Drift — frozen vs adaptive FD models on a drifting stream"),
    "layout": (layout.run, "Layout — workload-adaptive shard boundaries vs static"),
    "agg": (agg.run, "Aggregates/kNN — executor pushdown vs materialize-then-reduce"),
}

__all__ = [
    "EXPERIMENTS",
    "ablations",
    "agg",
    "appendix_g",
    "drift",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "headline",
    "layout",
    "table1",
    "theory",
]
