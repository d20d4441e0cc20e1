"""Query translation (Section 4).

A query constraint on a dependent attribute ``C_d`` cannot be answered by
the primary index directly (the attribute is not indexed there), but for
records *inside the margins* the constraint implies a constraint on the
predictor attribute ``C_x``: all inliers satisfy
``psi_hat(p_x) - eps_LB <= p_d <= psi_hat(p_x) + eps_UB`` (Equation 1), so a
query range on ``C_d`` maps through the inverse of ``psi_hat`` (widened by
the margins) into a range on ``C_x``.  The final constraint on ``C_x`` is
the intersection of the directly-specified range and every translated range
(Equation 2, Figure 2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.data.predicates import Interval, Rectangle, batch_bounds
from repro.fd.groups import FDGroup

__all__ = [
    "translated_predictor_interval",
    "translate_query",
    "translated_predictor_intervals_batch",
    "translate_bounds_batch",
    "translate_query_batch",
    "rewritten_queries_from_bounds",
]

#: Per-attribute ``(lows, highs)`` bound arrays of a query batch — the
#: columnar query form produced by :func:`repro.data.predicates.batch_bounds`.
BoundsMap = Mapping[str, Tuple[np.ndarray, np.ndarray]]


def translated_predictor_interval(query: Rectangle, group: FDGroup) -> Interval:
    """The effective constraint on the group's predictor implied by ``query``.

    Combines the direct constraint on the predictor (if any) with the
    translation of every constrained dependent attribute of the group,
    exactly the ``max``/``min`` intersection of Equation 2.  The result may
    be empty, which means no *inlier* record can satisfy the query (outliers
    may still match and are handled by the outlier index).
    """
    effective = query.interval(group.predictor)
    for dependent in group.dependents:
        if not query.constrains(dependent):
            continue
        model = group.model_for(dependent)
        translated = model.predictor_interval(query.interval(dependent))
        effective = effective.intersect(translated)
    return effective


def translate_query(query: Rectangle, groups: Sequence[FDGroup]) -> Rectangle:
    """Rewrite ``query`` for the primary index.

    For every FD group, constraints on dependent attributes are translated
    into (tightened) constraints on the group predictor; constraints on
    attributes outside any group are passed through unchanged.  Constraints
    on the dependent attributes themselves are *kept* in the rewritten query:
    the primary index uses them only in its exact post-filtering step, which
    keeps results exact without requiring the dependents to be indexed.
    """
    rewritten = query
    for group in groups:
        effective = translated_predictor_interval(query, group)
        rewritten = rewritten.with_interval(group.predictor, effective)
    return rewritten


def _group_effective_bounds(
    bounds: BoundsMap, n_queries: int, group: FDGroup
) -> Tuple[np.ndarray, np.ndarray]:
    """Effective predictor bound arrays of one group over a query batch.

    The Equation 2 intersection as pure array arithmetic: starting from the
    direct predictor bounds, each dependent's constraint is pushed through
    the (batch-vectorized) inverse model and folded in with one
    ``maximum``/``minimum`` pair.  Unconstrained slots are ``+-inf`` and
    translate to ``+-inf``, so no per-query constrained check is needed.
    """
    if group.predictor in bounds:
        # Shared, not copied: like every other entry of a bounds map, the
        # arrays are never written through.
        lows, highs = bounds[group.predictor]
    else:
        lows = np.full(n_queries, -np.inf)
        highs = np.full(n_queries, np.inf)
    for dependent in group.dependents:
        if dependent not in bounds:
            continue
        dep_lows, dep_highs = bounds[dependent]
        model = group.model_for(dependent)
        if hasattr(model, "predictor_intervals"):
            translated_lows, translated_highs = model.predictor_intervals(dep_lows, dep_highs)
        else:
            # Models without a batch kernel (e.g. splines) fall back to the
            # scalar translation for the queries that constrain the
            # dependent; the rest stay unbounded (a no-op in the fold).
            translated_lows = np.full(n_queries, -np.inf)
            translated_highs = np.full(n_queries, np.inf)
            constrained = np.flatnonzero((dep_lows > -np.inf) | (dep_highs < np.inf))
            for i in constrained:
                interval = model.predictor_interval(Interval(dep_lows[i], dep_highs[i]))
                translated_lows[i] = interval.low
                translated_highs[i] = interval.high
        lows = np.maximum(lows, translated_lows)
        highs = np.minimum(highs, translated_highs)
    return lows, highs


def translated_predictor_intervals_batch(
    queries: Sequence[Rectangle], group: FDGroup
) -> Tuple[np.ndarray, np.ndarray]:
    """Effective predictor bounds of one group for a whole query batch.

    The vectorized counterpart of :func:`translated_predictor_interval`:
    the margin/inverse-model evaluation runs once over bound arrays
    covering every query instead of once per query.  Returns parallel
    ``(lows, highs)`` arrays; ``lows[i] > highs[i]`` means no inlier can
    match query ``i``.
    """
    queries = list(queries)
    return _group_effective_bounds(batch_bounds(queries), len(queries), group)


def translate_bounds_batch(
    bounds: BoundsMap, n_queries: int, groups: Sequence[FDGroup]
) -> Tuple[Dict[str, Tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Rewrite a columnar query batch for the primary index.

    The array-level core of batch translation: returns a new bounds map in
    which every group predictor carries its effective (translated)
    interval, plus a boolean mask of queries for which some group's
    effective constraint is empty — the planner's "no inlier can match"
    condition.  Bound values are identical to running
    :func:`translate_query` per query.
    """
    translated: Dict[str, Tuple[np.ndarray, np.ndarray]] = dict(bounds)
    no_inlier = np.zeros(n_queries, dtype=bool)
    for group in groups:
        lows, highs = _group_effective_bounds(bounds, n_queries, group)
        no_inlier |= lows > highs
        translated[group.predictor] = (lows, highs)
    return translated, no_inlier


def rewritten_queries_from_bounds(
    queries: Sequence[Rectangle],
    translated_bounds: BoundsMap,
    groups: Sequence[FDGroup],
) -> List[Rectangle]:
    """Materialise translated rectangles from already-translated bounds.

    The rectangle-assembly half of batch translation, split out so callers
    that already hold the :func:`translate_bounds_batch` output (the batch
    planner) do not translate a second time.
    """
    rewritten = list(queries)
    for group in groups:
        lows, highs = translated_bounds[group.predictor]
        for i in range(len(rewritten)):
            rewritten[i] = rewritten[i].with_interval(
                group.predictor, Interval(float(lows[i]), float(highs[i]))
            )
    return rewritten


def translate_query_batch(
    queries: Sequence[Rectangle], groups: Sequence[FDGroup]
) -> Tuple[List[Rectangle], np.ndarray]:
    """Rewrite a whole batch of queries for the primary index at once.

    Returns the rewritten rectangles (positionally aligned with
    ``queries``) plus the "no inlier can match" mask of
    :func:`translate_bounds_batch`.  Results are identical to calling
    :func:`translate_query` / :func:`translated_predictor_interval` per
    query; the batch form exists so margin evaluation is vectorized across
    the batch instead of re-dispatched per query.
    """
    queries = list(queries)
    translated_bounds, no_inlier = translate_bounds_batch(
        batch_bounds(queries), len(queries), groups
    )
    return rewritten_queries_from_bounds(queries, translated_bounds, groups), no_inlier


def dependent_attributes(groups: Iterable[FDGroup]) -> set:
    """Set of all attributes predicted (rather than indexed) by the groups."""
    dependents: set = set()
    for group in groups:
        dependents.update(group.dependents)
    return dependents
