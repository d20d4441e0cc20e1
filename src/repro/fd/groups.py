"""Grouping correlated attributes and selecting predictors.

The final step of Section 5: "we merge all groups that have an attribute in
common and pick one attribute in each group to be the predictor responsible
for estimating the remaining attributes in its group."  Pairs are merged
with a union-find structure; inside each connected component the predictor
is the attribute that predicts the other members best, and a model is
(re)fitted from the chosen predictor to every other member so the group is
always a star centred on its predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fd.detection import FDCandidate
from repro.fd.model import FDModel

__all__ = [
    "FDGroup",
    "UnionFind",
    "build_groups",
    "per_model_inlier_masks",
]


class UnionFind:
    """Minimal union-find over hashable items (attribute names)."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, item: str) -> None:
        """Register an item as its own singleton set."""
        if item not in self._parent:
            self._parent[item] = item

    def find(self, item: str) -> str:
        """Representative of the set containing ``item`` (with path compression)."""
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        """Merge the sets containing ``a`` and ``b``."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def components(self) -> List[List[str]]:
        """All disjoint sets as lists of their members."""
        groups: Dict[str, List[str]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return [sorted(members) for members in groups.values()]


@dataclass(frozen=True)
class FDGroup:
    """One group of correlated attributes centred on a predictor.

    ``models`` maps every dependent attribute to the soft-FD model that
    predicts it from the predictor attribute.
    """

    predictor: str
    dependents: Tuple[str, ...]
    models: Dict[str, FDModel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [d for d in self.dependents if d not in self.models]
        if missing:
            raise ValueError(f"missing models for dependents: {missing}")
        if self.predictor in self.dependents:
            raise ValueError("the predictor cannot also be a dependent")

    @property
    def attributes(self) -> Tuple[str, ...]:
        """All attributes of the group, predictor first."""
        return (self.predictor,) + self.dependents

    @property
    def n_attributes(self) -> int:
        """Size of the group."""
        return 1 + len(self.dependents)

    def model_for(self, dependent: str) -> FDModel:
        """Model predicting ``dependent`` from the group's predictor."""
        try:
            return self.models[dependent]
        except KeyError as exc:
            raise KeyError(f"{dependent!r} is not a dependent of this group") from exc

    def memory_bytes(self) -> int:
        """Bytes occupied by the group's models."""
        return sum(model.memory_bytes() for model in self.models.values())


def per_model_inlier_masks(
    groups: Sequence["FDGroup"],
    columns: Mapping[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """Per ``predictor->dependent`` model: mask of rows inside its margins.

    The batch-margin primitive shared by the build-time partitioner and the
    delta store's insert routing: every model is evaluated once over the
    whole batch.
    """
    masks: Dict[str, np.ndarray] = {}
    for group in groups:
        # repro-lint: allow[materialize] zero-copy for float64 ndarray/memmap input; coerces list-valued insert batches on the write path
        predictor_values = np.asarray(columns[group.predictor], dtype=np.float64)
        for dependent in group.dependents:
            model = group.model_for(dependent)
            # repro-lint: allow[materialize] zero-copy for float64 ndarray/memmap input; coerces list-valued insert batches on the write path
            dependent_values = np.asarray(columns[dependent], dtype=np.float64)
            masks[f"{group.predictor}->{dependent}"] = model.within_margin(
                predictor_values, dependent_values
            )
    return masks


#: Callback used by :func:`build_groups` to (re)fit a model for a specific
#: directed pair.  Returns ``None`` when no acceptable model exists.
PairFitter = Callable[[str, str], Optional[FDCandidate]]


def build_groups(
    candidates: Sequence[FDCandidate],
    fit_pair: PairFitter,
) -> List[FDGroup]:
    """Merge accepted candidates into groups and pick one predictor per group.

    ``fit_pair(predictor, dependent)`` is invoked whenever a model is needed
    that is not already present among ``candidates`` (e.g. when the component
    was formed by a chain A -> B -> C and the chosen predictor is A, a model
    A -> C must be fitted).  Attributes that cannot be predicted from the
    chosen predictor with an accepted model are dropped from the group (they
    stay ordinary indexed attributes), so a group never silently degrades
    result correctness.
    """
    accepted = [c for c in candidates if c.accepted]
    if not accepted:
        return []

    union_find = UnionFind()
    by_pair: Dict[Tuple[str, str], FDCandidate] = {}
    for candidate in accepted:
        union_find.union(candidate.predictor, candidate.dependent)
        by_pair[(candidate.predictor, candidate.dependent)] = candidate

    groups: List[FDGroup] = []
    for members in union_find.components():
        if len(members) < 2:
            continue
        group = _build_single_group(members, by_pair, fit_pair)
        if group is not None:
            groups.append(group)
    groups.sort(key=lambda group: (-group.n_attributes, group.predictor))
    return groups


def _build_single_group(
    members: List[str],
    by_pair: Dict[Tuple[str, str], FDCandidate],
    fit_pair: PairFitter,
) -> Optional[FDGroup]:
    """Choose the predictor for one connected component and assemble its models."""
    best_group: Optional[FDGroup] = None
    best_score = -1.0
    for predictor in members:
        models: Dict[str, FDModel] = {}
        total_score = 0.0
        for dependent in members:
            if dependent == predictor:
                continue
            candidate = by_pair.get((predictor, dependent))
            if candidate is None or not candidate.accepted:
                candidate = fit_pair(predictor, dependent)
            if candidate is None or not candidate.accepted:
                continue
            models[dependent] = candidate.model
            total_score += candidate.score
        if not models:
            continue
        # Prefer predictors that cover more dependents; break ties by score.
        score = len(models) * 10.0 + total_score
        if score > best_score:
            best_score = score
            best_group = FDGroup(
                predictor=predictor,
                dependents=tuple(sorted(models)),
                models=models,
            )
    return best_group
