"""Query predicates: intervals and hyper-rectangles.

The paper defines a query as a hyper-rectangle characterised by a lower-left
and an upper-right corner (Section 4).  Unconstrained dimensions are
expressed with infinite bounds and point queries by setting the lower and
upper bounds equal.  The classes in this module encode exactly that model
and provide the vectorised containment and intersection operations the
indexes and the query translator need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

__all__ = ["Interval", "Rectangle", "batch_bounds", "batch_live"]


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[low, high]`` on a single attribute.

    Both bounds are inclusive, matching the scan semantics of the paper's
    primary index (records exactly on the margin boundary belong to the
    primary index).  Unbounded sides use ``-inf`` / ``+inf``.
    """

    low: float = -math.inf
    high: float = math.inf

    def __post_init__(self) -> None:
        if math.isnan(self.low) or math.isnan(self.high):
            raise ValueError("interval bounds must not be NaN")

    # ------------------------------------------------------------------
    # Basic predicates
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when no value can satisfy the interval."""
        return self.low > self.high

    @property
    def is_unbounded(self) -> bool:
        """True when the interval places no constraint at all."""
        return math.isinf(self.low) and self.low < 0 and math.isinf(self.high) and self.high > 0

    @property
    def is_point(self) -> bool:
        """True when the interval admits exactly one value."""
        return self.low == self.high and not self.is_empty

    @property
    def width(self) -> float:
        """Length of the interval (0 for points, inf for unbounded sides)."""
        if self.is_empty:
            return 0.0
        return self.high - self.low

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def contains_value(self, value: float) -> bool:
        """Scalar containment check."""
        return self.low <= value <= self.high

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Vectorised containment check returning a boolean mask."""
        values = np.asarray(values)
        return (values >= self.low) & (values <= self.high)

    def intersect(self, other: "Interval") -> "Interval":
        """Intersection of two intervals (may be empty)."""
        return Interval(max(self.low, other.low), min(self.high, other.high))

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.low, other.low), max(self.high, other.high))

    def expand(self, below: float, above: float) -> "Interval":
        """Widen the interval by ``below`` on the left and ``above`` on the right."""
        if below < 0 or above < 0:
            raise ValueError("expansion amounts must be non-negative")
        return Interval(self.low - below, self.high + above)

    def clamp(self, low: float, high: float) -> "Interval":
        """Restrict the interval to ``[low, high]``."""
        return self.intersect(Interval(low, high))

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share at least one value."""
        return not self.intersect(other).is_empty

    @classmethod
    def point(cls, value: float) -> "Interval":
        """Interval containing exactly one value."""
        return cls(value, value)

    @classmethod
    def unbounded(cls) -> "Interval":
        """Interval placing no constraint."""
        return cls(-math.inf, math.inf)

    @classmethod
    def empty(cls) -> "Interval":
        """Canonical empty interval."""
        return cls(math.inf, -math.inf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval({self.low!r}, {self.high!r})"


class Rectangle:
    """A hyper-rectangle predicate over named attributes.

    A rectangle maps attribute names to :class:`Interval` constraints.
    Attributes not present are unconstrained.  This is the query object
    consumed by every index in the library and produced by the workload
    generators.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Optional[Mapping[str, Interval]] = None) -> None:
        self._intervals: Dict[str, Interval] = {}
        if intervals:
            for name, interval in intervals.items():
                if not isinstance(interval, Interval):
                    raise TypeError(f"constraint for {name!r} must be an Interval")
                if not interval.is_unbounded:
                    self._intervals[name] = interval

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_bounds(
        cls,
        lows: Mapping[str, float],
        highs: Mapping[str, float],
    ) -> "Rectangle":
        """Build a rectangle from parallel lower/upper bound mappings."""
        if set(lows) != set(highs):
            raise ValueError("lows and highs must cover the same attributes")
        return cls({name: Interval(lows[name], highs[name]) for name in lows})

    @classmethod
    def from_point(cls, point: Mapping[str, float]) -> "Rectangle":
        """Point query: every dimension constrained to a single value."""
        return cls({name: Interval.point(value) for name, value in point.items()})

    @classmethod
    def unconstrained(cls) -> "Rectangle":
        """Rectangle matching every record."""
        return cls({})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def constrained_dims(self) -> Tuple[str, ...]:
        """Names of the attributes that carry a real constraint."""
        return tuple(self._intervals)

    @property
    def is_empty(self) -> bool:
        """True when any constraint is unsatisfiable."""
        return any(interval.is_empty for interval in self._intervals.values())

    @property
    def is_point(self) -> bool:
        """True when every constrained dimension is a point constraint."""
        return bool(self._intervals) and all(
            interval.is_point for interval in self._intervals.values()
        )

    def interval(self, dim: str) -> Interval:
        """Constraint for ``dim`` (unbounded if the dimension is free)."""
        return self._intervals.get(dim, Interval.unbounded())

    def constrains(self, dim: str) -> bool:
        """True when ``dim`` carries a non-trivial constraint."""
        return dim in self._intervals

    def items(self) -> Iterator[Tuple[str, Interval]]:
        """Iterate over ``(dimension, interval)`` pairs with real constraints."""
        return iter(self._intervals.items())

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rectangle):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._intervals.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}=[{iv.low:g}, {iv.high:g}]" for name, iv in sorted(self._intervals.items())
        )
        return f"Rectangle({parts})"

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def matches(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Boolean mask of rows satisfying every constraint.

        ``columns`` maps attribute names to equal-length arrays; attributes
        missing from ``columns`` but constrained by the rectangle raise a
        ``KeyError`` so schema mismatches never pass silently.
        """
        n_rows = 0
        for array in columns.values():
            n_rows = len(array)
            break
        mask = np.ones(n_rows, dtype=bool)
        for name, interval in self._intervals.items():
            # repro-lint: allow[materialize] zero-copy view for ndarray/memmap input; the coercion exists for list-valued oracle columns
            mask &= interval.contains(np.asarray(columns[name]))
        return mask

    def matches_row(self, row: Mapping[str, float]) -> bool:
        """Scalar version of :meth:`matches` for a single record."""
        return all(
            interval.contains_value(float(row[name]))
            for name, interval in self._intervals.items()
        )

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Rectangle") -> "Rectangle":
        """Conjunction of two rectangles."""
        merged: Dict[str, Interval] = dict(self._intervals)
        for name, interval in other._intervals.items():
            if name in merged:
                merged[name] = merged[name].intersect(interval)
            else:
                merged[name] = interval
        return Rectangle(merged)

    def with_interval(self, dim: str, interval: Interval) -> "Rectangle":
        """Copy of the rectangle with the constraint on ``dim`` replaced."""
        merged = dict(self._intervals)
        if interval.is_unbounded:
            merged.pop(dim, None)
        else:
            merged[dim] = interval
        return Rectangle(merged)

    def without_dims(self, dims: Iterable[str]) -> "Rectangle":
        """Copy of the rectangle with constraints on ``dims`` dropped."""
        drop = set(dims)
        return Rectangle({n: iv for n, iv in self._intervals.items() if n not in drop})

    def project(self, dims: Iterable[str]) -> "Rectangle":
        """Copy keeping only constraints on ``dims``."""
        keep = set(dims)
        return Rectangle({n: iv for n, iv in self._intervals.items() if n in keep})

    def overlaps_box(self, lows: Mapping[str, float], highs: Mapping[str, float]) -> bool:
        """True when the rectangle intersects the axis-aligned box given by bounds."""
        for name, interval in self._intervals.items():
            if name not in lows:
                continue
            if interval.high < lows[name] or interval.low > highs[name]:
                return False
        return True


def batch_bounds(
    queries: "Iterable[Rectangle]",
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Per-attribute ``(lows, highs)`` bound matrices of a query batch.

    The columnar form of a list of rectangles: for every attribute
    constrained by at least one query, parallel arrays hold each query's
    bounds (unconstrained slots stay at ``-inf``/``+inf``, so vectorised
    containment checks treat them as always-true).  This is the
    representation the batch execution paths (grid kernels, batch query
    translation, batch planning) operate on — built with a single pass over
    the rectangles instead of one ``interval()`` dispatch per (query,
    attribute) pair.
    """
    queries = list(queries)
    n_queries = len(queries)
    columns: Dict[str, Tuple[list, list]] = {}
    for i, query in enumerate(queries):
        for name, interval in query.items():
            if name not in columns:
                columns[name] = ([-math.inf] * n_queries, [math.inf] * n_queries)
            columns[name][0][i] = interval.low
            columns[name][1][i] = interval.high
    return {
        name: (np.array(lows, dtype=np.float64), np.array(highs, dtype=np.float64))
        for name, (lows, highs) in columns.items()
    }


def batch_live(
    bounds: Dict[str, Tuple[np.ndarray, np.ndarray]], n_queries: int
) -> np.ndarray:
    """Mask of the queries of a columnar batch that are not empty.

    A query is empty when any of its intervals is (``low > high``); the
    batch paths run only the live ones while the empty ones still count
    as answered.
    """
    live = np.ones(n_queries, dtype=bool)
    for lows, highs in bounds.values():
        live &= lows <= highs
    return live


@dataclass
class PredicateStats:
    """Bookkeeping for predicate evaluation, used by benchmark reporting."""

    rows_examined: int = 0
    rows_matched: int = 0
    cells_visited: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "PredicateStats") -> "PredicateStats":
        """Accumulate another stats object into this one and return self."""
        self.rows_examined += other.rows_examined
        self.rows_matched += other.rows_matched
        self.cells_visited += other.cells_visited
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value
        return self
