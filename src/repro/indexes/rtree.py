"""R-Tree baseline.

"We compare our suggested method with the R-Tree, arguably the most broadly
used index for multidimensional data" (Section 8.1.3).  The paper tunes the
node capacity between 2 and 32 and reports that the best capacity lies
between 8 and 12; the capacity is a constructor parameter here so the
Figure 8 sweep can reproduce that tuning.

The tree is bulk-loaded with the Sort-Tile-Recursive (STR) algorithm, which
gives well-packed nodes for static data.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.predicates import Rectangle
from repro.data.table import Table
from repro.indexes.base import IndexBuildError, MultidimensionalIndex

__all__ = ["RTreeIndex", "RTreeNode"]


class RTreeNode:
    """One node of the R-Tree.

    Leaf nodes hold row positions; internal nodes hold child nodes.  Every
    node keeps the minimum bounding rectangle (MBR) of its subtree as two
    arrays (lows, highs) over the indexed dimensions.
    """

    __slots__ = ("is_leaf", "children", "positions", "lows", "highs")

    def __init__(self, is_leaf: bool, n_dims: int) -> None:
        self.is_leaf = is_leaf
        self.children: List["RTreeNode"] = []
        self.positions: List[int] = []
        self.lows = np.full(n_dims, np.inf)
        self.highs = np.full(n_dims, -np.inf)

    @property
    def n_entries(self) -> int:
        """Number of entries stored in the node."""
        return len(self.positions) if self.is_leaf else len(self.children)

    def recompute_mbr(self, points: np.ndarray) -> None:
        """Recompute the node MBR from its entries."""
        if self.is_leaf:
            if self.positions:
                block = points[np.asarray(self.positions, dtype=np.int64)]
                self.lows = block.min(axis=0)
                self.highs = block.max(axis=0)
            else:
                self.lows = np.full(points.shape[1], np.inf)
                self.highs = np.full(points.shape[1], -np.inf)
        else:
            if self.children:
                self.lows = np.min([child.lows for child in self.children], axis=0)
                self.highs = np.max([child.highs for child in self.children], axis=0)
            else:
                n_dims = len(self.lows)
                self.lows = np.full(n_dims, np.inf)
                self.highs = np.full(n_dims, -np.inf)

    def intersects(self, lows: np.ndarray, highs: np.ndarray) -> bool:
        """True when the node MBR overlaps the query box."""
        return bool(np.all(self.lows <= highs) and np.all(self.highs >= lows))


class RTreeIndex(MultidimensionalIndex):
    """STR-bulk-loaded R-Tree with tunable node capacity."""

    def __init__(
        self,
        table: Table,
        *,
        node_capacity: int = 10,
        row_ids: Optional[np.ndarray] = None,
        dimensions: Optional[Sequence[str]] = None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(table, row_ids=row_ids, dimensions=dimensions, ids=ids)
        if node_capacity < 2:
            raise IndexBuildError("node_capacity must be at least 2")
        self._capacity = int(node_capacity)
        self._points = np.column_stack(
            [self._columns[dim] for dim in self._dimensions]
        ) if self.n_rows else np.empty((0, len(self._dimensions)))
        self._root = self._bulk_load()

    # ------------------------------------------------------------------
    # STR bulk load
    # ------------------------------------------------------------------
    def _bulk_load(self) -> RTreeNode:
        n_dims = len(self._dimensions)
        if self.n_rows == 0:
            return RTreeNode(is_leaf=True, n_dims=n_dims)
        positions = np.arange(self.n_rows, dtype=np.int64)
        leaf_position_groups = self._str_partition(positions, axis=0)
        leaves: List[RTreeNode] = []
        for group in leaf_position_groups:
            leaf = RTreeNode(is_leaf=True, n_dims=n_dims)
            leaf.positions = [int(p) for p in group]
            leaf.recompute_mbr(self._points)
            leaves.append(leaf)
        return self._pack_upwards(leaves)

    def _str_partition(self, positions: np.ndarray, axis: int) -> List[np.ndarray]:
        """Recursive Sort-Tile-Recursive partition of positions into leaf groups."""
        n_dims = len(self._dimensions)
        n = len(positions)
        if n <= self._capacity:
            return [positions]
        n_leaves = int(np.ceil(n / self._capacity))
        remaining_dims = n_dims - axis
        if remaining_dims <= 1:
            ordered = positions[np.argsort(self._points[positions, axis], kind="stable")]
            return [ordered[i : i + self._capacity] for i in range(0, n, self._capacity)]
        # Number of slabs along this axis: ceil(n_leaves ** (1 / remaining_dims)).
        n_slabs = int(np.ceil(n_leaves ** (1.0 / remaining_dims)))
        slab_size = int(np.ceil(n / n_slabs))
        ordered = positions[np.argsort(self._points[positions, axis], kind="stable")]
        groups: List[np.ndarray] = []
        for start in range(0, n, slab_size):
            slab = ordered[start : start + slab_size]
            groups.extend(self._str_partition(slab, axis + 1))
        return groups

    def _pack_upwards(self, nodes: List[RTreeNode]) -> RTreeNode:
        """Group nodes into parents level by level until a single root remains."""
        n_dims = len(self._dimensions)
        while len(nodes) > 1:
            centres = np.array([(node.lows + node.highs) / 2.0 for node in nodes])
            order = np.lexsort(tuple(centres[:, axis] for axis in range(n_dims - 1, -1, -1)))
            parents: List[RTreeNode] = []
            for start in range(0, len(nodes), self._capacity):
                parent = RTreeNode(is_leaf=False, n_dims=n_dims)
                parent.children = [nodes[int(i)] for i in order[start : start + self._capacity]]
                parent.recompute_mbr(self._points)
                parents.append(parent)
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        lows = np.array([query.interval(dim).low for dim in self._dimensions])
        highs = np.array([query.interval(dim).high for dim in self._dimensions])
        candidates: List[int] = []
        nodes_visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes_visited += 1
            if not node.intersects(lows, highs):
                continue
            if node.is_leaf:
                candidates.extend(node.positions)
            else:
                stack.extend(node.children)
        candidate_array = np.asarray(candidates, dtype=np.int64)
        matches = self._filter_candidates(candidate_array, query)
        self.stats.record(
            rows_examined=len(candidate_array),
            rows_matched=len(matches),
            nodes_visited=nodes_visited,
        )
        return matches

    # ------------------------------------------------------------------
    # Memory and structure introspection
    # ------------------------------------------------------------------
    def directory_bytes(self) -> int:
        """Bytes of tree structure: per-entry boxes/pointers plus node MBRs.

        Each leaf entry costs a row pointer (8 bytes); each internal entry a
        child pointer (8 bytes); each node stores its MBR (2 * n_dims floats).
        This matches the accounting that makes the R-Tree the most
        memory-hungry competitor in Figure 8.
        """
        n_dims = len(self._dimensions)
        node_bytes = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            node_bytes += 2 * n_dims * 8  # the node MBR
            node_bytes += node.n_entries * 8  # entry pointers / row ids
            if not node.is_leaf:
                stack.extend(node.children)
        return node_bytes

    def height(self) -> int:
        """Height of the tree (1 for a single leaf root)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height
