"""A disk-page-oriented B+-tree.

This is the substrate of the Bx-tree baseline.  Keys are opaque comparable
values (the Bx-tree uses integers), every node models one disk page, and the
tree counts node (page) accesses so the baseline's update/query costs can be
converted into simulated time with a per-page latency.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError


class BPlusTreeError(ReproError):
    """Invalid B+-tree operation."""


@dataclass
class _Node:
    is_leaf: bool
    keys: List = field(default_factory=list)
    #: Children for internal nodes; value lists for leaves.
    children: List = field(default_factory=list)
    values: List = field(default_factory=list)
    next_leaf: Optional["_Node"] = None


@dataclass
class AccessStats:
    """Page-access accounting."""

    node_reads: int = 0
    node_writes: int = 0

    def total(self) -> int:
        return self.node_reads + self.node_writes

    def reset(self) -> None:
        self.node_reads = 0
        self.node_writes = 0


class BPlusTree:
    """Order-``order`` B+-tree with duplicate-free keys and per-key value lists."""

    def __init__(self, order: int = 64) -> None:
        if order < 4:
            raise BPlusTreeError("the tree order must be at least 4")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0
        self.stats = AccessStats()

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, key, value) -> None:
        """Insert ``value`` under ``key`` (duplicates per key are allowed)."""
        root = self._root
        result = self._insert(root, key, value)
        if result is not None:
            separator, new_node = result
            new_root = _Node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [root, new_node]
            self._root = new_root
            self.stats.node_writes += 1
        self._size += 1

    def remove(self, key, value) -> bool:
        """Remove one occurrence of ``value`` under ``key``.

        Returns whether it was found.  The tree uses lazy deletion (no
        rebalancing); the Bx-tree deletes and reinserts on every update, so
        underfull leaves are quickly repopulated.
        """
        node = self._root
        while not node.is_leaf:
            self.stats.node_reads += 1
            index = bisect_right(node.keys, key)
            node = node.children[index]
        self.stats.node_reads += 1
        index = bisect_left(node.keys, key)
        if index >= len(node.keys) or node.keys[index] != key:
            return False
        bucket = node.values[index]
        if value not in bucket:
            return False
        bucket.remove(value)
        if not bucket:
            del node.keys[index]
            del node.values[index]
        self.stats.node_writes += 1
        self._size -= 1
        return True

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def range(self, low, high) -> Iterator[Tuple[object, object]]:
        """Yield ``(key, value)`` for keys in ``[low, high]`` in order."""
        node = self._root
        while not node.is_leaf:
            self.stats.node_reads += 1
            index = bisect_right(node.keys, low)
            node = node.children[index]
        while node is not None:
            self.stats.node_reads += 1
            for index, key in enumerate(node.keys):
                if key < low:
                    continue
                if key > high:
                    return
                for value in node.values[index]:
                    yield key, value
            node = node.next_leaf

    def keys(self) -> List:
        """Every key in order (test helper; charged as a full leaf walk)."""
        result = []
        node = self._root
        while not node.is_leaf:
            self.stats.node_reads += 1
            node = node.children[0]
        while node is not None:
            self.stats.node_reads += 1
            result.extend(node.keys)
            node = node.next_leaf
        return result

    def height(self) -> int:
        """Number of levels in the tree."""
        height = 1
        node = self._root
        while not node.is_leaf:
            height += 1
            node = node.children[0]
        return height

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _insert(self, node: _Node, key, value) -> Optional[Tuple[object, _Node]]:
        if node.is_leaf:
            self.stats.node_reads += 1
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index].append(value)
            else:
                node.keys.insert(index, key)
                node.values.insert(index, [value])
            self.stats.node_writes += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        self.stats.node_reads += 1
        index = bisect_right(node.keys, key)
        result = self._insert(node.children[index], key, value)
        if result is None:
            return None
        separator, new_child = result
        node.keys.insert(index, separator)
        node.children.insert(index + 1, new_child)
        self.stats.node_writes += 1
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node) -> Tuple[object, _Node]:
        middle = len(node.keys) // 2
        sibling = _Node(is_leaf=True)
        sibling.keys = node.keys[middle:]
        sibling.values = node.values[middle:]
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        sibling.next_leaf = node.next_leaf
        node.next_leaf = sibling
        self.stats.node_writes += 2
        return sibling.keys[0], sibling

    def _split_internal(self, node: _Node) -> Tuple[object, _Node]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        sibling = _Node(is_leaf=False)
        sibling.keys = node.keys[middle + 1:]
        sibling.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        self.stats.node_writes += 2
        return separator, sibling
