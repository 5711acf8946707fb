"""Tests for the B+-tree substrate of the Bx-tree baseline."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.bplustree import BPlusTree, BPlusTreeError


def search(tree, key):
    """Values stored under ``key``: a one-key range query."""
    return [value for _, value in tree.range(key, key)]


class TestBasics:
    def test_minimum_order_enforced(self):
        with pytest.raises(BPlusTreeError):
            BPlusTree(order=2)

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "a")
        tree.insert(3, "b")
        assert search(tree, 5) == ["a"]
        assert search(tree, 3) == ["b"]
        assert search(tree, 99) == []
        assert len(tree) == 2

    def test_duplicate_keys_keep_all_values(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert sorted(search(tree, 1)) == ["a", "b"]
        assert len(tree) == 2

    def test_remove(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.remove(1, "a")
        assert search(tree, 1) == ["b"]
        assert not tree.remove(1, "a")
        assert not tree.remove(42, "zzz")
        assert len(tree) == 1

    def test_range_query(self):
        tree = BPlusTree(order=4)
        for key in range(20):
            tree.insert(key, key * 10)
        results = list(tree.range(5, 9))
        assert [key for key, _ in results] == [5, 6, 7, 8, 9]
        assert [value for _, value in results] == [50, 60, 70, 80, 90]

    def test_range_empty_interval(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        assert list(tree.range(5, 10)) == []

    def test_keys_sorted(self):
        tree = BPlusTree(order=4)
        for key in [9, 1, 7, 3, 5]:
            tree.insert(key, key)
        assert tree.keys() == [1, 3, 5, 7, 9]

    def test_height_grows_with_population(self):
        small = BPlusTree(order=4)
        large = BPlusTree(order=4)
        for key in range(4):
            small.insert(key, key)
        for key in range(500):
            large.insert(key, key)
        assert large.height() > small.height()

    def test_access_stats_accumulate(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        assert tree.stats.node_writes > 0
        before = tree.stats.node_reads
        search(tree, 50)
        assert tree.stats.node_reads > before
        tree.stats.reset()
        assert tree.stats.total() == 0


class TestAgainstReference:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=300), max_size=300))
    def test_insertion_matches_sorted_reference(self, keys):
        tree = BPlusTree(order=8)
        for key in keys:
            tree.insert(key, key)
        assert tree.keys() == sorted(set(keys))
        assert len(tree) == len(keys)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_range_matches_reference(self, keys, low, high):
        if low > high:
            low, high = high, low
        tree = BPlusTree(order=8)
        for key in keys:
            tree.insert(key, key)
        expected = sorted(k for k in keys if low <= k <= high)
        assert [key for key, _ in tree.range(low, high)] == expected

    def test_random_insert_delete_consistency(self):
        rng = random.Random(13)
        tree = BPlusTree(order=16)
        reference = {}
        for _ in range(2000):
            key = rng.randrange(200)
            if rng.random() < 0.6:
                tree.insert(key, key)
                reference[key] = reference.get(key, 0) + 1
            elif reference.get(key):
                assert tree.remove(key, key)
                reference[key] -= 1
                if reference[key] == 0:
                    del reference[key]
        assert tree.keys() == sorted(reference)
        assert len(tree) == sum(reference.values())
