"""Tests for the sorted map underlying the BigTable emulator."""

from hypothesis import given, strategies as st

from repro.bigtable.sorted_map import SortedMap

keys = st.text(alphabet="abcdef0123456789", min_size=1, max_size=8)


class TestBasicOperations:
    def test_set_and_get(self):
        m = SortedMap()
        m.set("b", 2)
        assert m.get("b") == 2
        assert m.get("missing") is None
        assert m.get("missing", 7) == 7

    def test_overwrite_keeps_single_key(self):
        m = SortedMap()
        m.set("a", 1)
        m.set("a", 2)
        assert len(m) == 1
        assert m.get("a") == 2

    def test_delete(self):
        m = SortedMap()
        m.set("a", 1)
        assert m.delete("a")
        assert not m.delete("a")
        assert len(m) == 0

    def test_contains_and_len(self):
        m = SortedMap()
        assert "x" not in m
        m.set("x", 1)
        assert "x" in m
        assert len(m) == 1

    def test_clear(self):
        m = SortedMap()
        m.set("a", 1)
        m.set("b", 2)
        m.clear()
        assert len(m) == 0
        assert m.keys() == []

    def test_keys_are_sorted(self):
        m = SortedMap()
        for key in ["d", "a", "c", "b"]:
            m.set(key, key)
        assert m.keys() == ["a", "b", "c", "d"]

    def test_items_in_key_order(self):
        m = SortedMap()
        m.set("b", 2)
        m.set("a", 1)
        assert list(m.items()) == [("a", 1), ("b", 2)]


class TestScans:
    def _populated(self):
        m = SortedMap()
        for key in ["a", "b", "c", "d", "e"]:
            m.set(key, key.upper())
        return m

    def test_scan_full(self):
        m = self._populated()
        assert [k for k, _ in m.scan()] == ["a", "b", "c", "d", "e"]

    def test_scan_range_is_half_open(self):
        m = self._populated()
        assert [k for k, _ in m.scan("b", "d")] == ["b", "c"]

    def test_scan_with_limit(self):
        m = self._populated()
        assert [k for k, _ in m.scan(limit=2)] == ["a", "b"]

    def test_scan_start_between_keys(self):
        m = self._populated()
        assert [k for k, _ in m.scan("bb", "dd")] == ["c", "d"]

    def test_count_range(self):
        m = self._populated()
        assert m.count_range("b", "e") == 3
        assert m.count_range() == 5
        assert m.count_range("x", "z") == 0


class TestProperties:
    @given(st.dictionaries(keys, st.integers(), max_size=40))
    def test_matches_reference_dict(self, reference):
        m = SortedMap()
        for key, value in reference.items():
            m.set(key, value)
        assert m.keys() == sorted(reference)
        for key, value in reference.items():
            assert m.get(key) == value

    @given(st.lists(keys, max_size=40), st.lists(keys, max_size=20))
    def test_delete_matches_reference(self, inserts, deletes):
        m = SortedMap()
        reference = {}
        for key in inserts:
            m.set(key, key)
            reference[key] = key
        for key in deletes:
            assert m.delete(key) == (key in reference)
            reference.pop(key, None)
        assert m.keys() == sorted(reference)

    @given(st.dictionaries(keys, st.integers(), max_size=40), keys, keys)
    def test_scan_matches_reference(self, reference, low, high):
        if low > high:
            low, high = high, low
        m = SortedMap()
        for key, value in reference.items():
            m.set(key, value)
        expected = sorted(k for k in reference if low <= k < high)
        assert [k for k, _ in m.scan(low, high)] == expected
        assert m.count_range(low, high) == len(expected)


class TestIteratorAPI:
    def test_iter_keys_full_range(self):
        m = SortedMap()
        for key in ["d", "a", "c", "b"]:
            m.set(key, key)
        assert list(m.iter_keys()) == ["a", "b", "c", "d"]

    def test_iter_keys_bounded(self):
        m = SortedMap()
        for key in ["a", "b", "c", "d", "e"]:
            m.set(key, key)
        assert list(m.iter_keys("b", "e")) == ["b", "c", "d"]
        assert list(m.iter_keys(None, "c")) == ["a", "b"]
        assert list(m.iter_keys("c", None)) == ["c", "d", "e"]

    def test_key_at(self):
        m = SortedMap()
        for key in ["c", "a", "b"]:
            m.set(key, key)
        assert m.key_at(0) == "a"
        assert m.key_at(1) == "b"
        assert m.key_at(len(m) // 2) == "b"
        assert m.key_at(-1) == "c"

    def test_iter_keys_observes_buffered_inserts(self):
        # Keys still sitting in the unsorted write buffer must appear in
        # ordered iteration exactly like merged keys.
        m = SortedMap()
        m.set("b", 1)
        assert m.keys() == ["b"]  # force a merge
        m.set("a", 2)
        m.set("c", 3)
        assert list(m.iter_keys()) == ["a", "b", "c"]


class TestMemtableProperty:
    """The LSM-style write buffer must be invisible: under any interleaving
    of inserts, overwrites, deletes and ordered reads the map behaves like a
    plain dict whose keys are sorted on demand."""

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("set"), keys, st.integers()),
                st.tuples(st.just("delete"), keys, st.integers()),
                st.tuples(st.just("scan"), keys, keys),
                st.tuples(st.just("keys"), keys, keys),
                st.tuples(st.just("count"), keys, keys),
            ),
            max_size=60,
        )
    )
    def test_random_interleavings_match_reference(self, ops):
        m = SortedMap()
        reference = {}
        for op, a, b in ops:
            if op == "set":
                m.set(a, b)
                reference[a] = b
            elif op == "delete":
                assert m.delete(a) == (a in reference)
                reference.pop(a, None)
            elif op == "scan":
                low, high = min(a, b), max(a, b)
                expected = sorted(k for k in reference if low <= k < high)
                assert [k for k, _ in m.scan(low, high)] == expected
                assert list(m.iter_keys(low, high)) == expected
            elif op == "keys":
                assert m.keys() == sorted(reference)
            elif op == "count":
                low, high = min(a, b), max(a, b)
                assert m.count_range(low, high) == sum(
                    low <= k < high for k in reference
                )
            # Point invariants hold after every operation.
            assert len(m) == len(reference)
        assert m.keys() == sorted(reference)
        assert [v for _, v in m.items()] == [
            reference[k] for k in sorted(reference)
        ]

    @given(st.dictionaries(keys, st.integers(), max_size=40), keys)
    def test_split_off_with_buffered_inserts(self, reference, pivot):
        m = SortedMap()
        for key, value in reference.items():
            m.set(key, value)
        upper = m.split_off(pivot)
        assert m.keys() == sorted(k for k in reference if k < pivot)
        assert upper.keys() == sorted(k for k in reference if k >= pivot)
        # Both halves stay fully functional memtables after the split.
        m.set("0new", -1)
        upper.set("zz", -2)
        assert m.get("0new") == -1
        assert upper.get("zz") == -2

    @given(st.dictionaries(keys, st.integers(), max_size=30))
    def test_absorb_after_merges_buffers(self, reference):
        m = SortedMap()
        for key, value in reference.items():
            m.set(key, value)
        upper = m.split_off("8")
        m.absorb_after(upper)
        assert m.keys() == sorted(reference)
        assert len(upper) == 0
