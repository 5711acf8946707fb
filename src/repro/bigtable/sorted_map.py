"""A mapping that keeps its keys sorted and supports range scans.

BigTable tablets store rows ordered by key; range scans over contiguous key
intervals are the cheap access path the paper exploits.  ``SortedMap`` is the
in-process equivalent, organised like a miniature LSM memtable:

* point access (``get``/``set``/``delete``/``in``/``len``) goes straight to a
  dict and is O(1);
* newly inserted keys land in an *unsorted write buffer* instead of being
  ``insort``-ed into the sorted run on every write (the seed behaviour, O(n)
  per insert because of the list memmove);
* the first *ordered* access (scan, iteration, floor/ceiling, split) merges
  the buffer into the sorted run in one pass — ``list.sort`` on the
  concatenation of two sorted runs is a galloping merge in C, so a burst of
  ``m`` inserts followed by a scan costs O(m log m + n) once instead of
  O(m·n) spread over the writes.

This matches how BigTable itself absorbs writes (memtable first, merged view
on read) and is what lets the group-commit write path stay O(1) per mutation
while scans still observe every earlier write of the batch.  Deletions of
already-merged keys are applied to the sorted run eagerly (a C-level
memmove); deletions of still-buffered keys just drop the buffer entry.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple, TypeVar

V = TypeVar("V")


class SortedMap:
    """String-keyed mapping with ordered iteration and range scans."""

    __slots__ = ("_data", "_keys", "_pending")

    def __init__(self) -> None:
        #: Authoritative key -> value store (point access path).
        self._data: Dict[str, object] = {}
        #: Sorted run: every key *except* those still in the write buffer.
        self._keys: List[str] = []
        #: Unsorted write buffer of keys inserted since the last merge.  A
        #: dict doubles as an ordered set with O(1) add/discard.
        self._pending: Dict[str, None] = {}

    # ------------------------------------------------------------------
    # Memtable merge
    # ------------------------------------------------------------------
    def _merge(self) -> None:
        """Fold the write buffer into the sorted run (no-op when empty)."""
        pending = self._pending
        if not pending:
            return
        keys = self._keys
        if keys:
            keys.extend(pending)
            # Timsort detects the presorted prefix and the appended run and
            # gallops through the merge in C.
            keys.sort()
        else:
            self._keys = sorted(pending)
        pending.clear()

    def _span(
        self, start: Optional[str], end: Optional[str], limit: Optional[int] = None
    ) -> Tuple[int, int]:
        """Merge, then the index range of the sorted run covering ``[start,
        end)``, cut to at most ``limit`` keys."""
        self._merge()
        keys = self._keys
        lo = 0 if start is None else bisect_left(keys, start)
        hi = len(keys) if end is None else bisect_left(keys, end)
        if limit is not None and hi - lo > limit:
            hi = lo + limit
        return lo, hi

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[str]:
        self._merge()
        return iter(self._keys)

    def get(self, key: str, default: Optional[object] = None) -> Optional[object]:
        """Point lookup."""
        return self._data.get(key, default)

    def set(self, key: str, value: object) -> None:
        """Insert or overwrite ``key`` (amortised O(1): new keys go to the
        write buffer and are merged into the sorted run lazily)."""
        if key not in self._data:
            self._pending[key] = None
        self._data[key] = value

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns ``True`` when it was present."""
        if key not in self._data:
            return False
        del self._data[key]
        if key in self._pending:
            del self._pending[key]
            return True
        index = bisect_left(self._keys, key)
        # The key is guaranteed present, so the bisect position holds it.
        del self._keys[index]
        return True

    def keys(self) -> List[str]:
        """All keys in ascending order (copy)."""
        self._merge()
        return list(self._keys)

    def iter_keys(
        self, start: Optional[str] = None, end: Optional[str] = None
    ) -> Iterator[str]:
        """Yield keys in ``[start, end)`` in order, without copying the run.

        The iterator-based counterpart of :meth:`keys` for hot callers that
        only walk the range once.  Mutating the map while iterating is
        undefined (exactly like iterating a dict).
        """
        lo, hi = self._span(start, end)
        keys = self._keys
        for index in range(lo, hi):
            yield keys[index]

    def key_at(self, index: int) -> str:
        """The ``index``-th smallest key (supports negative indexes).

        O(1) after the merge — the tablet-split path uses this to find the
        median key without copying the whole run.
        """
        self._merge()
        return self._keys[index]

    def items(self) -> Iterator[Tuple[str, object]]:
        """All ``(key, value)`` pairs in key order."""
        self._merge()
        data = self._data
        for key in self._keys:
            yield key, data[key]

    def scan(
        self,
        start: Optional[str] = None,
        end: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Tuple[str, object]]:
        """Yield ``(key, value)`` for keys in ``[start, end)`` in order.

        ``None`` bounds are open-ended; ``limit`` caps the number of rows.
        """
        lo, hi = self._span(start, end, limit)
        keys = self._keys
        data = self._data
        for index in range(lo, hi):
            key = keys[index]
            yield key, data[key]

    def scan_columns(
        self,
        start: Optional[str] = None,
        end: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Tuple[List[str], List[object]]:
        """:meth:`scan` as two lists, the keys and their values, each built
        in one C-level step."""
        lo, hi = self._span(start, end, limit)
        keys = self._keys[lo:hi]
        return keys, list(map(self._data.__getitem__, keys))

    def count_range(self, start: Optional[str] = None, end: Optional[str] = None) -> int:
        """Number of keys in ``[start, end)`` without materialising them."""
        lo, hi = self._span(start, end)
        return max(hi - lo, 0)

    def split_off(self, key: str) -> "SortedMap":
        """Remove every entry with a key ``>= key`` and return them as a new map.

        This is the primitive behind tablet splits: the upper half of a
        tablet's rows moves wholesale into the new tablet in O(n).
        """
        self._merge()
        index = bisect_left(self._keys, key)
        upper = SortedMap()
        upper._keys = self._keys[index:]
        upper._data = {moved: self._data.pop(moved) for moved in upper._keys}
        del self._keys[index:]
        return upper

    def absorb_after(self, other: "SortedMap") -> None:
        """Append every entry of ``other``, whose keys must all be greater
        than ours (the tablet-merge primitive; ``other`` is emptied)."""
        self._merge()
        other._merge()
        if self._keys and other._keys and other._keys[0] <= self._keys[-1]:
            raise ValueError("absorb_after requires strictly greater keys")
        self._keys.extend(other._keys)
        self._data.update(other._data)
        other.clear()

    def clear(self) -> None:
        """Remove every entry."""
        self._data.clear()
        self._keys.clear()
        self._pending.clear()
