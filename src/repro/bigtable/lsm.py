"""LSM primitives of the tablet engine: SSTable runs and recovery reports.

A real BigTable tablet is served from three structures (Section 5.3 of the
original BigTable paper, which MOIST inherits wholesale):

* a *commit log* absorbing every mutation durably before it is acknowledged,
  with group commit batching many mutations into one fsync;
* an in-memory *memtable* holding the recently committed state;
* immutable *SSTables* on GFS — sorted runs produced by *minor compactions*
  (memtable flushes) and consolidated by *merging/major compactions*.

This module provides :class:`SSTable` (an immutable sorted run with
key-range metadata, sliceable in O(1) for tablet splits, read whole through
:meth:`~SSTable.columns`) and the frozen recovery reports.  Runs keep no
per-run Bloom filter: they live in memory, where a filter saves no disk
seek, and a tablet serves point and range reads from one merged *run view*
instead.  The live tablet machinery (memtable, run view, merged reads, flush
and compaction scheduling) lives in :mod:`repro.bigtable.tablet`; the charging
of durability work to the cost ledgers lives in
:mod:`repro.bigtable.table`.

The commit log is modelled, not stored.  A crash loses the memtable and a
replay of the log tail over the runs rebuilds it exactly, so the emulator,
which never actually loses its memtable, keeps only what the model prices:
how many records each tablet's log gathered per row key since its last
flush (``Tablet.log_counts``).  Recovery charges re-opening every run plus
replaying that many records, and keeps the memtable it already holds.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Cache/source identifier of rows served straight from a tablet's memtable
#: (as opposed to an SSTable run's ``run_id``).
MEMTABLE_SOURCE = "mem"

class _Tombstone:
    """Singleton marker for a deleted row awaiting compaction GC.

    A tombstone lives in the memtable (and in flushed runs) to shadow older
    SSTable versions of its row; major compaction garbage-collects it once
    nothing older remains to suppress.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TOMBSTONE>"


TOMBSTONE = _Tombstone()


class SSTable:
    """One immutable sorted run of ``(row_key, row-or-TOMBSTONE)`` entries.

    A run is produced whole (by a memtable flush or a compaction) and never
    mutated afterwards; tablet splits *slice* it in O(1) — both children
    share the same key/value arrays through ``[lo, hi)`` views, exactly as
    BigTable children initially share their parent's SSTables.  ``run_id``
    survives slicing (it names the underlying file); the block cache keys
    entries by ``(tablet, run, block)`` so shared slices never collide.
    """

    __slots__ = ("run_id", "max_seqno", "_keys", "_values", "_lo", "_hi")

    def __init__(
        self,
        run_id: str,
        keys: List[str],
        values: List[object],
        max_seqno: int,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> None:
        self.run_id = run_id
        self.max_seqno = max_seqno
        self._keys = keys
        self._values = values
        self._lo = lo
        self._hi = len(keys) if hi is None else hi

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def min_key(self) -> Optional[str]:
        return self._keys[self._lo] if self._hi > self._lo else None

    @property
    def max_key(self) -> Optional[str]:
        return self._keys[self._hi - 1] if self._hi > self._lo else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable({self.run_id!r}, rows={len(self)}, "
            f"range=[{self.min_key!r}, {self.max_key!r}], seq={self.max_seqno})"
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def columns(self) -> Tuple[List[str], List[object]]:
        """The slice's keys and their values (row or TOMBSTONE), in key
        order, as two fresh lists."""
        return self._keys[self._lo : self._hi], self._values[self._lo : self._hi]

    # ------------------------------------------------------------------
    # Split / merge support
    # ------------------------------------------------------------------
    def slice(self, start: Optional[str], end: Optional[str]) -> "SSTable":
        """A view of this run restricted to ``[start, end)`` (shares arrays)."""
        lo = self._lo if start is None else bisect_left(self._keys, start, self._lo, self._hi)
        hi = self._hi if end is None else bisect_left(self._keys, end, self._lo, self._hi)
        return SSTable(self.run_id, self._keys, self._values, self.max_seqno, lo, hi)

    def try_coalesce(self, other: "SSTable") -> Optional["SSTable"]:
        """Rejoin two adjacent slices of the same underlying run.

        A tablet merge can reunite the halves a split handed to each child;
        coalescing restores the single view so the cache keys stay unique
        per (tablet, run).  Returns ``None`` when the slices don't abut or
        come from different runs.
        """
        if self.run_id != other.run_id or self._keys is not other._keys:
            return None
        first, second = (self, other) if self._lo <= other._lo else (other, self)
        if first._hi != second._lo:
            return None
        return SSTable(
            self.run_id,
            self._keys,
            self._values,
            self.max_seqno,
            first._lo,
            second._hi,
        )


@dataclass(frozen=True)
class TableRecovery:
    """What recovering one table took."""

    table: str
    tablets: int
    runs_opened: int
    run_rows_loaded: int
    log_records_replayed: int
    simulated_seconds: float


@dataclass(frozen=True)
class RecoveryReport:
    """Aggregate outcome of one simulated crash-and-recover cycle."""

    tables: Tuple[TableRecovery, ...] = field(default=())

    @property
    def runs_opened(self) -> int:
        return sum(entry.runs_opened for entry in self.tables)

    @property
    def log_records_replayed(self) -> int:
        return sum(entry.log_records_replayed for entry in self.tables)

    @property
    def simulated_seconds(self) -> float:
        return sum(entry.simulated_seconds for entry in self.tables)


def merge_runs(
    selected: Sequence[SSTable],
    drop_tombstones: bool,
) -> Tuple[List[str], List[object]]:
    """Merge contiguous runs (newest first) into one sorted key/value pair.

    For every key the newest selected version wins.  ``drop_tombstones``
    garbage-collects deletion markers — only sound when nothing older than
    the selected window could still hold the key (i.e. the window reaches
    the tablet's oldest run, or the compaction is major).
    """
    merged: Dict[str, object] = {}
    for run in reversed(selected):  # oldest -> newest so newest wins
        merged.update(zip(*run.columns()))
    keys: List[str] = []
    values: List[object] = []
    for key in sorted(merged):
        value = merged[key]
        if drop_tombstones and value is TOMBSTONE:
            continue
        keys.append(key)
        values.append(value)
    return keys, values
