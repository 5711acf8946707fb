"""LSM primitives of the tablet engine: commit log, SSTable runs, recovery.

A real BigTable tablet is served from three structures (Section 5.3 of the
original BigTable paper, which MOIST inherits wholesale):

* a *commit log* absorbing every mutation durably before it is acknowledged,
  with group commit batching many mutations into one fsync;
* an in-memory *memtable* holding the recently committed state;
* immutable *SSTables* on GFS — sorted runs produced by *minor compactions*
  (memtable flushes) and consolidated by *merging/major compactions*.

This module provides the durable half of that triple for the emulator:
:class:`CommitLog` (sequence-numbered logical mutation records, partitionable
by key so tablet splits can hand each child exactly its history; stored as
columns — two typed arrays and three flat lists per log, not a tuple per
record, see its docstring for why),
:class:`SSTable` (an immutable sorted run with key-range metadata,
sliceable in O(1) for tablet splits, read whole through
:meth:`~SSTable.columns`) and the frozen recovery reports.  Runs keep no
per-run Bloom filter: they live in memory, where a filter saves no disk
seek, and a tablet serves point and range reads from one merged *run view*
instead.  The live tablet machinery (memtable, run view, merged reads, flush
and compaction scheduling) lives in :mod:`repro.bigtable.tablet`; the charging
of durability work to the cost ledgers lives in
:mod:`repro.bigtable.table`.

Everything here survives a simulated tablet-server crash: a crash destroys
memtables (and the block cache), while commit logs, SSTable runs and tablet
boundary metadata (BigTable's METADATA table, itself durable) persist and
recovery replays each tablet's log tail over its runs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple

#: Cache/source identifier of rows served straight from a tablet's memtable
#: (as opposed to an SSTable run's ``run_id``).
MEMTABLE_SOURCE = "mem"

#: Commit-log record opcodes.  A record reads as the tuple
#: ``(seqno, opcode, row_key, *payload)``; :class:`CommitLog` stores it as
#: columns.
LOG_WRITE = "w"        # (seq, "w", row_key, family, qualifier, value, ts)
LOG_DELETE_CELL = "dc"  # (seq, "dc", row_key, family, qualifier)
LOG_DELETE_ROW = "dr"   # (seq, "dr", row_key)
LOG_AGE_ROW = "age"     # (seq, "age", row_key, source_family, target_family, cutoff)


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


class CommitLog:
    """The sequence-numbered mutation log of one tablet.

    Records are logical mutations (see the ``LOG_*`` opcodes) appended in
    commit order; group commit batches the fsyncs, not the records.  The log
    is truncated whole at every memtable flush — by then every record's
    effect lives in the flushed run — and partitioned by row key when the
    tablet splits, so each child's log is exactly the unflushed history of
    the keys it owns.

    Storage is columnar: record ``i`` is ``_seqnos[i]``, ``_opcodes[i]``,
    ``_keys[i]`` and the next ``_widths[i]`` payload fields of the flat
    ``_fields`` list.  The hot write path appends one record per mutation
    and, with the default ``memtable_flush_rows=None``, nothing ever
    truncates the log — so a tuple per record is a garbage-collector-tracked
    object per update that every full collection walks for the rest of the
    run.  The two integer columns are ``array('q')``: typed arrays hold
    values, not object pointers, and the collector neither tracks nor
    traverses them.  :attr:`records` rebuilds the tuples for the callers
    that want them (replay, checkpoint); splits and merges reorder the
    columns wholesale (:meth:`_take`) without visiting records one by one.
    No record is ever dropped or compacted.
    """

    __slots__ = ("_seqnos", "_widths", "_opcodes", "_keys", "_fields")

    def __init__(self) -> None:
        self._seqnos = array("q")
        self._widths = array("q")
        self._opcodes: List[str] = []
        self._keys: List[str] = []
        self._fields: List[object] = []

    def __len__(self) -> int:
        return len(self._seqnos)

    def write(
        self, seqno: int, opcode: str, row_key: str, payload: Sequence[object]
    ) -> None:
        """Append one record, given as its columns."""
        self._seqnos.append(seqno)
        self._widths.append(len(payload))
        self._opcodes.append(opcode)
        self._keys.append(row_key)
        self._fields.extend(payload)

    def append(self, record: tuple) -> None:
        """Append one ``(seqno, opcode, row_key, *payload)`` record tuple."""
        self.write(record[0], record[1], record[2], record[3:])

    @property
    def records(self) -> List[tuple]:
        """Every record as a ``(seqno, opcode, row_key, *payload)`` tuple, in
        commit order (a fresh list: mutate the log through its methods)."""
        fields = self._fields
        records: List[tuple] = []
        start = 0
        for seqno, opcode, row_key, end in zip(
            self._seqnos, self._opcodes, self._keys, accumulate(self._widths)
        ):
            records.append((seqno, opcode, row_key, *fields[start:end]))
            start = end
        return records

    def clear(self) -> None:
        """Truncate the log (a flush made every record redundant)."""
        self._adopt(CommitLog())

    def _adopt(self, other: "CommitLog") -> None:
        """Take over another log's columns."""
        for column in self.__slots__:
            setattr(self, column, getattr(other, column))

    def _take(self, picks: Sequence[int]) -> "CommitLog":
        """A new log of this log's records ``picks`` (indices), in that
        order.  Whole-column gathers: a tablet whose log was never flushed
        splits and merges with tens of thousands of records in it."""
        taken = CommitLog()
        taken._seqnos = array("q", map(self._seqnos.__getitem__, picks))
        taken._widths = array("q", map(self._widths.__getitem__, picks))
        taken._opcodes = list(map(self._opcodes.__getitem__, picks))
        taken._keys = list(map(self._keys.__getitem__, picks))
        ends = list(accumulate(self._widths))
        starts = [0] + ends
        spans = map(
            slice, map(starts.__getitem__, picks), map(ends.__getitem__, picks)
        )
        taken._fields = list(
            chain.from_iterable(map(self._fields.__getitem__, spans))
        )
        return taken

    def split_off(self, key: str) -> "CommitLog":
        """Move every record whose row key is ``>= key`` into a new log.

        Record order (== seqno order) is preserved on both sides; this is
        the tablet-split primitive, mirroring how SSTable runs are sliced.
        """
        keys = self._keys
        moved = self._take([i for i, row_key in enumerate(keys) if row_key >= key])
        self._adopt(self._take([i for i, row_key in enumerate(keys) if row_key < key]))
        return moved

    def absorb(self, other: "CommitLog") -> None:
        """Fold another tablet's log in, restoring global seqno order
        (the tablet-merge primitive; ``other`` is emptied)."""
        if len(other):
            seqnos = self._seqnos
            interleaved = len(seqnos) and seqnos[-1] > other._seqnos[0]
            for column in self.__slots__:
                getattr(self, column).extend(getattr(other, column))
            if interleaved:
                # Stable, like the commit order it restores; two sorted runs
                # cost the sort one merge pass.
                self._adopt(
                    self._take(sorted(range(len(seqnos)), key=seqnos.__getitem__))
                )
            other.clear()


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
