"""The Location Table (Section 3.1.2).

Row key: object id.  One in-memory column family holds the ``m`` most recent
location records; aged records are periodically compressed into a chain of
disk column families (``aged-0``, ``aged-1``, ...) by :meth:`age_out`, and the
oldest disk column is drained to the PPP archiver.

What a cell value is at rest — an exact ``tuple`` of atoms, which the cycle
collector stops tracking (see :mod:`repro.bigtable.table`; the table keeps
``m`` versions per object and the commit log a reference to each) — and at
the edge:

==========  ==============================  ================================
column      at rest                         at the edge
==========  ==============================  ================================
``record``  ``(x, y, dx, dy, timestamp)``,  :class:`LocationRecord`, the same
            fresh and aged families alike   tuple re-branded by every read
                                            method (``tuple.__new__``: no
                                            validation, no ``Point``)
==========  ==============================  ================================
"""

from __future__ import annotations

from sys import intern as _intern
from typing import Dict, List, Optional, Sequence

from repro.bigtable.cost import OpKind
from repro.bigtable.emulator import BigtableEmulator
from repro.bigtable.table import ColumnFamily, Table
from repro.errors import RowNotFoundError, SchemaError
from repro.model import LocationRecord, ObjectId

#: Column family holding fresh (in-memory) location records.
FRESH_FAMILY = "loc"
#: Qualifier under which the record versions are stored.
RECORD_QUALIFIER = "record"
#: Versions each aged disk column family keeps.
DISK_COLUMN_VERSIONS = 64


class LocationTable:
    """Wrapper around the BigTable table that stores location records."""

    def __init__(
        self,
        emulator: BigtableEmulator,
        name: str = "location",
        memory_records: int = 8,
        disk_columns: int = 2,
    ) -> None:
        if memory_records <= 0:
            raise SchemaError("memory_records must be positive")
        if disk_columns < 1:
            raise SchemaError("the Location Table needs at least one disk column")
        self.memory_records = memory_records
        self.disk_columns = disk_columns
        families = [
            ColumnFamily(FRESH_FAMILY, in_memory=True, max_versions=memory_records)
        ]
        for index in range(disk_columns):
            families.append(
                ColumnFamily(
                    self.disk_family(index),
                    in_memory=False,
                    max_versions=DISK_COLUMN_VERSIONS,
                )
            )
        self._table = emulator.create_table(name, families)

    @staticmethod
    def disk_family(index: int) -> str:
        """Name of the ``index``-th aged disk column family."""
        return f"aged-{index}"

    @property
    def table(self) -> Table:
        """The backing BigTable table (tablet routing / group commits)."""
        return self._table

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_record(self, object_id: ObjectId, record: LocationRecord) -> None:
        """Append a location record for ``object_id`` (Algorithm 1, line 2).

        The row key is interned: every update of an object re-presents the
        same id string, and interning lets the row dictionaries compare the
        repeats by pointer instead of by characters.
        """
        self._table.write(
            _intern(object_id), FRESH_FAMILY, RECORD_QUALIFIER, tuple(record), record[4]
        )

    def batch_add(self, entries: Sequence[tuple]) -> None:
        """Batch-append ``(object_id, record)`` pairs in one RPC."""
        mutations = [
            (_intern(object_id), FRESH_FAMILY, RECORD_QUALIFIER, tuple(record), record[4])
            for object_id, record in entries
        ]
        if mutations:
            self._table.batch_write(mutations)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def latest(self, object_id: ObjectId) -> Optional[LocationRecord]:
        """Most recent record of ``object_id`` or ``None`` when unknown."""
        value = self._table.read_latest(object_id, FRESH_FAMILY, RECORD_QUALIFIER)
        return None if value is None else tuple.__new__(LocationRecord, value)

    def recent_history(self, object_id: ObjectId) -> List[LocationRecord]:
        """All in-memory records of ``object_id``, newest first."""
        cells = self._table.read_versions(object_id, FRESH_FAMILY, RECORD_QUALIFIER)
        return [tuple.__new__(LocationRecord, cell.value) for cell in cells]

    def batch_latest(
        self, object_ids: Sequence[ObjectId]
    ) -> Dict[ObjectId, LocationRecord]:
        """Latest records of several objects in one batch read."""
        rows = self._table.batch_read(object_ids, family=FRESH_FAMILY)
        return {
            object_id: tuple.__new__(LocationRecord, columns[RECORD_QUALIFIER])
            for object_id, columns in rows.items()
            if RECORD_QUALIFIER in columns
        }

    def aged_history(self, object_id: ObjectId) -> List[LocationRecord]:
        """Records of ``object_id`` living in the disk columns, newest first."""
        records: List[LocationRecord] = []
        try:
            row = self._table.read_row(object_id)
        except RowNotFoundError:
            return records
        for index in range(self.disk_columns):
            cells = row.get(self.disk_family(index), {}).get(RECORD_QUALIFIER, [])
            records.extend(tuple.__new__(LocationRecord, cell.value) for cell in cells)
        records.sort(key=lambda record: record.timestamp, reverse=True)
        return records

    def full_history(self, object_id: ObjectId) -> List[LocationRecord]:
        """In-memory plus on-disk records of ``object_id``, newest first."""
        records = self.recent_history(object_id) + self.aged_history(object_id)
        records.sort(key=lambda record: record.timestamp, reverse=True)
        return records

    # ------------------------------------------------------------------
    # Aging
    # ------------------------------------------------------------------
    def age_out(self, cutoff_timestamp: float) -> int:
        """Move fresh records older than the cutoff into the first disk column.

        Returns the number of records moved.  The PPP archiver drains disk
        columns separately (Section 3.5).
        """
        return self._table.age_out(
            FRESH_FAMILY, self.disk_family(0), cutoff_timestamp
        )

    def drain_aged(
        self, disk_index: int, cutoff_timestamp: float
    ) -> List[tuple]:
        """Remove records older than the cutoff from a disk column and return
        them as ``(object_id, record)`` pairs.

        This is the hand-off point to the PPP archiver: once a record leaves
        the last disk column it only exists in the archive (Section 3.5).
        Charged as one scan plus one batch write over the affected rows.
        """
        family = self.disk_family(disk_index)
        drained: List[tuple] = []
        rewrites: List[tuple] = []
        for object_id, columns in self._table.scan(
            None, None, family=family, versions=True
        ):
            cells = columns.get(RECORD_QUALIFIER, ())
            aged = [cell for cell in cells if cell.timestamp < cutoff_timestamp]
            if not aged:
                continue
            for cell in aged:
                drained.append((object_id, tuple.__new__(LocationRecord, cell.value)))
            rewrites.append((object_id, cutoff_timestamp))
        # The rewrite loop manages its own storage charging (one batch write
        # below); batch its commit-log fsync accounting the same way —
        # without this every rewritten cell would bill an individual fsync.
        with self._table.deferred_log_syncs():
            for object_id, cutoff in rewrites:
                kept = [
                    cell
                    for cell in self._table.read_versions(
                        object_id, family, RECORD_QUALIFIER, _charge=False
                    )
                    if cell.timestamp >= cutoff
                ]
                self._table.delete_cell(
                    object_id, family, RECORD_QUALIFIER, _charge=False
                )
                for cell in reversed(kept):
                    self._table.write(
                        object_id,
                        family,
                        RECORD_QUALIFIER,
                        cell.value,
                        cell.timestamp,
                        _charge=False,
                    )
        if rewrites:
            self._table.counter.record(OpKind.BATCH_WRITE, rows=len(rewrites))
        return drained

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def object_count(self) -> int:
        """Number of objects with at least one record."""
        return self._table.row_count()
