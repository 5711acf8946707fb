"""The Spatial Index Table (Section 3.2.1).

Row key: the Hilbert-curve key of the storage-level cell containing an
object.  Columns: one qualifier per object id stored under a category family
(the paper's Figure 5 shows "Bus" and "User" columns; we default everything
to the ``id`` family but allow a category).  Only *leaders* are stored here
once object schools are active (Section 3.1.3).

What a cell value is at rest — an exact ``tuple`` of atoms, which the cycle
collector stops tracking (see :mod:`repro.bigtable.table`) — and at the edge:

============  ==========  ===================================================
column        at rest     at the edge
============  ==========  ===================================================
``id:<oid>``  ``(x, y)``  the stored pair (``objects_in_cell``): NN probes,
                          clustering and region queries rank on bare
                          coordinates and build a ``Point`` per result only
============  ==========  ===================================================
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.bigtable.backend import StorageBackend
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import Tablet
from repro.errors import SchemaError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.model import ObjectId
from repro.spatial.cell import CellId, WORLD_UNIT_BOX

#: Default column family for object-id columns.
ID_FAMILY = "id"

#: Bound on the per-table location -> storage-cell memo.  8k entries cover a
#: whole client batch of repeated object locations many times over; when the
#: memo fills it is simply dropped (re-deriving a cell is cheap, keeping an
#: LRU order is not).
_CELL_MEMO_MAX = 8192


class SpatialIndexTable:
    """Wrapper around the BigTable table keyed by spatial index."""

    def __init__(
        self,
        emulator: StorageBackend,
        name: str = "spatial_index",
        storage_level: int = 16,
        world: BoundingBox = WORLD_UNIT_BOX,
        extra_families: Sequence[str] = (),
    ) -> None:
        if storage_level <= 0:
            raise SchemaError("storage_level must be positive")
        self.storage_level = storage_level
        self.world = world
        families = [ColumnFamily(ID_FAMILY, in_memory=True, max_versions=1)]
        families.extend(
            ColumnFamily(extra, in_memory=True, max_versions=1)
            for extra in extra_families
        )
        self._table = emulator.create_table(name, families)
        #: Memo of ``(x, y) -> CellId`` for the fixed storage level/world of
        #: this table.  One update message derives its storage cell several
        #: times on the way down (server routing, the spatial-index write,
        #: the move's old-cell lookup), and every derivation inside a commit
        #: buffer or a :class:`~repro.core.nn_search.QueryBatchContext`
        #: repeats locations across messages; the memo collapses them all to
        #: a dict hit.  Entries never go stale — the mapping is a pure
        #: function of the location.
        self._cell_memo: Dict[Tuple[float, float], CellId] = {}

    @property
    def table(self) -> Table:
        """The backing BigTable table (tablet routing / group commits)."""
        return self._table

    # ------------------------------------------------------------------
    # Key helpers
    # ------------------------------------------------------------------
    def cell_for(self, location: Point) -> CellId:
        """Storage-level cell containing ``location`` (memoized)."""
        return self._cell_at((location.x, location.y))

    def _cell_at(self, xy: Tuple[float, float]) -> CellId:
        memo = self._cell_memo
        cell = memo.get(xy)
        if cell is None:
            cell = CellId.from_xy(xy[0], xy[1], self.storage_level, self.world)
            if len(memo) >= _CELL_MEMO_MAX:
                memo.clear()
            memo[xy] = cell
        return cell

    def row_key_for(self, location: Point) -> str:
        """Row key of the storage-level cell containing ``location``.

        Both hops are cached: the cell through the table's location memo and
        the key token through the cell codec cache (interned strings).
        """
        return self.cell_for(location).key()

    def tablet_for_location(self, location: Point) -> Tablet:
        """The spatial-index tablet owning ``location``'s storage row.

        The server layer pins query batches to the front-end that owns
        this tablet (``ServerCluster.submit_query_batch``).
        """
        return self._table.tablet_for_key(self.row_key_for(location))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add(
        self,
        object_id: ObjectId,
        location: Point,
        timestamp: float,
        family: str = ID_FAMILY,
    ) -> CellId:
        """Insert (or move within the same cell) an object at ``location``."""
        xy = (location.x, location.y)
        cell = self._cell_at(xy)
        self._table.write(cell.key(), family, object_id, xy, timestamp)
        return cell

    def remove(
        self, object_id: ObjectId, location: Point, family: str = ID_FAMILY
    ) -> bool:
        """Remove an object from the cell containing ``location``."""
        cell = self.cell_for(location)
        return self._table.delete_cell(cell.key(), family, object_id)

    def remove_from_cell(
        self, object_id: ObjectId, cell: CellId, family: str = ID_FAMILY
    ) -> bool:
        """Remove an object from an explicitly known cell."""
        return self._table.delete_cell(cell.key(), family, object_id)

    def move(
        self,
        object_id: ObjectId,
        old_location: Optional[Iterable[float]],
        new_location: Point,
        timestamp: float,
        family: str = ID_FAMILY,
    ) -> Tuple[Optional[CellId], CellId]:
        """Algorithm 1 line 3: delete the old spatial-index entry, add the new.

        When the object stays inside the same storage cell the delete is
        skipped and the existing column value is simply overwritten.
        ``old_location`` is a ``Point`` or a stored ``(x, y)`` pair.
        Returns ``(old_cell, new_cell)``.
        """
        new_xy = (new_location.x, new_location.y)
        new_cell = self._cell_at(new_xy)
        old_cell = None
        if old_location is not None:
            old_cell = self._cell_at(tuple(old_location))
            if old_cell != new_cell:
                self._table.delete_cell(old_cell.key(), family, object_id)
        self._table.write(new_cell.key(), family, object_id, new_xy, timestamp)
        return old_cell, new_cell

    def batch_remove(
        self, entries: Sequence[Tuple[ObjectId, Point]], family: str = ID_FAMILY
    ) -> None:
        """Batch-delete several objects (used by the clustering pass)."""
        deletes = [
            (self.cell_for(location).key(), family, object_id)
            for object_id, location in entries
        ]
        if deletes:
            self._table.batch_delete(deletes)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def objects_in_cell(
        self, cell: CellId, family: str = ID_FAMILY
    ) -> Dict[ObjectId, Tuple[float, float]]:
        """Objects stored under any storage-level row inside ``cell``, as
        ``object id -> (x, y)``.

        ``cell`` may be at the storage level (single row) or coarser (range
        scan over the cell's contiguous key range) — the access path behind
        both NN cells (Section 3.4.1) and clustering cells (Section 3.3.2).
        The key-range scan executes through the tablet scanner, so repeated
        probes of a quiet cell are priced through the block cache.
        """
        start, end = cell.key_range()
        results: Dict[ObjectId, Tuple[float, float]] = {}
        for _, objects in self._table.scan(start, end, family=family):
            results.update(objects)
        return results

    def count_in_cell(self, cell: CellId, family: str = ID_FAMILY) -> int:
        """Number of objects indexed inside ``cell``.

        Used by FLAG to probe local density (Algorithm 3, line 6).  Counts
        rows' columns via a metadata-priced scan.
        """
        start, end = cell.key_range()
        rows = self._table.scan(start, end, family=family)
        return sum(len(objects) for _, objects in rows)

    def approximate_count_in_cell(self, cell: CellId) -> int:
        """Cheap density probe: number of non-empty storage rows in ``cell``.

        FLAG only needs an order-of-magnitude estimate; counting rows avoids
        streaming the row contents.
        """
        start, end = cell.key_range()
        return self._table.count_range(start, end)

    def total_objects(self, family: str = ID_FAMILY) -> int:
        """Total number of indexed objects (administrative helper)."""
        rows = self._table.scan(None, None, family=family)
        return sum(len(objects) for _, objects in rows)

    def row_count(self) -> int:
        """Number of non-empty storage cells."""
        return self._table.row_count()
