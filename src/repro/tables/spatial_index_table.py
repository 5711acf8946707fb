"""The Spatial Index Table (Section 3.2.1).

Row key: the Hilbert-curve key of the storage-level cell containing an
object.  Columns: one qualifier per object id under the ``id`` family (the
paper's Figure 5 splits ids into category families such as "Bus" and "User";
every object here has the one category).  Only *leaders* are stored here
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

Mutations take a location and derive its row key directly, through the one
encoder :func:`~repro.spatial.cell.row_key_encoder` built for this table's
storage level and world when the table is constructed (which is also where a
bad level or a world without extent is rejected).  Nothing on the write path
is cached: uniform traffic never repeats a location.  Reads take a
:class:`~repro.spatial.cell.CellId`, whose key range the query side memoizes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.bigtable.emulator import BigtableEmulator
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import Tablet
from repro.errors import SchemaError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.model import ObjectId
from repro.spatial.cell import CellId, WORLD_UNIT_BOX, row_key_encoder

#: Column family for object-id columns.
ID_FAMILY = "id"


class SpatialIndexTable:
    """Wrapper around the BigTable table keyed by spatial index."""

    def __init__(
        self,
        emulator: BigtableEmulator,
        name: str = "spatial_index",
        storage_level: int = 16,
        world: BoundingBox = WORLD_UNIT_BOX,
    ) -> None:
        if storage_level <= 0:
            raise SchemaError("storage_level must be positive")
        self.storage_level = storage_level
        self.world = world
        self._row_key = row_key_encoder(storage_level, world)
        self._table = emulator.create_table(
            name, [ColumnFamily(ID_FAMILY, in_memory=True, max_versions=1)]
        )

    @property
    def table(self) -> Table:
        """The backing BigTable table (tablet routing / group commits)."""
        return self._table

    # ------------------------------------------------------------------
    # Key helpers
    # ------------------------------------------------------------------
    def row_key_for(self, location: Point) -> str:
        """Row key of the storage-level cell containing ``location`` (the
        interned token that cell's ``key_range()[0]`` returns)."""
        return self._row_key(location.x, location.y)

    def tablet_for_location(self, location: Point) -> Tablet:
        """The spatial-index tablet owning ``location``'s storage row.

        The server layer pins query batches to the front-end that owns
        this tablet (``ServerCluster.submit_query_batch``).
        """
        return self._table.tablet_for_key(self.row_key_for(location))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add(self, object_id: ObjectId, location: Point, timestamp: float) -> str:
        """Insert (or move within the same cell) an object at ``location``;
        returns the row key it is stored under."""
        x = location.x
        y = location.y
        row_key = self._row_key(x, y)
        self._table.write(row_key, ID_FAMILY, object_id, (x, y), timestamp)
        return row_key

    def remove(self, object_id: ObjectId, location: Point) -> bool:
        """Remove an object from the cell containing ``location``."""
        return self._table.delete_cell(self.row_key_for(location), ID_FAMILY, object_id)

    def move(
        self,
        object_id: ObjectId,
        old_location: Optional[Iterable[float]],
        new_location: Point,
        timestamp: float,
    ) -> Tuple[Optional[str], str]:
        """Algorithm 1 line 3: delete the old spatial-index entry, add the new.

        When the object stays inside the same storage cell the delete is
        skipped and the existing column value is simply overwritten.
        ``old_location`` is a ``Point`` or a stored ``(x, y)`` pair.
        Returns ``(old_row_key, new_row_key)``.
        """
        x = new_location.x
        y = new_location.y
        new_key = self._row_key(x, y)
        old_key = None
        if old_location is not None:
            old_x, old_y = old_location
            old_key = self._row_key(old_x, old_y)
            if old_key != new_key:
                self._table.delete_cell(old_key, ID_FAMILY, object_id)
        self._table.write(new_key, ID_FAMILY, object_id, (x, y), timestamp)
        return old_key, new_key

    def batch_remove(self, entries: Sequence[Tuple[ObjectId, Point]]) -> None:
        """Batch-delete several objects (used by the clustering pass)."""
        row_key = self._row_key
        deletes = [
            (row_key(location.x, location.y), ID_FAMILY, object_id)
            for object_id, location in entries
        ]
        if deletes:
            self._table.batch_delete(deletes)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def objects_in_cell(self, cell: CellId, trace=None) -> Dict[ObjectId, Tuple[float, float]]:
        """Objects stored under any storage-level row inside ``cell``, as
        ``object id -> (x, y)``.

        ``cell`` may be at the storage level (single row) or coarser (range
        scan over the cell's contiguous key range) — the access path behind
        both NN cells (Section 3.4.1) and clustering cells (Section 3.3.2).
        The key-range scan executes through the tablet scanner, so repeated
        probes of a quiet cell are priced through the block cache; ``trace``
        collects the scan's charges (:meth:`Table.replay_scan`).
        """
        start, end = cell.key_range()
        results: Dict[ObjectId, Tuple[float, float]] = {}
        for _, objects in self._table.scan(start, end, family=ID_FAMILY, trace=trace):
            results.update(objects)
        return results

    def count_in_cell(self, cell: CellId) -> int:
        """Number of objects indexed inside ``cell``.

        Used by FLAG to probe local density (Algorithm 3, line 6).  Counts
        rows' columns via a metadata-priced scan.
        """
        start, end = cell.key_range()
        rows = self._table.scan(start, end, family=ID_FAMILY)
        return sum(len(objects) for _, objects in rows)

    def approximate_count_in_cell(self, cell: CellId) -> int:
        """Cheap density probe: number of non-empty storage rows in ``cell``.

        FLAG only needs an order-of-magnitude estimate; counting rows avoids
        streaming the row contents.
        """
        start, end = cell.key_range()
        return self._table.count_range(start, end)

    def total_objects(self) -> int:
        """Total number of indexed objects (administrative helper)."""
        rows = self._table.scan(None, None, family=ID_FAMILY)
        return sum(len(objects) for _, objects in rows)
