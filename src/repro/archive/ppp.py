"""The Parallel Ping-Pong archiver (Section 3.6)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.archive.buffer import PingPongBuffer
from repro.archive.placement import PlacementHash
from repro.disk.array import DiskArray
from repro.disk.model import DiskModel
from repro.errors import ArchiveError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.model import HistoryRecord, ObjectId
from repro.spatial.cell import WORLD_UNIT_BOX


@dataclass
class ArchiveStats:
    """Counters describing archiver activity and query locality."""

    records_archived: int = 0
    pages_flushed: int = 0
    object_queries: int = 0
    region_queries: int = 0
    segments_scanned: int = 0
    records_scanned: int = 0

    def segments_per_query(self) -> float:
        """Mean number of disk segments touched per history query.

        This is the read-amplification proxy for the paper's read-resolution
        argument ``Rd``.
        """
        queries = self.object_queries + self.region_queries
        if queries == 0:
            return 0.0
        return self.segments_scanned / queries


@dataclass
class PPPArchiver:
    """Drains aged location records onto parallel disks, ping-pong style."""

    num_disks: int = 4
    page_records: int = 256
    record_bytes: int = 64
    world: BoundingBox = field(default_factory=lambda: WORLD_UNIT_BOX)
    disk_model: DiskModel = field(default_factory=DiskModel)
    use_initial_location: bool = True

    def __post_init__(self) -> None:
        if self.num_disks <= 0:
            raise ArchiveError("the archiver needs at least one disk")
        if self.page_records <= 0:
            raise ArchiveError("page_records must be positive")
        if self.record_bytes <= 0:
            raise ArchiveError("record_bytes must be positive")
        self.placement = PlacementHash(
            num_disks=self.num_disks,
            world=self.world,
            use_initial_location=self.use_initial_location,
        )
        self.disks = DiskArray(self.num_disks, model=self.disk_model)
        self._buffers: Dict[int, PingPongBuffer] = {
            index: PingPongBuffer(self.page_records) for index in range(self.num_disks)
        }
        self._home_disk: Dict[ObjectId, int] = {}
        self.stats = ArchiveStats()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def register_object(self, object_id: ObjectId, initial_location: Point) -> int:
        """Fix the object's home disk from its initial location.

        Idempotent: re-registering an object keeps its original disk, which
        is what guarantees "any object's archived data are always located on
        the same disk".
        """
        if object_id not in self._home_disk:
            self._home_disk[object_id] = self.placement.disk_for(
                object_id, initial_location
            )
        return self._home_disk[object_id]

    def archive(self, record: HistoryRecord, now: float) -> Optional[int]:
        """Buffer one aged record; flush the page if the buffer filled up.

        Returns the disk index that received a flush, or ``None`` when the
        record only landed in a memory buffer.
        """
        disk_index = self.register_object(record.object_id, record.location)
        page = self._buffers[disk_index].append(record, now)
        self.stats.records_archived += 1
        if page is None:
            return None
        self._flush_page(disk_index, page, now)
        return disk_index

    def flush_all(self, now: float) -> int:
        """Force every partially filled buffer onto its disk (shutdown)."""
        flushed = 0
        for disk_index, buffer in self._buffers.items():
            page = buffer.drain()
            if page:
                self._flush_page(disk_index, page, now)
                flushed += 1
        return flushed

    def _flush_page(self, disk_index: int, page: List[HistoryRecord], now: float) -> None:
        self.disks.flush(
            disk_index, page, flush_time=now, record_bytes=self.record_bytes
        )
        self.stats.pages_flushed += 1

    # ------------------------------------------------------------------
    # History queries
    # ------------------------------------------------------------------
    def object_history(
        self,
        object_id: ObjectId,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
    ) -> List[HistoryRecord]:
        """Archived records of one object, oldest first.

        Only the object's home disk is scanned — the object-locality
        guarantee of the placement hash.
        """
        self.stats.object_queries += 1
        disk_index = self._home_disk.get(object_id)
        if disk_index is None:
            return []
        results: List[HistoryRecord] = []
        for segment in self.disks.segments(disk_index):
            self.stats.segments_scanned += 1
            for record in segment.records:
                self.stats.records_scanned += 1
                if record.object_id != object_id:
                    continue
                if not _in_window(record.timestamp, start_time, end_time):
                    continue
                results.append(record)
        results.sort(key=lambda record: record.timestamp)
        return results

    def region_history(
        self,
        region: BoundingBox,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
    ) -> List[HistoryRecord]:
        """Archived records whose location falls inside ``region``."""
        self.stats.region_queries += 1
        results: List[HistoryRecord] = []
        for segment in self.disks.all_segments():
            self.stats.segments_scanned += 1
            for record in segment.records:
                self.stats.records_scanned += 1
                if not region.contains_point(record.location):
                    continue
                if not _in_window(record.timestamp, start_time, end_time):
                    continue
                results.append(record)
        results.sort(key=lambda record: (record.timestamp, record.object_id))
        return results

    # ------------------------------------------------------------------
    # Capacity analysis
    # ------------------------------------------------------------------
    def buffer_bytes(self) -> int:
        """Total primary-buffer capacity ``sB = s_rec * page_records * nd``."""
        return self.record_bytes * self.page_records * self.num_disks

    def flush_time_per_page(self) -> float:
        """``Td`` for one per-disk page under the configured disk model."""
        return self.disk_model.flush_time(
            buffer_bytes=self.record_bytes * self.page_records, num_disks=1
        )

    def double_buffering_is_sound(self) -> Tuple[bool, Optional[float], float]:
        """Check the paper's constraint ``min Tm >= max Td``.

        Returns ``(is_sound, min_fill_time, flush_time)`` where the fill time
        is ``None`` until at least one page has filled on some disk.
        """
        fill_times = [
            buffer.min_fill_time()
            for buffer in self._buffers.values()
            if buffer.min_fill_time() is not None
        ]
        min_fill = min(fill_times) if fill_times else None
        flush = self.flush_time_per_page()
        if min_fill is None:
            return True, None, flush
        return min_fill >= flush, min_fill, flush


def _in_window(
    timestamp: float, start_time: Optional[float], end_time: Optional[float]
) -> bool:
    if start_time is not None and timestamp < start_time:
        return False
    if end_time is not None and timestamp > end_time:
        return False
    return True
