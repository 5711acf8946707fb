"""In-memory stand-in for the parallel archival disks.

Each :class:`DiskSegment` is one flushed buffer page: an append-only list of
archived records together with the flush timestamp.  A :class:`DiskArray`
holds ``nd`` independent disks and lets history queries measure how many
segments (i.e. how many seeks) they had to touch — the read-amplification
metric behind the paper's ``Rd`` read-resolution argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from repro.disk.model import DiskModel
from repro.errors import ArchiveError
from repro.model import HistoryRecord


@dataclass
class DiskSegment:
    """One flushed buffer page living on a single disk."""

    disk_index: int
    flush_time: float
    records: List[HistoryRecord] = field(default_factory=list)


class DiskArray:
    """``nd`` independent archival disks."""

    def __init__(self, num_disks: int, model: DiskModel = DiskModel()) -> None:
        if num_disks <= 0:
            raise ArchiveError(f"a disk array needs at least one disk, got {num_disks}")
        self.num_disks = num_disks
        self.model = model
        self._segments: Dict[int, List[DiskSegment]] = {
            index: [] for index in range(num_disks)
        }
        #: Simulated seconds spent flushing, per disk.
        self.flush_seconds: Dict[int, float] = {index: 0.0 for index in range(num_disks)}

    def flush(
        self,
        disk_index: int,
        records: Sequence[HistoryRecord],
        flush_time: float,
        record_bytes: int = 64,
    ) -> DiskSegment:
        """Append a segment of ``records`` to one disk and charge flush time."""
        if not 0 <= disk_index < self.num_disks:
            raise ArchiveError(
                f"disk index {disk_index} out of range for {self.num_disks} disks"
            )
        segment = DiskSegment(
            disk_index=disk_index, flush_time=flush_time, records=list(records)
        )
        self._segments[disk_index].append(segment)
        self.flush_seconds[disk_index] += self.model.flush_time(
            buffer_bytes=len(records) * record_bytes, num_disks=1
        )
        return segment

    def segments(self, disk_index: int) -> List[DiskSegment]:
        """All segments flushed to one disk, in flush order."""
        if not 0 <= disk_index < self.num_disks:
            raise ArchiveError(
                f"disk index {disk_index} out of range for {self.num_disks} disks"
            )
        return list(self._segments[disk_index])

    def all_segments(self) -> Iterator[DiskSegment]:
        """Every segment across every disk."""
        for disk_index in range(self.num_disks):
            for segment in self._segments[disk_index]:
                yield segment

    def segment_count(self) -> int:
        """Total number of segments across all disks."""
        return sum(len(segments) for segments in self._segments.values())
