"""History queries over in-memory, on-disk-column and archived records.

Section 3.5 motivates keeping ``m`` recent records per object in memory (for
travel-path rendering, Viterbi smoothing, prediction) while aged data goes to
the disk columns and eventually to the PPP archive.  The engine here answers
the two query shapes the paper calls out — *by object* and *by location* —
against all three tiers and also offers the "points of interest" aggregation
mentioned as the motivating mining application.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.archive.ppp import PPPArchiver
from repro.core.config import MoistConfig
from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.model import HistoryRecord, LocationRecord, ObjectId
from repro.spatial.cell import CellId
from repro.tables.location_table import LocationTable


class HistoryQueryEngine:
    """Answers object-based and location-based history queries."""

    def __init__(
        self,
        config: MoistConfig,
        location_table: LocationTable,
        archiver: Optional[PPPArchiver] = None,
    ) -> None:
        self.config = config
        self.location_table = location_table
        self.archiver = archiver

    # ------------------------------------------------------------------
    # Object-based history
    # ------------------------------------------------------------------
    def object_history(
        self,
        object_id: ObjectId,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
    ) -> List[HistoryRecord]:
        """Every known observation of one object, oldest first."""
        if start_time is not None and end_time is not None and start_time > end_time:
            raise QueryError("start_time must not exceed end_time")
        records = [
            _to_history(object_id, record)
            for record in self.location_table.full_history(object_id)
        ]
        if self.archiver is not None:
            records.extend(self.archiver.object_history(object_id, start_time, end_time))
        filtered = [
            record
            for record in records
            if _in_window(record.timestamp, start_time, end_time)
        ]
        filtered.sort(key=lambda record: record.timestamp)
        return _dedupe(filtered)

    # ------------------------------------------------------------------
    # Location-based history
    # ------------------------------------------------------------------
    def region_history(
        self,
        region: BoundingBox,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
    ) -> List[HistoryRecord]:
        """Archived observations that fall inside ``region``."""
        if self.archiver is None:
            return []
        return self.archiver.region_history(region, start_time, end_time)

    def popular_cells(
        self,
        level: int,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
        top_n: int = 10,
    ) -> List[Dict[str, object]]:
        """Most-visited level-``level`` cells (the "points of interest" miner).

        Returns at most ``top_n`` entries of the form
        ``{"cell": CellId, "visits": int}`` ordered by decreasing visits.
        """
        if top_n <= 0:
            raise QueryError("top_n must be positive")
        if self.archiver is None:
            return []
        counter: Counter = Counter()
        records = self.archiver.region_history(self.config.world, start_time, end_time)
        for record in records:
            cell = CellId.from_point(record.location, level, self.config.world)
            counter[cell] += 1
        return [
            {"cell": cell, "visits": visits}
            for cell, visits in counter.most_common(top_n)
        ]


def _to_history(object_id: ObjectId, record: LocationRecord) -> HistoryRecord:
    return HistoryRecord(
        object_id=object_id,
        location=record.location,
        velocity=record.velocity,
        timestamp=record.timestamp,
    )


def _in_window(
    timestamp: float, start_time: Optional[float], end_time: Optional[float]
) -> bool:
    if start_time is not None and timestamp < start_time:
        return False
    if end_time is not None and timestamp > end_time:
        return False
    return True


def _dedupe(records: List[HistoryRecord]) -> List[HistoryRecord]:
    """Collapse duplicate (object, timestamp) observations across tiers."""
    seen = set()
    unique: List[HistoryRecord] = []
    for record in records:
        key = (record.object_id, record.timestamp)
        if key in seen:
            continue
        seen.add(key)
        unique.append(record)
    return unique
