"""Region (range) queries over the Spatial Index Table.

The paper's applications need more than k-NN: the realtime-coupon scenario
("customers within 1,000 meters", Section 5) and location-based history
analysis are range queries over an arbitrary region.  A region query
approximates the region by a union of cells (Section 3.2.1), coalesces
curve-adjacent cells into contiguous key ranges, scans each range once, and
finally filters the retrieved leaders/followers against the exact region.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot
from typing import List, Optional

from repro.core.config import MoistConfig
from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.model import NeighborResult
from repro.spatial.covering import cover_box, cover_circle
from repro.tables.affiliation_table import AffiliationTable
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable


@dataclass
class RegionQueryStats:
    """Work accounting of one region query."""

    cells_covered: int = 0
    leaders_scanned: int = 0
    followers_considered: int = 0
    results: int = 0


class RegionSearcher:
    """Executes rectangular and circular range queries."""

    def __init__(
        self,
        config: MoistConfig,
        spatial_table: SpatialIndexTable,
        affiliation_table: AffiliationTable,
        location_table: LocationTable,
    ) -> None:
        self.config = config
        self.spatial_table = spatial_table
        self.affiliation_table = affiliation_table
        self.location_table = location_table

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def objects_in_box(
        self,
        region: BoundingBox,
        at_time: Optional[float] = None,
        include_followers: bool = True,
        cover_level: Optional[int] = None,
        stats: Optional[RegionQueryStats] = None,
    ) -> List[NeighborResult]:
        """Every indexed object currently inside ``region``.

        ``at_time`` enables dead-reckoning of leaders to the query time;
        distances in the returned results are measured from the region
        centre so callers can rank hits without recomputing.  Note that the
        predictive variant extrapolates the objects found in the covered
        cells — an object far outside the region that *would* enter it by
        ``at_time`` is not discovered (callers who need that expand the
        region by the maximum expected displacement first).
        """
        level = self._cover_level(region, cover_level)
        cells = cover_box(region, level, self.config.world)
        return self._collect(cells, region, None, at_time, include_followers, stats)

    def objects_in_circle(
        self,
        center: Point,
        radius: float,
        at_time: Optional[float] = None,
        include_followers: bool = True,
        cover_level: Optional[int] = None,
        stats: Optional[RegionQueryStats] = None,
    ) -> List[NeighborResult]:
        """Every indexed object within ``radius`` of ``center``."""
        if radius <= 0:
            raise QueryError("radius must be positive")
        box = BoundingBox.from_center(center, radius, radius)
        level = self._cover_level(box, cover_level)
        cells = cover_circle(center, radius, level, self.config.world)
        return self._collect(
            cells, box, (center, radius), at_time, include_followers, stats
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cover_level(self, region: BoundingBox, cover_level: Optional[int]) -> int:
        if cover_level is not None:
            if not 1 <= cover_level <= self.config.storage_level:
                raise QueryError(
                    f"cover_level must be in [1, {self.config.storage_level}]"
                )
            return cover_level
        # Pick a level whose cells are comparable to the region size so the
        # covering stays small (a handful of range scans) without scanning
        # far beyond the region.
        extent = max(region.width, region.height, 1e-9)
        level = self.config.default_nn_level
        world_extent = max(self.config.world.width, self.config.world.height)
        while level > 1 and world_extent / (1 << level) < extent / 2:
            level -= 1
        return level

    def _collect(
        self,
        cells,
        box: BoundingBox,
        circle,
        at_time: Optional[float],
        include_followers: bool,
        stats: Optional[RegionQueryStats],
    ) -> List[NeighborResult]:
        if stats is None:
            stats = RegionQueryStats()
        stats.cells_covered = len(cells)
        center = box.center()
        center_x = center.x
        center_y = center.y
        results: List[NeighborResult] = []
        seen = set()
        for cell in cells:
            # Bare (x, y) pairs throughout, as the tables store them; a Point
            # and a NeighborResult are built for the hits only.
            leaders = self.spatial_table.objects_in_cell(cell)
            stats.leaders_scanned += len(leaders)
            positions = dict(leaders)
            if at_time is not None and leaders:
                records = self.location_table.batch_latest(list(leaders))
                for object_id, (x, y, dx, dy, timestamp) in records.items():
                    elapsed = at_time - timestamp
                    positions[object_id] = (x + dx * elapsed, y + dy * elapsed)
            candidates = [
                (object_id, x, y, None) for object_id, (x, y) in positions.items()
            ]
            if include_followers and leaders:
                follower_info = self.affiliation_table.batch_followers(list(leaders))
                for leader_id, followers in follower_info.items():
                    leader_x, leader_y = positions[leader_id]
                    stats.followers_considered += len(followers)
                    for follower_id, (dx, dy) in followers.items():
                        candidates.append(
                            (follower_id, leader_x + dx, leader_y + dy, leader_id)
                        )
            for object_id, x, y, leader_id in candidates:
                if object_id in seen:
                    continue
                if circle is not None:
                    circle_center, radius = circle
                    inside = hypot(x - circle_center.x, y - circle_center.y) <= radius
                else:
                    inside = (
                        box.min_x <= x <= box.max_x and box.min_y <= y <= box.max_y
                    )
                if not inside:
                    continue
                seen.add(object_id)
                results.append(
                    NeighborResult(
                        object_id=object_id,
                        location=Point(x, y),
                        distance=hypot(x - center_x, y - center_y),
                        is_leader=leader_id is None,
                        leader_id=leader_id,
                    )
                )
        results.sort(key=lambda item: (item.distance, item.object_id))
        stats.results = len(results)
        return results
