"""Lazy, periodic school clustering (Section 3.3.2).

Clustering runs per *clustering cell* — a cell several levels coarser than
the storage cells, whose storage rows form one contiguous key range and can
therefore be fetched with a single batch/range read.  Within a cell the pass
is O(n): every leader is hashed into a hexagonal velocity bin (O(1)), leaders
sharing a bin are merged into one school, and the resulting Affiliation /
Spatial-Index rewrites are applied in batched RPCs.

The pass records three latency components — read, computation and write —
matching the breakdown of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.bigtable.cost import OpCounter
from repro.core.config import MoistConfig
from repro.core.hexgrid import HexGrid
from repro.errors import ClusteringError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import ObjectId
from repro.spatial.cell import CellId, MAX_LEVEL
from repro.tables.affiliation_table import AffiliationTable, LFRecord, Role
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable


@dataclass
class ClusteringReport:
    """Latency breakdown and merge statistics of one clustering pass."""

    cells_processed: int = 0
    leaders_before: int = 0
    leaders_after: int = 0
    followers_reassigned: int = 0
    read_seconds: float = 0.0
    compute_seconds: float = 0.0
    write_seconds: float = 0.0

    @property
    def merges(self) -> int:
        """Number of leaders absorbed into other schools."""
        return self.leaders_before - self.leaders_after

    @property
    def total_seconds(self) -> float:
        """Total simulated per-clustering latency."""
        return self.read_seconds + self.compute_seconds + self.write_seconds

    def merge_in(self, other: "ClusteringReport") -> None:
        """Accumulate another report (used when clustering many cells)."""
        self.cells_processed += other.cells_processed
        self.leaders_before += other.leaders_before
        self.leaders_after += other.leaders_after
        self.followers_reassigned += other.followers_reassigned
        self.read_seconds += other.read_seconds
        self.compute_seconds += other.compute_seconds
        self.write_seconds += other.write_seconds


@dataclass(frozen=True)
class _MergePlan:
    """One absorbed leader and the rewrites it entails."""

    survivor_id: ObjectId
    absorbed_id: ObjectId
    survivor_location: Tuple[float, float]
    absorbed_location: Tuple[float, float]
    absorbed_followers: Dict[ObjectId, Tuple[float, float]]


class SchoolClusterer:
    """Runs the periodic clustering pass over clustering cells."""

    def __init__(
        self,
        config: MoistConfig,
        location_table: LocationTable,
        spatial_table: SpatialIndexTable,
        affiliation_table: AffiliationTable,
        counter: OpCounter,
    ) -> None:
        self.config = config
        self.location_table = location_table
        self.spatial_table = spatial_table
        self.affiliation_table = affiliation_table
        self.counter = counter
        self.hexgrid = HexGrid(max_deviation=config.velocity_threshold)
        #: Per-clustering-cell timestamp of the last pass, used by
        #: :meth:`due_cells` to honour the clustering interval Tc.
        self._last_run: Dict[CellId, float] = {}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def occupied_clustering_cells(self) -> List[CellId]:
        """Clustering cells that currently contain at least one leader.

        Derived from a keys-only scan of the Spatial Index Table: each
        storage row key is lifted to its ancestor at the clustering level.
        The lift works on raw curve positions — parsing the hex token and
        shifting straight to the clustering level skips the two
        intermediate ``CellId`` constructions per row that
        ``from_token(...).parent(...)`` would pay (the table wrote these
        keys itself, so per-key alignment re-validation buys nothing).
        """
        keys = self.spatial_table._table.scan_keys()
        level = self.config.clustering_cell_level
        shift = 2 * (MAX_LEVEL - level)
        positions: Set[int] = {int(key, 16) >> shift for key in keys}
        return [CellId(level, pos) for pos in sorted(positions)]

    def due_cells(self, now: float) -> List[CellId]:
        """Occupied clustering cells whose interval Tc has elapsed."""
        due = []
        for cell in self.occupied_clustering_cells():
            last = self._last_run.get(cell)
            if last is None or now - last >= self.config.clustering_interval_s:
                due.append(cell)
        return due

    # ------------------------------------------------------------------
    # Clustering
    # ------------------------------------------------------------------
    def cluster_cell(self, clustering_cell: CellId, now: float) -> ClusteringReport:
        """Cluster the leaders of one clustering cell.

        The three phases (read / computation / write) are measured
        separately by snapshotting the shared operation counter.
        """
        if clustering_cell.level != self.config.clustering_cell_level:
            raise ClusteringError(
                f"expected a level-{self.config.clustering_cell_level} clustering "
                f"cell, got level {clustering_cell.level}"
            )
        report = ClusteringReport(cells_processed=1)
        self._last_run[clustering_cell] = now

        # Phase 1: batch reads (Spatial Index, Location and Affiliation).
        before_read = self.counter.snapshot()
        leaders = self.spatial_table.objects_in_cell(clustering_cell)
        leader_ids = sorted(leaders)
        records = self.location_table.batch_latest(leader_ids)
        follower_info = self.affiliation_table.batch_followers(leader_ids)
        report.read_seconds = (
            self.counter.snapshot().delta(before_read).simulated_seconds
        )
        report.leaders_before = len(leader_ids)
        if len(leader_ids) <= 1:
            report.leaders_after = report.leaders_before
            return report

        # Phase 2: in-memory computation — hexagonal velocity binning.
        plans = self._plan_merges(leader_ids, leaders, records, follower_info)
        report.compute_seconds = (
            self.config.compute_seconds_per_leader * len(leader_ids)
        )

        # Phase 3: batched writes.
        before_write = self.counter.snapshot()
        reassigned = self._apply_merges(plans, now)
        report.write_seconds = (
            self.counter.snapshot().delta(before_write).simulated_seconds
        )
        report.followers_reassigned = reassigned
        report.leaders_after = report.leaders_before - len(plans)
        return report

    def cluster_due(self, now: float) -> ClusteringReport:
        """Cluster every clustering cell whose interval has elapsed.

        Cells are processed sequentially, as the paper does to keep only a
        small number of clustering cells in flight at any time.
        """
        total = ClusteringReport()
        for cell in self.due_cells(now):
            total.merge_in(self.cluster_cell(cell, now))
        return total

    def cluster_all(self, now: float) -> ClusteringReport:
        """Cluster every occupied clustering cell regardless of Tc."""
        total = ClusteringReport()
        for cell in self.occupied_clustering_cells():
            total.merge_in(self.cluster_cell(cell, now))
        return total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plan_merges(
        self,
        leader_ids: Sequence[ObjectId],
        leader_locations: Dict[ObjectId, Tuple[float, float]],
        records: Dict[ObjectId, object],
        follower_info: Dict[ObjectId, Dict[ObjectId, Tuple[float, float]]],
    ) -> List[_MergePlan]:
        """Group leaders by velocity hexagon and plan the merges.

        Within each hexagon the leader with the most followers survives
        (ties broken by id), so the rewrites touch the fewest rows.
        """
        bins: Dict[Tuple[int, int], List[ObjectId]] = {}
        for leader_id in leader_ids:
            record = records.get(leader_id)
            if record is None:
                # A leader without a Location record cannot be compared; it
                # keeps its own school.
                continue
            bins.setdefault(self.hexgrid.bin_of(record.velocity), []).append(leader_id)

        plans: List[_MergePlan] = []
        for members in bins.values():
            if len(members) <= 1:
                continue
            members_sorted = sorted(
                members,
                key=lambda oid: (-len(follower_info.get(oid, {})), oid),
            )
            survivor = members_sorted[0]
            for absorbed in members_sorted[1:]:
                plans.append(
                    _MergePlan(
                        survivor_id=survivor,
                        absorbed_id=absorbed,
                        survivor_location=leader_locations[survivor],
                        absorbed_location=leader_locations[absorbed],
                        absorbed_followers=follower_info.get(absorbed, {}),
                    )
                )
        return plans

    def _apply_merges(self, plans: List[_MergePlan], now: float) -> int:
        """Apply merge plans with batched table writes.

        Merging leader ``j`` into leader ``i`` performs the three operations
        of Section 3.3.2: transfer j's Follower Info to i, rewrite the L/F
        entries of j and of all its followers, and delete j from the Spatial
        Index Table.
        Returns the number of follower objects reassigned (including the
        absorbed leaders themselves).
        """
        if not plans:
            return 0
        lf_updates: List[Tuple[ObjectId, LFRecord]] = []
        follower_updates: List[Tuple[ObjectId, ObjectId, Vector]] = []
        follower_deletes: List[Tuple[ObjectId, ObjectId]] = []
        spatial_removals: List[Tuple[ObjectId, Point]] = []
        reassigned = 0

        for plan in plans:
            # The tables hand out bare (x, y) / (dx, dy) pairs; a Point or
            # Vector is built only for what is written back.
            survivor_x, survivor_y = plan.survivor_location
            absorbed_x, absorbed_y = plan.absorbed_location
            offset_x, offset_y = absorbed_x - survivor_x, absorbed_y - survivor_y
            displacement_to_absorbed = Vector(offset_x, offset_y)
            # The absorbed leader becomes a follower of the survivor.
            lf_updates.append(
                (
                    plan.absorbed_id,
                    LFRecord(
                        role=Role.FOLLOWER,
                        timestamp=now,
                        leader_id=plan.survivor_id,
                        displacement=displacement_to_absorbed,
                    ),
                )
            )
            follower_updates.append(
                (plan.survivor_id, plan.absorbed_id, displacement_to_absorbed)
            )
            spatial_removals.append((plan.absorbed_id, Point(absorbed_x, absorbed_y)))
            reassigned += 1
            # Its followers transfer to the survivor with composed
            # displacements: i->f = (i->j) + (j->f).
            for follower_id, (dx, dy) in plan.absorbed_followers.items():
                composed = Vector(offset_x + dx, offset_y + dy)
                lf_updates.append(
                    (
                        follower_id,
                        LFRecord(
                            role=Role.FOLLOWER,
                            timestamp=now,
                            leader_id=plan.survivor_id,
                            displacement=composed,
                        ),
                    )
                )
                follower_updates.append((plan.survivor_id, follower_id, composed))
                follower_deletes.append((plan.absorbed_id, follower_id))
                reassigned += 1

        self.affiliation_table.batch_apply(
            lf_updates, follower_updates, follower_deletes, timestamp=now
        )
        self.spatial_table.batch_remove(spatial_removals)
        return reassigned
