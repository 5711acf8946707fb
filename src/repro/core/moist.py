"""The MOIST indexer facade.

:class:`MoistIndexer` is the public entry point of the library.  It owns the
three BigTable schemas, the update processor (Algorithm 1), the school
clusterer, the NN searcher with FLAG, the history engine and the PPP
archiver, and exposes the operations an LBS front-end server needs:

* ``update`` — ingest one location update;
* ``nearest_neighbors`` — k-NN around a location (optionally predictive);
* ``location_of`` — current (possibly estimated) position of one object;
* ``run_clustering`` / ``run_due_clustering`` — the periodic school pass;
* ``archive_aged`` — age fresh records to disk columns and the PPP archive;
* ``object_history`` / ``region_history`` — history queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.archive.ppp import PPPArchiver
from repro.bigtable.cost import CostModel
from repro.bigtable.emulator import BigtableEmulator
from repro.bigtable.scan import BlockCacheOptions
from repro.bigtable.tablet import TabletOptions
from repro.core.clustering import ClusteringReport, SchoolClusterer
from repro.core.config import MoistConfig
from repro.core.flag import FlagTuner
from repro.core.history import HistoryQueryEngine
from repro.core.nn_search import (
    NearestNeighborSearcher,
    NNQueryStats,
    QueryBatchContext,
)
from repro.core.prediction import LinearPredictor, PredictedState, ViterbiSmoother
from repro.core.region import RegionQueryStats, RegionSearcher
from repro.core.update import UpdateOutcome, UpdateProcessor, UpdateResult, UpdateStats
from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.model import HistoryRecord, NeighborResult, ObjectId, UpdateMessage
from repro.tables.affiliation_table import AffiliationTable, Role
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable


@dataclass
class IndexerCounters:
    """In-memory bookkeeping the facade maintains alongside the tables."""

    known_objects: int = 0
    leaders: int = 0

    @property
    def followers(self) -> int:
        return max(self.known_objects - self.leaders, 0)


class MoistIndexer:
    """A complete MOIST instance on top of one BigTable emulator."""

    def __init__(
        self,
        config: Optional[MoistConfig] = None,
        cost_model: Optional[CostModel] = None,
        archiver: Optional[PPPArchiver] = None,
        table_prefix: str = "",
        enable_flag: bool = True,
        tablet_options: Optional[TabletOptions] = None,
        cache_options: Optional[BlockCacheOptions] = None,
        snapshot: Optional[object] = None,
    ) -> None:
        self.config = config or MoistConfig()
        self.emulator = BigtableEmulator(
            cost_model=cost_model,
            tablet_options=tablet_options,
            cache_options=cache_options,
            snapshot=snapshot,
        )
        self.location_table = LocationTable(
            self.emulator,
            name=f"{table_prefix}location",
            memory_records=self.config.memory_records,
        )
        self.spatial_table = SpatialIndexTable(
            self.emulator,
            name=f"{table_prefix}spatial_index",
            storage_level=self.config.storage_level,
            world=self.config.world,
        )
        self.affiliation_table = AffiliationTable(
            self.emulator, name=f"{table_prefix}affiliation"
        )
        self.update_stats = UpdateStats()
        self._processor = UpdateProcessor(
            config=self.config,
            location_table=self.location_table,
            spatial_table=self.spatial_table,
            affiliation_table=self.affiliation_table,
            stats=self.update_stats,
        )
        self.flag = (
            FlagTuner(self.config, self.spatial_table) if enable_flag else None
        )
        self.searcher = NearestNeighborSearcher(
            config=self.config,
            spatial_table=self.spatial_table,
            affiliation_table=self.affiliation_table,
            location_table=self.location_table,
            flag_tuner=self.flag,
        )
        self.region_searcher = RegionSearcher(
            config=self.config,
            spatial_table=self.spatial_table,
            affiliation_table=self.affiliation_table,
            location_table=self.location_table,
        )
        self.clusterer = SchoolClusterer(
            config=self.config,
            location_table=self.location_table,
            spatial_table=self.spatial_table,
            affiliation_table=self.affiliation_table,
            counter=self.emulator.counter,
        )
        self.archiver = archiver if archiver is not None else PPPArchiver(
            world=self.config.world
        )
        self.history = HistoryQueryEngine(
            self.config, self.location_table, self.archiver
        )
        self.counters = IndexerCounters()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, message: UpdateMessage) -> UpdateResult:
        """Ingest one location update (Algorithm 1)."""
        result = self._processor.process(message)
        self._absorb_outcome(message, result)
        if self.flag is not None:
            self.flag.total_objects_hint = max(self.counters.known_objects, 1)
        return result

    def restore_facade_state(self) -> int:
        """Rebuild the in-memory facade tallies after the emulator restored
        its tables from a snapshot (a real process restart).

        The tables themselves came back bit-identical; what a new process
        lacks is the state that never lived in a table: the known-object and
        leader counters and the FLAG tuner's object-count hint.  Both are
        derivable by an uncharged scan of the affiliation table.  Two pieces
        are deliberately *not* restored — the PPP archiver's ping-pong
        buffers (history-query staging, outside the restart-survival
        signatures) and :class:`UpdateStats` (a per-process tally, not
        state) — and the FLAG cache restarts cold, which affects simulated
        cost of *future* queries only, never their results.  Returns the
        number of known objects."""
        known = self.affiliation_table.object_count()
        leaders = len(self.affiliation_table.leader_ids())
        self.counters.known_objects = known
        self.counters.leaders = leaders
        if self.flag is not None:
            self.flag.total_objects_hint = max(known, 1)
        return known

    def _absorb_outcome(self, message: UpdateMessage, result: UpdateResult) -> None:
        """Fold one update outcome into the facade's counters and archiver.

        Shared by the single-message and batched paths so their bookkeeping
        cannot drift (the batched path's state equivalence depends on it).
        """
        if result.outcome is UpdateOutcome.NEW_LEADER:
            self.counters.known_objects += 1
            self.counters.leaders += 1
            self.archiver.register_object(message.object_id, message.location)
        elif result.outcome is UpdateOutcome.PROMOTED:
            self.counters.leaders += 1

    def update_many(self, messages: List[UpdateMessage]) -> UpdateStats:
        """Ingest a batch of updates; returns the cumulative statistics.

        The batch routes through :meth:`UpdateProcessor.process_batch`, i.e.
        the per-tablet group-commit write path: the resulting table state and
        simulated storage cost are identical to calling :meth:`update` per
        message, but the Python-level accounting work is amortised across
        the whole batch.
        """
        results = self._processor.process_batch(messages)
        for message, result in zip(messages, results):
            self._absorb_outcome(message, result)
        if self.flag is not None and messages:
            self.flag.total_objects_hint = max(self.counters.known_objects, 1)
        return self.update_stats

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nearest_neighbors(
        self,
        location: Point,
        k: int,
        nn_level: Optional[int] = None,
        range_limit: Optional[float] = None,
        include_followers: bool = True,
        at_time: Optional[float] = None,
        use_flag: bool = True,
        stats: Optional[NNQueryStats] = None,
    ) -> List[NeighborResult]:
        """k-NN query around ``location`` (Algorithm 2 + FLAG)."""
        return self.searcher.query(
            location,
            k,
            nn_level=nn_level,
            range_limit=range_limit,
            include_followers=include_followers,
            at_time=at_time,
            use_flag=use_flag,
            stats=stats,
        )

    def nearest_neighbors_batch(
        self,
        queries: Sequence[object],
        include_followers: bool = True,
        at_time: Optional[float] = None,
        use_flag: bool = True,
        context: Optional[QueryBatchContext] = None,
    ) -> List[List[NeighborResult]]:
        """Execute a batch of NN queries with batch-scoped read sharing.

        ``queries`` carry ``location``/``k``/``range_limit`` attributes
        (:class:`repro.workload.queries.NNQuery` fits).  Results are in
        request order and identical to per-request :meth:`nearest_neighbors`
        calls; overlapping queries share cell scans and batch reads, so the
        batch issues strictly fewer storage RPCs than sequential execution
        whenever any two queries touch the same cells or leaders.
        """
        return self.searcher.query_many(
            queries,
            include_followers=include_followers,
            at_time=at_time,
            use_flag=use_flag,
            context=context,
        )

    def objects_in_region(
        self,
        region: BoundingBox,
        at_time: Optional[float] = None,
        include_followers: bool = True,
        stats: Optional[RegionQueryStats] = None,
    ) -> List[NeighborResult]:
        """Range query: every object currently inside ``region``."""
        return self.region_searcher.objects_in_box(
            region,
            at_time=at_time,
            include_followers=include_followers,
            stats=stats,
        )

    def objects_near(
        self,
        center: Point,
        radius: float,
        at_time: Optional[float] = None,
        include_followers: bool = True,
        stats: Optional[RegionQueryStats] = None,
    ) -> List[NeighborResult]:
        """Range query: every object within ``radius`` of ``center``.

        This is the query shape behind the realtime-coupon application
        ("customers within 1,000 meters", Section 5).
        """
        return self.region_searcher.objects_in_circle(
            center,
            radius,
            at_time=at_time,
            include_followers=include_followers,
            stats=stats,
        )

    def predict_location(self, object_id: ObjectId, at_time: float) -> PredictedState:
        """Short-horizon prediction from the object's in-memory records.

        Followers are predicted through their leader's records plus the
        stored displacement, mirroring :meth:`location_of`.
        """
        lf_record = self.affiliation_table.role_of(object_id)
        if lf_record is None:
            raise QueryError(f"unknown object {object_id!r}")
        source_id = (
            object_id if lf_record.role is Role.LEADER else lf_record.leader_id
        )
        records = self.location_table.recent_history(source_id)
        if not records:
            raise QueryError(f"object {source_id!r} has no location records")
        predicted = LinearPredictor(records).predict(at_time)
        if lf_record.role is Role.LEADER:
            return predicted
        return PredictedState(
            location=predicted.location.displaced(lf_record.displacement),
            velocity=predicted.velocity,
            at_time=at_time,
        )

    def smoothed_trajectory(
        self, object_id: ObjectId, smoother: Optional[ViterbiSmoother] = None
    ) -> List[Point]:
        """Viterbi-smoothed recent trajectory of one object (Section 3.5)."""
        records = self.location_table.recent_history(object_id)
        if not records:
            return []
        if smoother is None:
            smoother = ViterbiSmoother(
                world=self.config.world, cell_level=self.config.storage_level - 2
            )
        return smoother.smooth(records)

    def location_of(
        self, object_id: ObjectId, at_time: Optional[float] = None
    ) -> Point:
        """Best known (possibly estimated) position of one object.

        Leaders come straight from the Location Table; followers are
        estimated from their leader's record plus the stored displacement,
        exactly the read path the Affiliation Table exists to serve.
        """
        lf_record = self.affiliation_table.role_of(object_id)
        if lf_record is None:
            raise QueryError(f"unknown object {object_id!r}")
        if lf_record.role is Role.LEADER:
            record = self.location_table.latest(object_id)
            if record is None:
                raise QueryError(f"leader {object_id!r} has no location record")
            return record.extrapolated(at_time) if at_time is not None else record.location
        leader_record = self.location_table.latest(lf_record.leader_id)
        if leader_record is None:
            raise QueryError(
                f"follower {object_id!r} references missing leader {lf_record.leader_id!r}"
            )
        base = (
            leader_record.extrapolated(at_time)
            if at_time is not None
            else leader_record.location
        )
        return base.displaced(lf_record.displacement)

    def object_history(
        self,
        object_id: ObjectId,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
    ) -> List[HistoryRecord]:
        """Full history of one object across memory, disk columns and archive."""
        return self.history.object_history(object_id, start_time, end_time)

    def region_history(
        self,
        region: BoundingBox,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
    ) -> List[HistoryRecord]:
        """Archived history inside a region."""
        return self.history.region_history(region, start_time, end_time)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def run_clustering(self, now: float) -> ClusteringReport:
        """Cluster every occupied clustering cell (ignoring the interval)."""
        report = self.clusterer.cluster_all(now)
        self._absorb_clustering(report)
        return report

    def run_due_clustering(self, now: float) -> ClusteringReport:
        """Cluster only the cells whose interval Tc has elapsed."""
        report = self.clusterer.cluster_due(now)
        self._absorb_clustering(report)
        return report

    def _absorb_clustering(self, report: ClusteringReport) -> None:
        self.counters.leaders = max(self.counters.leaders - report.merges, 0)
        if self.flag is not None and report.merges > 0:
            # Leader density changed materially; cached NN levels may now be
            # wrong in the affected areas.
            self.flag.invalidate()

    def archive_aged(self, now: float) -> Dict[str, int]:
        """Age fresh records to the disk column and drain old ones to PPP.

        Records older than ``aging_interval_s`` move from the in-memory
        column to the first disk column; records older than twice that move
        from the disk column into the PPP archive.  Returns counts of both
        movements.
        """
        interval = self.config.aging_interval_s
        aged_to_disk = self.location_table.age_out(now - interval)
        drained = self.location_table.drain_aged(0, now - 2 * interval)
        for object_id, record in drained:
            self.archiver.archive(
                HistoryRecord(
                    object_id=object_id,
                    location=record.location,
                    velocity=record.velocity,
                    timestamp=record.timestamp,
                ),
                now,
            )
        return {"aged_to_disk": aged_to_disk, "archived": len(drained)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def school_count(self) -> int:
        """Current number of object schools (== number of leaders)."""
        return self.counters.leaders

    @property
    def object_count(self) -> int:
        """Number of distinct objects ever seen."""
        return self.counters.known_objects

    @property
    def simulated_seconds(self) -> float:
        """Total simulated storage time spent by this indexer so far."""
        return self.emulator.simulated_seconds

    def shed_ratio(self) -> float:
        """Fraction of updates shed by object schooling so far."""
        return self.update_stats.shed_ratio
