"""The tablet master: MOIST's cluster control plane.

The paper's deployment story (Section 4.3.3) assumes what BigTable gives it
for free: a *master* that watches per-tablet load and moves tablets between
tablet servers, so a hot school never pins one front-end forever.  The
data plane — sharded tables, batched routing, a durable commit-log/SSTable
engine — would otherwise leave tablet→server assignment at static hash
affinity.  This module is that master:

* :class:`TabletMaster` watches the per-tablet
  :class:`~repro.bigtable.cost.OpCounter` ledgers and the cluster's
  :class:`~repro.bigtable.backend.TabletSkew` and **rebalances live**:

  - *migration* — a hot tablet moves to a colder server through the LSM
    machinery: freeze the memtable → flush it into an SSTable run → hand
    off the runs plus the commit-log tail → replay the tail on the target
    → commit the routing switch (BigTable's METADATA update).  The hand-off
    cost is priced through :class:`~repro.bigtable.cost.CostModel`
    (``migration_rpc``/``migration_row``) into the durability ledger, so
    simulated query/update service times stay comparable between
    static-affinity and master-balanced clusters;
  - *replication* — a read-hot tablet gains extra serving replicas; query
    batches fan out over every replica (newest-wins: every replica serves
    from the shared durable store, so replicated reads are bit-identical
    to the primary's) while writes keep going to the primary;
  - *failover* — a crashed front-end's tablets are recovered from their
    durable logs and runs and reassigned
    (:meth:`~repro.server.cluster.ServerCluster.fail_server`), then the
    survivors are rebalanced.

Every decision is deterministic (ledgers in, assignments out — no wall
clock, no randomness), which is what lets the property tests replay
identical schedules and the fault injector stay seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bigtable.backend import ShardedBackend
from repro.bigtable.cost import OpKind
from repro.bigtable.tablet import TabletStats
from repro.errors import ConfigurationError
from repro.server.cluster import ServerCluster, ServerFailoverReport
from repro.server.faults import (
    CRASH_AFTER_FLUSH,
    CRASH_AFTER_HANDOFF,
    CRASH_POINTS,
    CRASH_SERVER,
    REVIVE_SERVER,
)


@dataclass(frozen=True)
class MasterOptions:
    """Rebalancing policy knobs of the tablet master."""

    #: A rebalance pass migrates tablets while the busiest alive server
    #: carries more than this multiple of the mean per-server load.
    imbalance_threshold: float = 1.25
    #: Upper bound on migrations per rebalance pass (keeps one pass cheap;
    #: the next pass continues where this one stopped).
    max_migrations_per_round: int = 4
    #: A tablet serving more than this share of the cluster's *read* time
    #: is replicated for query fan-out.
    replicate_read_share: float = 0.30
    #: Total serving copies a replicated tablet may reach (primary
    #: included).
    max_replicas: int = 3

    def __post_init__(self) -> None:
        if self.imbalance_threshold < 1.0:
            raise ConfigurationError("imbalance_threshold must be >= 1")
        if self.max_migrations_per_round < 0:
            raise ConfigurationError("max_migrations_per_round must be >= 0")
        if not 0.0 < self.replicate_read_share <= 1.0:
            raise ConfigurationError("replicate_read_share must be in (0, 1]")
        if self.max_replicas < 1:
            raise ConfigurationError("max_replicas must be >= 1")


@dataclass(frozen=True)
class MigrationRecord:
    """One attempted tablet hand-off."""

    table: str
    tablet_id: str
    source: int
    target: int
    #: SSTable rows plus commit-log records shipped to the target (0 when
    #: the migration crashed before the hand-off).
    rows_shipped: int
    #: Log records the target replayed to rebuild the memtable.
    log_records_replayed: int
    #: Whether the routing switch committed (False = aborted mid-flight;
    #: the source keeps serving and no state is lost).
    committed: bool
    crash_point: Optional[str] = None


@dataclass(frozen=True)
class ReplicationRecord:
    """One read replica added for query fan-out."""

    table: str
    tablet_id: str
    replica_server: int
    #: Rows shipped to seed the replica (runs + log tail snapshot).
    rows_shipped: int


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one rebalance pass."""

    migrations: Tuple[MigrationRecord, ...] = field(default=())
    replications: Tuple[ReplicationRecord, ...] = field(default=())
    imbalance_before: float = 1.0
    imbalance_after: float = 1.0


class TabletMaster:
    """Master-coordinated tablet placement over one :class:`ServerCluster`.

    The master owns the cluster's routing table: it is the only component
    that pins primaries (migrations, failover) or registers read replicas.
    It also feeds the contention model the replica counts, so a replicated
    hot tablet's skew is discounted by its fan-out.
    """

    def __init__(
        self, cluster: ServerCluster, options: Optional[MasterOptions] = None
    ) -> None:
        backend = cluster.indexer.emulator
        if not isinstance(backend, ShardedBackend):
            raise ConfigurationError(
                "the tablet master needs a sharded backend with per-tablet "
                "accounting"
            )
        self.cluster = cluster
        self.backend = backend
        self.options = options or MasterOptions()
        self.migrations: List[MigrationRecord] = []
        self.replications: List[ReplicationRecord] = []
        self.failovers: List[ServerFailoverReport] = []
        #: The cluster's control-plane verbs (``rebalance`` / ``apply_fault``
        #: / ``master_action_counts``) reach the master through here.
        cluster.master = self
        cluster.contention.replica_counts = self.replica_counts

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def replica_counts(self) -> Dict[str, int]:
        """``tablet_id -> serving copies`` for every replicated tablet."""
        return self.cluster.routing.replica_counts()

    def action_counts(self) -> Tuple[int, int, int]:
        """Cumulative ``(migrations, replications, failovers)`` — the
        plain-data form the scale-out metrics merge ships per shard."""
        return (
            len(self.migrations),
            len(self.replications),
            len(self.failovers),
        )

    def export_state(self) -> tuple:
        """The decision histories ``(migrations, replications, failovers)``
        — frozen records, the ones the control verbs already ship — so a
        respawned shard's master continues instead of forgetting them.  The
        routing they produced is the cluster's to export."""
        return (list(self.migrations), list(self.replications), list(self.failovers))

    def install_state(self, state: tuple) -> None:
        self.migrations, self.replications, self.failovers = map(list, state)

    def _server_loads(self, stats: List[TabletStats]) -> Dict[int, float]:
        """Simulated storage seconds attributed to each alive server.

        A tablet's write time (and unreplicated read time) lands on its
        primary; a replicated tablet's read time is split evenly over its
        serving copies — exactly how the query fan-out divides the work.
        """
        loads: Dict[int, float] = {
            index: 0.0 for index in self.cluster.alive_server_indices()
        }
        routing = self.cluster.routing
        for entry in stats:
            primary = self.cluster.server_index_for_tablet(entry.tablet_id)
            read_indices = [
                index
                for index in routing.read_indices(entry.tablet_id)
                if index in loads
            ]
            if len(read_indices) > 1:
                share = entry.read_seconds / len(read_indices)
                for index in read_indices:
                    loads[index] = loads.get(index, 0.0) + share
                loads[primary] = loads.get(primary, 0.0) + entry.write_seconds
            else:
                loads[primary] = loads.get(primary, 0.0) + entry.simulated_seconds
        return loads

    @staticmethod
    def _imbalance(loads: Dict[int, float]) -> float:
        """Max/mean per-server load ratio (1.0 = perfectly balanced)."""
        if not loads:
            return 1.0
        mean = sum(loads.values()) / len(loads)
        if mean <= 0.0:
            return 1.0
        return max(loads.values()) / mean

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def migrate_tablet(
        self,
        table_name: str,
        tablet_id: str,
        target_server: int,
        crash_point: Optional[str] = None,
    ) -> MigrationRecord:
        """Move one tablet's primary to ``target_server``, live.

        The protocol is the BigTable hand-off, built on the LSM storage
        machinery:

        1. **freeze + flush** — the memtable is flushed into an immutable
           SSTable run (a minor compaction), so every acknowledged mutation
           is durable before anything moves;
        2. **hand off** — the tablet's runs and remaining commit-log tail
           ship to the target, priced as one ``MIGRATION`` durability
           charge (``migration_rpc`` + ``migration_row`` × rows);
        3. **replay** — the target opens the runs and replays the log tail,
           rebuilding the memtable exactly (the crash-recovery invariant);
        4. **commit** — the routing table repoints the primary; the
           target's block cache starts cold for this tablet.

        ``crash_point`` (fault injection) aborts the migration after the
        named phase: the source keeps serving from its durable state and
        no write is lost — the property tests prove both abort paths are
        invisible to clients.
        """
        if crash_point is not None and crash_point not in CRASH_POINTS:
            raise ConfigurationError(f"unknown migration crash point {crash_point!r}")
        table = self.backend.table(table_name)
        tablet = table.find_tablet(tablet_id)
        if tablet is None:
            raise ConfigurationError(
                f"tablet {tablet_id!r} no longer exists in table {table_name!r}"
            )
        source = self.cluster.server_index_for_tablet(tablet_id)
        if not 0 <= target_server < self.cluster.num_servers:
            raise ConfigurationError(f"no server {target_server} in the cluster")
        if not self.cluster.servers[target_server].alive:
            raise ConfigurationError(f"server {target_server} is down")
        if target_server == source:
            raise ConfigurationError(
                f"tablet {tablet_id!r} already lives on server {source}"
            )
        # 1. Freeze: flush the memtable so the hand-off ships immutable runs
        # plus a (normally empty) log tail.
        table.flush_tablet(tablet)
        if crash_point == CRASH_AFTER_FLUSH:
            record = MigrationRecord(
                table=table_name,
                tablet_id=tablet_id,
                source=source,
                target=target_server,
                rows_shipped=0,
                log_records_replayed=0,
                committed=False,
                crash_point=crash_point,
            )
            self.migrations.append(record)
            return record
        # 2. Hand off: ship every run row and the log tail to the target.
        rows_shipped = sum(len(run) for run in tablet.runs) + len(tablet.log)
        self.backend.counter.record_durability(OpKind.MIGRATION, rows=rows_shipped)
        tablet.counter.record_durability(OpKind.MIGRATION, rows=rows_shipped)
        # 3. Replay: the serving copy re-opens from durable state (run
        # indexes + log tail), exactly the per-tablet recovery path.  On
        # the abort path this is the *source* re-opening after the target
        # died mid-hand-off; on the commit path it is the target's open.
        recovery = table.recover_tablet(tablet)
        committed = crash_point != CRASH_AFTER_HANDOFF
        if committed:
            # 4. Commit: METADATA switch.  The target serves from a cold
            # cache (recover_tablet evicted the tablet's blocks).
            self.cluster.routing.assign(tablet_id, target_server)
            self.cluster.contention.invalidate()
        record = MigrationRecord(
            table=table_name,
            tablet_id=tablet_id,
            source=source,
            target=target_server,
            rows_shipped=rows_shipped,
            log_records_replayed=recovery.log_records_replayed,
            committed=committed,
            crash_point=crash_point,
        )
        self.migrations.append(record)
        return record

    def replicate_tablet(
        self, table_name: str, tablet_id: str, replica_server: int
    ) -> Optional[ReplicationRecord]:
        """Seed one extra read replica of a tablet on ``replica_server``.

        The replica is seeded with the tablet's flushed runs and log tail
        (priced like a migration hand-off) and then serves query batches
        alongside the primary.  Consistency is newest-wins: replicas read
        the shared durable store, so their results are bit-identical to
        the primary's.  Returns ``None`` when the server already serves
        this tablet.
        """
        table = self.backend.table(table_name)
        tablet = table.find_tablet(tablet_id)
        if tablet is None:
            raise ConfigurationError(
                f"tablet {tablet_id!r} no longer exists in table {table_name!r}"
            )
        if not self.cluster.servers[replica_server].alive:
            raise ConfigurationError(f"server {replica_server} is down")
        if not self.cluster.routing.add_replica(tablet_id, replica_server):
            return None
        rows_shipped = sum(len(run) for run in tablet.runs) + len(tablet.log)
        self.backend.counter.record_durability(OpKind.MIGRATION, rows=rows_shipped)
        tablet.counter.record_durability(OpKind.MIGRATION, rows=rows_shipped)
        self.cluster.contention.invalidate()
        record = ReplicationRecord(
            table=table_name,
            tablet_id=tablet_id,
            replica_server=replica_server,
            rows_shipped=rows_shipped,
        )
        self.replications.append(record)
        return record

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def fail_over(
        self, server_id: int, rebalance: bool = True
    ) -> ServerFailoverReport:
        """Handle one front-end crash: recover + reassign its tablets, then
        rebalance the survivors."""
        report = self.cluster.fail_server(server_id)
        self.failovers.append(report)
        if rebalance:
            self.rebalance()
        return report

    # ------------------------------------------------------------------
    # Fault injection support
    # ------------------------------------------------------------------
    def inject_migration_crash(
        self, crash_point: str
    ) -> Optional[MigrationRecord]:
        """Start migrating the hottest tablet and crash it mid-flight.

        Used by the deterministic fault injector: the hottest tablet (by
        ledger seconds, id as tie-breaker) is handed toward the coldest
        other alive server and the migration is aborted at ``crash_point``.
        Returns ``None`` when no migration is possible (a single alive
        server, or no tablets yet).
        """
        stats = self.backend.tablet_stats()
        if not stats:
            return None
        loads = self._server_loads(stats)
        if len(loads) < 2:
            return None
        entry = max(
            stats, key=lambda item: (item.simulated_seconds, item.tablet_id)
        )
        source = self.cluster.server_index_for_tablet(entry.tablet_id)
        targets = [
            index
            for index in sorted(loads, key=lambda i: (loads[i], i))
            if index != source
        ]
        if not targets:
            return None
        return self.migrate_tablet(
            entry.table, entry.tablet_id, targets[0], crash_point=crash_point
        )

    def apply_fault(
        self,
        kind: str,
        server_id: Optional[int] = None,
        crash_point: Optional[str] = None,
    ) -> str:
        """Fire one scheduled fault; returns the bracketed outcome.

        Unfireable events (crashing a dead or the last alive server,
        reviving an alive one, a server id beyond this cluster, a migration
        crash with nowhere to migrate) come back as ``"[skipped]"`` instead
        of raising: a seeded :class:`~repro.server.faults.FaultSchedule`
        cannot know the cluster's state at schedule time.
        """
        cluster = self.cluster
        if server_id is not None and server_id >= cluster.num_servers:
            return "[skipped]"
        if kind == CRASH_SERVER:
            server = cluster.servers[server_id]
            if not server.alive or len(cluster.alive_server_indices()) <= 1:
                return "[skipped]"
            report = self.fail_over(server_id)
            return (
                f"[{report.tablets_recovered} tablets recovered, "
                f"{report.log_records_replayed} records replayed]"
            )
        if kind == REVIVE_SERVER:
            if cluster.servers[server_id].alive:
                return "[skipped]"
            cluster.revive_server(server_id)
            return "[applied]"
        record = self.inject_migration_crash(crash_point or CRASH_AFTER_HANDOFF)
        if record is None:
            return "[skipped]"
        return f"[{record.tablet_id} {record.source}->{record.target} aborted]"

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self) -> RebalanceReport:
        """One master pass: migrate load off hot servers, replicate
        read-hot tablets.

        Decisions read the cumulative per-tablet ledgers: migration moves
        the largest tablet whose load fits inside the busiest/coldest gap
        (the classic greedy makespan step), replication targets tablets
        serving more than ``replicate_read_share`` of all read time.  The
        pass is deterministic and idempotent on a balanced cluster.
        """
        stats = self.backend.tablet_stats()
        loads = self._server_loads(stats)
        imbalance_before = self._imbalance(loads)
        migrations: List[MigrationRecord] = []
        if len(loads) > 1 and sum(loads.values()) > 0.0:
            by_tablet = {entry.tablet_id: entry for entry in stats}
            for _ in range(self.options.max_migrations_per_round):
                if self._imbalance(loads) <= self.options.imbalance_threshold:
                    break
                move = self._pick_migration(by_tablet, loads)
                if move is None:
                    break
                entry, target = move
                record = self.migrate_tablet(
                    entry.table, entry.tablet_id, target
                )
                migrations.append(record)
                source = record.source
                loads[source] -= entry.simulated_seconds
                loads[target] += entry.simulated_seconds
        replications = self._replicate_read_hot(stats, loads)
        return RebalanceReport(
            migrations=tuple(migrations),
            replications=tuple(replications),
            imbalance_before=imbalance_before,
            imbalance_after=self._imbalance(loads),
        )

    def _pick_migration(
        self, by_tablet: Dict[str, TabletStats], loads: Dict[int, float]
    ) -> Optional[Tuple[TabletStats, int]]:
        """The next greedy move: the heaviest tablet on the busiest server
        whose load fits strictly inside the busiest→coldest gap (so the
        move reduces the makespan instead of shuttling the hot spot).

        Replicated tablets are not migration candidates: their read load is
        already fanned out (and attributed fractionally by
        :meth:`_server_loads`), so moving the primary would shift far less
        than ``simulated_seconds`` — replication is their balancing tool.
        """
        ordered = sorted(loads)  # deterministic tie-breaking by index
        busiest = max(ordered, key=lambda index: loads[index])
        coldest = min(ordered, key=lambda index: loads[index])
        gap = loads[busiest] - loads[coldest]
        if gap <= 0.0:
            return None
        routing = self.cluster.routing
        candidates = [
            entry
            for entry in by_tablet.values()
            if self.cluster.server_index_for_tablet(entry.tablet_id) == busiest
            and 0.0 < entry.simulated_seconds < gap
            and len(routing.read_indices(entry.tablet_id)) == 1
        ]
        if not candidates:
            return None
        best = max(candidates, key=lambda entry: entry.simulated_seconds)
        return best, coldest

    def _replicate_read_hot(
        self, stats: List[TabletStats], loads: Dict[int, float]
    ) -> List[ReplicationRecord]:
        """Add replicas for tablets dominating the cluster's read time."""
        total_read = sum(entry.read_seconds for entry in stats)
        if total_read <= 0.0:
            return []
        added: List[ReplicationRecord] = []
        routing = self.cluster.routing
        for entry in sorted(
            stats, key=lambda item: item.read_seconds, reverse=True
        ):
            if entry.read_seconds / total_read < self.options.replicate_read_share:
                break
            while len(routing.read_indices(entry.tablet_id)) < self.options.max_replicas:
                serving = set(routing.read_indices(entry.tablet_id))
                targets = [
                    index
                    for index in sorted(loads, key=lambda i: (loads[i], i))
                    if index not in serving
                ]
                if not targets:
                    break
                record = self.replicate_tablet(
                    entry.table, entry.tablet_id, targets[0]
                )
                if record is None:
                    break
                added.append(record)
                # The new replica takes an even share of the tablet's reads.
                copies = len(routing.read_indices(entry.tablet_id))
                share = entry.read_seconds / copies
                for index in routing.read_indices(entry.tablet_id):
                    if index in loads and index != record.replica_server:
                        loads[index] -= share / max(copies - 1, 1)
                loads[record.replica_server] = (
                    loads.get(record.replica_server, 0.0) + share
                )
        return added
