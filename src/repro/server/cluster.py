"""A cluster of MOIST front-end servers sharing one BigTable."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.bigtable.backend import ShardedBackend
from repro.bigtable.lsm import RecoveryReport, TableRecovery
from repro.core.moist import MoistIndexer
from repro.core.nn_search import NNQueryStats
from repro.core.update import UpdateResult
from repro.errors import ConfigurationError, UnrecoverableShardError
from repro.geometry.point import Point
from repro.model import NeighborResult, UpdateMessage
from repro.server.contention import TabletContentionModel
from repro.server.faults import Fault
from repro.server.frontend import FrontendServer


class TabletRoutingTable:
    """Dynamic tablet → server assignment (BigTable's METADATA role).

    Every tablet starts with a *default* assignment — the stable hash
    affinity the cluster has always used — and the control plane overrides
    it with explicit assignments when it migrates tablets or fails servers
    over.  Read-hot tablets can additionally carry *replicas*: extra
    servers that serve that tablet's query batches round-robin while writes
    keep going to the primary.
    """

    def __init__(self, num_servers: int) -> None:
        if num_servers <= 0:
            raise ConfigurationError("a routing table needs at least one server")
        self.num_servers = num_servers
        self._primary: Dict[str, int] = {}
        self._replicas: Dict[str, Tuple[int, ...]] = {}

    def default_index(self, tablet_id: str) -> int:
        """The hash-affinity default assignment of a tablet."""
        return crc32(tablet_id.encode("utf-8")) % self.num_servers

    def primary_index(self, tablet_id: str) -> int:
        """Current primary assignment (explicit override or hash default)."""
        explicit = self._primary.get(tablet_id)
        return explicit if explicit is not None else self.default_index(tablet_id)

    def assign(self, tablet_id: str, server_index: int) -> None:
        """Pin a tablet's primary to one server (a migration commit)."""
        if not 0 <= server_index < self.num_servers:
            raise ConfigurationError(f"no server {server_index} in the cluster")
        self._primary[tablet_id] = server_index
        replicas = self._replicas.get(tablet_id)
        if replicas is not None:
            # The new primary may have been serving as a replica; replicas
            # only list *extra* servers.
            trimmed = tuple(index for index in replicas if index != server_index)
            if trimmed:
                self._replicas[tablet_id] = trimmed
            else:
                del self._replicas[tablet_id]

    def add_replica(self, tablet_id: str, server_index: int) -> bool:
        """Register an extra read replica; returns whether it was new."""
        if not 0 <= server_index < self.num_servers:
            raise ConfigurationError(f"no server {server_index} in the cluster")
        if server_index == self.primary_index(tablet_id):
            return False
        existing = self._replicas.get(tablet_id, ())
        if server_index in existing:
            return False
        self._replicas[tablet_id] = existing + (server_index,)
        return True

    def read_indices(self, tablet_id: str) -> Tuple[int, ...]:
        """Every server serving this tablet's reads: primary first, then
        replicas in registration order."""
        primary = self.primary_index(tablet_id)
        return (primary,) + self._replicas.get(tablet_id, ())

    def replica_counts(self) -> Dict[str, int]:
        """``tablet_id -> total serving copies`` for replicated tablets."""
        return {
            tablet_id: 1 + len(replicas)
            for tablet_id, replicas in self._replicas.items()
        }

    def replicated_tablets(self) -> List[str]:
        """Ids of tablets currently carrying read replicas, sorted."""
        return sorted(self._replicas)

    def drop_server(self, server_index: int) -> None:
        """Forget a crashed server's replica memberships.  Primary
        assignments are the caller's business: the tablets a dead primary
        served need recovery before they can be reassigned."""
        for tablet_id in list(self._replicas):
            trimmed = tuple(
                index for index in self._replicas[tablet_id] if index != server_index
            )
            if trimmed:
                self._replicas[tablet_id] = trimmed
            else:
                del self._replicas[tablet_id]

    def export_state(self) -> tuple:
        """``(primary pins, replica placement)`` as plain dicts."""
        return (dict(self._primary), dict(self._replicas))

    def install_state(self, state: tuple) -> None:
        self._primary, self._replicas = map(dict, state)


class RoundMakespans:
    """The cluster makespan *as of* each load-test round.

    A running max indexed by round: valid because makespans never decrease,
    so the max over everything recorded at or before a round is what a
    lockstep run would have read right after it.  This is what lets the
    load test defer its timeline arithmetic until in-flight rounds settle.
    """

    def __init__(self) -> None:
        self._best: List[float] = []

    def record(self, round_index: int, makespan: float) -> None:
        best = self._best
        while len(best) <= round_index:
            best.append(best[-1] if best else 0.0)
        # One step when rounds arrive in order (the load tests' case).
        for index in range(round_index, len(best)):
            if makespan <= best[index]:
                break
            best[index] = makespan

    def at(self, round_index: int) -> float:
        best = self._best
        if not best:
            return 0.0
        return best[min(round_index, len(best) - 1)]


def percentile_of(
    sample_groups: Iterable[Sequence[float]], quantile: float
) -> float:
    """The one service-time percentile rule: validate ``quantile`` in
    (0, 1], concatenate ``sample_groups`` in the order given, sort, and
    take rank ``max(int(n * quantile) - 1, 0)`` — 0.0 when nothing was
    recorded.  ``ServerCluster`` feeds it per-server samples and the
    federation per-shard ones, so both report bit-identical percentiles."""
    if not 0.0 < quantile <= 1.0:
        raise ConfigurationError("quantile must be in (0, 1]")
    samples: List[float] = []
    for group in sample_groups:
        samples.extend(group)
    if not samples:
        return 0.0
    samples.sort()
    return samples[max(int(len(samples) * quantile) - 1, 0)]


@dataclass(frozen=True)
class ServerFailoverReport:
    """Outcome of failing over one crashed front-end server."""

    server_id: int
    #: Per-table recovery of every tablet the dead server was primary for.
    tablets: Tuple[TableRecovery, ...] = field(default=())
    #: ``(tablet_id, new_server_index)`` for every reassigned primary.
    reassigned: Tuple[Tuple[str, int], ...] = field(default=())
    #: Replicated tablets that lost a replica on the dead server.
    replicas_dropped: Tuple[str, ...] = field(default=())

    @property
    def tablets_recovered(self) -> int:
        return len(self.tablets)

    @property
    def log_records_replayed(self) -> int:
        return sum(entry.log_records_replayed for entry in self.tablets)

    @property
    def runs_opened(self) -> int:
        return sum(entry.runs_opened for entry in self.tablets)

    @property
    def simulated_seconds(self) -> float:
        return sum(entry.simulated_seconds for entry in self.tablets)


class ServerCluster:
    """Dispatches requests over ``num_servers`` front-ends.

    MOIST front-ends are stateless apart from the shared key-value store, so
    adding servers divides the per-server load; the only cross-server cost is
    contention on the shared BigTable ("MOIST has very little communication
    overhead with the increase in the number of machines", Section 4.3.3).

    Two dispatch modes exist:

    * :meth:`submit_update` / :meth:`submit_nn_query` — classic round-robin
      over single requests;
    * :meth:`submit_update_batch` — the batched write path: messages are
      grouped by the Location Table tablet their row lives in, each tablet
      is routed to its current primary server (hash affinity until the
      tablet master reassigns it), and every group goes down the
      group-commit write path;
    * :meth:`submit_query_batch` — the batched read path: queries are
      grouped by the Spatial Index tablet owning their location's storage
      row and executed with batch-scoped read sharing
      (``handle_query_batch``); a tablet the master replicated fans its
      query group out over every serving replica.

    Tablet→server assignment lives in a :class:`TabletRoutingTable`: by
    default it degrades to the stable hash affinity of the pre-control-plane
    cluster, and the :class:`~repro.server.master.TabletMaster` overrides it
    when it migrates hot tablets, replicates read-hot ones or fails a
    crashed server over (:meth:`fail_server`).

    Contention is tablet-aware: the storage-time inflation scales with the
    hottest tablet's share of total load instead of assuming every request
    collides (``contention_alpha`` is the per-extra-server inflation in the
    fully-skewed worst case).
    """

    def __init__(
        self,
        indexer: MoistIndexer,
        num_servers: int,
        request_overhead_s: float = 12e-6,
        contention_alpha: float = 0.025,
        record_service_times: bool = False,
    ) -> None:
        if num_servers <= 0:
            raise ConfigurationError("a cluster needs at least one server")
        if contention_alpha < 0:
            raise ConfigurationError("contention_alpha must be non-negative")
        self.indexer = indexer
        self.contention_alpha = contention_alpha
        self.contention = TabletContentionModel(
            indexer.emulator, num_servers, alpha=contention_alpha
        )
        self.servers: List[FrontendServer] = [
            FrontendServer(
                server_id=index,
                indexer=indexer,
                contention=self.contention,
                request_overhead_s=request_overhead_s,
                record_service_times=record_service_times,
            )
            for index in range(num_servers)
        ]
        self.routing = TabletRoutingTable(num_servers)
        self._next = 0
        #: The control plane; a :class:`~repro.server.master.TabletMaster`
        #: registers itself here (``None`` = static hash affinity).
        self.master = None
        #: Messages applied through :meth:`enqueue_update_batch` since the
        #: last metrics reset.
        self.pipeline_processed = 0
        self._round_makespans = RoundMakespans()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def alive_server_indices(self) -> List[int]:
        """Indices of the servers currently accepting traffic."""
        return [index for index, server in enumerate(self.servers) if server.alive]

    def _pick_server(self) -> FrontendServer:
        for _ in range(len(self.servers)):
            server = self.servers[self._next]
            self._next = (self._next + 1) % len(self.servers)
            if server.alive:
                return server
        raise ConfigurationError("every server in the cluster is down")

    def submit_update(self, message: UpdateMessage) -> UpdateResult:
        """Route one update to the next server."""
        return self._pick_server().handle_update(message)

    def server_index_for_tablet(self, tablet_id: str) -> int:
        """The index of the front-end owning a tablet's writes.

        Resolves the routing table's primary assignment, falling forward
        deterministically (ring order) past crashed servers so routing
        never targets a dead front-end.
        """
        index = self.routing.primary_index(tablet_id)
        for offset in range(len(self.servers)):
            candidate = (index + offset) % len(self.servers)
            if self.servers[candidate].alive:
                return candidate
        raise ConfigurationError("every server in the cluster is down")

    def server_for_tablet(self, tablet_id: str) -> FrontendServer:
        """The front-end that owns a tablet (routing table, hash default)."""
        return self.servers[self.server_index_for_tablet(tablet_id)]

    def read_servers_for_tablet(self, tablet_id: str) -> List[FrontendServer]:
        """Every alive front-end serving a tablet's reads (primary plus
        replicas; at least the resolved primary)."""
        alive = [
            self.servers[index]
            for index in self.routing.read_indices(tablet_id)
            if self.servers[index].alive
        ]
        return alive or [self.server_for_tablet(tablet_id)]

    def submit_update_batch(self, messages: Sequence[UpdateMessage]) -> int:
        """Route a batch of updates by tablet affinity.

        Messages are partitioned by the Location Table tablet that owns
        their row key; each partition is handled by that tablet's primary
        server through the group-commit path.  Falls back to one round-robin
        batch when the backend does not shard.  Returns the number of
        messages processed.
        """
        if not messages:
            return 0
        location_table = getattr(self.indexer.location_table, "table", None)
        if location_table is None or not hasattr(location_table, "tablet_for_key"):
            return self._pick_server().handle_update_batch(messages)
        groups: Dict[str, List[UpdateMessage]] = {}
        for message in messages:
            tablet = location_table.tablet_for_key(message.object_id)
            groups.setdefault(tablet.tablet_id, []).append(message)
        processed = 0
        for tablet_id in sorted(groups):
            server = self.server_for_tablet(tablet_id)
            processed += server.handle_update_batch(groups[tablet_id])
        return processed

    def submit_query_batch(
        self,
        queries: Sequence[object],
        at_time: Optional[float] = None,
        use_flag: bool = True,
        include_followers: bool = True,
    ) -> List[List[NeighborResult]]:
        """Route a batch of NN queries by spatial-index tablet affinity.

        Queries are partitioned by the Spatial Index tablet that owns their
        location's storage row; each partition runs on that tablet's
        serving server(s) through :meth:`FrontendServer.handle_query_batch`.
        A tablet the master replicated splits its partition stride-wise
        over every alive replica — the query fan-out that divides a
        read-hot tablet's load.  Falls back to one round-robin batch when
        the backend does not shard.  Results are returned in request order
        and are identical to sequential :meth:`submit_nn_query` calls.
        ``queries`` carry ``location``, ``k`` and ``range_limit``
        attributes (:class:`repro.workload.queries.NNQuery` fits).
        """
        if not queries:
            return []
        spatial = self.indexer.spatial_table
        backing = getattr(spatial, "table", None)
        if backing is None or not hasattr(backing, "tablet_for_key"):
            return self._pick_server().handle_query_batch(
                queries,
                at_time=at_time,
                use_flag=use_flag,
                include_followers=include_followers,
            )
        groups: Dict[str, List[int]] = {}
        for index, query in enumerate(queries):
            tablet = spatial.tablet_for_location(query.location)
            groups.setdefault(tablet.tablet_id, []).append(index)
        results: List[Optional[List[NeighborResult]]] = [None] * len(queries)
        for tablet_id in sorted(groups):
            indices = groups[tablet_id]
            replicas = self.read_servers_for_tablet(tablet_id)
            for shard, server in enumerate(replicas):
                shard_indices = indices[shard :: len(replicas)]
                if not shard_indices:
                    continue
                batch_results = server.handle_query_batch(
                    [queries[index] for index in shard_indices],
                    at_time=at_time,
                    use_flag=use_flag,
                    include_followers=include_followers,
                )
                for index, result in zip(shard_indices, batch_results):
                    results[index] = result
        return results  # type: ignore[return-value]

    def submit_nn_query(
        self,
        location: Point,
        k: int,
        range_limit: Optional[float] = None,
        nn_level: Optional[int] = None,
        use_flag: bool = True,
        stats: Optional[NNQueryStats] = None,
    ) -> List[NeighborResult]:
        """Route one NN query to the next server."""
        return self._pick_server().handle_nn_query(
            location,
            k,
            range_limit=range_limit,
            nn_level=nn_level,
            use_flag=use_flag,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash_and_recover(self) -> RecoveryReport:
        """Crash every tablet server and recover from durable state.

        Memtables and block caches are lost; commit logs, SSTable runs and
        tablet boundaries survive.  Recovery replays each tablet's log tail
        over its runs, after which table contents, tablet boundaries and
        every subsequent query result are bit-identical to the uncrashed
        run.  The front-end servers themselves are stateless (Section
        4.3.3), so their counters and the indexer facade carry over; the
        contention model is invalidated because tablet load concentrations
        were re-read from a cold start.
        """
        backend = self.indexer.emulator
        recover = getattr(backend, "recover", None)
        if not callable(recover):
            raise ConfigurationError(
                "the storage backend does not support crash recovery"
            )
        report = recover()
        self.contention.invalidate()
        return report

    def fail_server(self, server_id: int) -> ServerFailoverReport:
        """Crash one front-end server and fail its tablets over.

        Unlike :meth:`crash_and_recover` (a whole-cluster power loss), this
        models the paper's deployment reality: individual tablet servers
        die while the cluster keeps serving.  Every tablet whose primary
        was the dead server loses its memtable (it lived in that server's
        memory) and is recovered from its durable commit log and SSTable
        runs — no acknowledged write is lost — then reassigned to the next
        alive server in ring order (the tablet master typically rebalances
        properly afterwards).  Replicas hold no authoritative state, so a
        replica lost with the server is simply dropped from the routing
        table.
        """
        if not 0 <= server_id < len(self.servers):
            raise ConfigurationError(f"no server {server_id} in the cluster")
        server = self.servers[server_id]
        if not server.alive:
            raise ConfigurationError(f"server {server_id} is already down")
        if len(self.alive_server_indices()) <= 1:
            raise ConfigurationError("cannot fail the last alive server")
        backend = self.indexer.emulator
        if not isinstance(backend, ShardedBackend):
            raise ConfigurationError(
                "per-server failover needs a sharded backend with tablets"
            )
        # Resolve ownership before marking the server dead: the fallback
        # resolution must see the pre-crash routing.
        owned: List[Tuple[str, object]] = []
        for name in backend.table_names():
            table = backend.table(name)
            for tablet in table.tablets():
                if self.server_index_for_tablet(tablet.tablet_id) == server_id:
                    owned.append((name, tablet))
        replicas_dropped = tuple(
            tablet_id
            for tablet_id in self.routing.replicated_tablets()
            if server_id in self.routing.read_indices(tablet_id)
        )
        server.alive = False
        self.routing.drop_server(server_id)
        recoveries: List[TableRecovery] = []
        reassigned: List[Tuple[str, int]] = []
        for name, tablet in owned:
            table = backend.table(name)
            recoveries.append(table.recover_tablet(tablet))
            target = self.server_index_for_tablet(tablet.tablet_id)
            self.routing.assign(tablet.tablet_id, target)
            reassigned.append((tablet.tablet_id, target))
        self.contention.invalidate()
        return ServerFailoverReport(
            server_id=server_id,
            tablets=tuple(recoveries),
            reassigned=tuple(reassigned),
            replicas_dropped=replicas_dropped,
        )

    def revive_server(self, server_id: int) -> None:
        """Bring a crashed front-end back into rotation.

        The revived server starts empty-handed: its previous tablets were
        failed over and stay where they are until the master rebalances.
        """
        if not 0 <= server_id < len(self.servers):
            raise ConfigurationError(f"no server {server_id} in the cluster")
        self.servers[server_id].alive = True
        self.contention.invalidate()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def makespan_seconds(self) -> float:
        """Simulated time needed to finish the submitted work: the busiest
        server determines when the cluster is done."""
        return max(server.busy_seconds for server in self.servers)

    def service_time_percentile(self, quantile: float) -> float:
        """Simulated per-request service-time percentile across servers.

        Needs ``record_service_times`` (0.0 otherwise): servers then record
        one sample per request, batches contributing their per-request
        mean.  ``quantile`` is in (0, 1] — 0.99 is the p99 the rebalance
        experiment reports.
        """
        return percentile_of(
            (server.service_time_samples for server in self.servers), quantile
        )

    def metrics_snapshot(self) -> Dict[str, object]:
        """Plain-data accounting view (makespan plus the five metrics
        fields of each :meth:`FrontendServer.export_state` row), shippable
        over the multiprocess RPC boundary for the per-shard merge."""
        return {
            "makespan": self.makespan_seconds(),
            "servers": [server.export_state()[:5] for server in self.servers],
        }

    def export_state(self) -> dict:
        """Plain-data snapshot of everything simulated the cluster holds:
        one row per server, the round-robin cursor, the routing table, the
        contention model's scalars."""
        return {
            "servers": [server.export_state() for server in self.servers],
            "next": self._next,
            "routing": self.routing.export_state(),
            "contention": self.contention.export_state(),
        }

    def install_state(self, state: dict) -> None:
        """Apply :meth:`export_state` to a cluster built from the same
        recipe; any other server count is not this cluster's snapshot."""
        rows = state["servers"]
        if len(rows) != len(self.servers):
            raise UnrecoverableShardError(
                f"snapshot holds {len(rows)} servers, the cluster has {len(self.servers)}"
            )
        for server, row in zip(self.servers, rows):
            server.install_state(row)
        self._next = state["next"]
        self.routing.install_state(state["routing"])
        self.contention.install_state(state["contention"])

    def reset_metrics(self) -> None:
        """Zero every server's accounting."""
        for server in self.servers:
            server.reset_metrics()
        self.contention.invalidate()
        self.pipeline_processed = 0
        self._round_makespans = RoundMakespans()

    # ------------------------------------------------------------------
    # Load-test protocol (shared with ScaleOutCluster; a single cluster
    # completes every round synchronously, so nothing is ever in flight)
    # ------------------------------------------------------------------
    def enqueue_update_batch(
        self, messages: Sequence[UpdateMessage], round_index: Optional[int] = None
    ) -> None:
        """Apply one update round, tagging the makespan it produced."""
        self.pipeline_processed += self.submit_update_batch(messages)
        if round_index is not None:
            self.record_round_makespan(round_index)

    def record_round_makespan(self, round_index: int) -> None:
        self._round_makespans.record(round_index, self.makespan_seconds())

    def makespan_at_round(self, round_index: int) -> float:
        return self._round_makespans.at(round_index)

    def settle(self) -> None:
        """Nothing is in flight and no worker can be dead."""

    @property
    def has_master(self) -> bool:
        return self.master is not None

    def _require_master(self):
        if self.master is None:
            raise ConfigurationError("this cluster has no tablet master")
        return self.master

    def rebalance(self) -> None:
        self._require_master().rebalance()

    def apply_fault(self, fault: Fault) -> List[str]:
        """Fire one simulated :class:`~repro.server.faults.Fault` through
        the master; one description of what actually happened."""
        outcome = self._require_master().apply_fault(
            fault.kind, fault.target, fault.crash_point
        )
        if outcome == "[applied]":  # a single cluster logs revivals bare
            return [fault.describe()]
        return [f"{fault.describe()} {outcome}"]

    def master_action_counts(self) -> Tuple[int, int, int]:
        """Cumulative ``(migrations, replications, failovers)``."""
        if self.master is None:
            return (0, 0, 0)
        return self.master.action_counts()

    def per_server_qps(self) -> List[float]:
        return [
            (server.requests_handled / server.busy_seconds)
            if server.busy_seconds > 0
            else 0.0
            for server in self.servers
        ]

    @property
    def storage_stats(self) -> MoistIndexer:
        """Answers ``tablet_count`` / ``hot_tablet_share`` /
        ``cache_hit_rate`` for result assembly."""
        return self.indexer
