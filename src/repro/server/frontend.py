"""A single MOIST front-end server."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.moist import MoistIndexer
from repro.core.nn_search import NNQueryStats, QueryBatchContext
from repro.errors import ConfigurationError
from repro.core.update import UpdateResult
from repro.geometry.point import Point
from repro.model import NeighborResult, UpdateMessage
from repro.server.contention import TabletContentionModel


@dataclass
class FrontendServer:
    """One front-end process handling update and query RPCs.

    Servers in a cluster share the same :class:`MoistIndexer` (and therefore
    the same BigTable backend); each server accounts the simulated time of
    the requests *it* handled so the cluster can compute per-server load and
    the overall makespan.

    Contention on the shared store is the cluster's
    :class:`TabletContentionModel`, whose factor tracks how concentrated the
    cluster's load is on its hottest tablet.
    """

    server_id: int
    indexer: MoistIndexer
    #: Storage-time inflation from contention on the shared BigTable.
    contention: TabletContentionModel
    #: Fixed per-request CPU/RPC overhead on the server itself, on top of
    #: storage time (request parsing, response serialisation).
    request_overhead_s: float = 12e-6
    #: Record one service-time sample per request (off by default — the
    #: rebalance experiments enable it to report tail latency percentiles).
    record_service_times: bool = False

    #: Busy time split by request class, so read/write asymmetry is visible
    #: in reports instead of blending into one mean.
    update_busy_seconds: float = field(default=0.0, init=False)
    query_busy_seconds: float = field(default=0.0, init=False)
    updates_handled: int = field(default=0, init=False)
    queries_handled: int = field(default=0, init=False)
    #: Per-request simulated service times (batch requests record the batch
    #: mean each), populated only when ``record_service_times`` is set.
    service_time_samples: List[float] = field(default_factory=list, init=False)
    #: A crashed front-end stops receiving traffic until revived; the
    #: metrics it accumulated before the crash stay (that work happened).
    alive: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        if self.request_overhead_s < 0:
            raise ConfigurationError("request_overhead_s must be non-negative")

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def handle_update(self, message: UpdateMessage) -> UpdateResult:
        """Process one location update and account its service time."""
        counter = self.indexer.emulator.counter
        before = counter.simulated_seconds
        result = self.indexer.update(message)
        storage = counter.simulated_seconds - before
        service = self.request_overhead_s + storage * self.contention.factor()
        self.update_busy_seconds += service
        self.updates_handled += 1
        if self.record_service_times:
            self.service_time_samples.append(service)
        return result

    def handle_update_batch(self, messages: Sequence[UpdateMessage]) -> int:
        """Process a batch of updates through the group-commit write path.

        Every message still pays the per-request overhead (each was one
        client RPC), but the storage work is accounted once over the whole
        batch — this is the server-side entry point of the batched path.
        Returns the number of messages processed.
        """
        if not messages:
            return 0
        counter = self.indexer.emulator.counter
        before = counter.simulated_seconds
        self.indexer.update_many(list(messages))
        storage = counter.simulated_seconds - before
        service = (
            len(messages) * self.request_overhead_s
            + storage * self.contention.factor()
        )
        self.update_busy_seconds += service
        self.updates_handled += len(messages)
        if self.record_service_times:
            self.service_time_samples.extend([service / len(messages)] * len(messages))
        return len(messages)

    def handle_nn_query(
        self,
        location: Point,
        k: int,
        range_limit: Optional[float] = None,
        nn_level: Optional[int] = None,
        use_flag: bool = True,
        stats: Optional[NNQueryStats] = None,
    ) -> List[NeighborResult]:
        """Process one nearest-neighbour query and account its service time."""
        counter = self.indexer.emulator.counter
        before = counter.simulated_seconds
        results = self.indexer.nearest_neighbors(
            location,
            k,
            range_limit=range_limit,
            nn_level=nn_level,
            use_flag=use_flag,
            stats=stats,
        )
        storage = counter.simulated_seconds - before
        service = self.request_overhead_s + storage * self.contention.factor()
        self.query_busy_seconds += service
        self.queries_handled += 1
        if self.record_service_times:
            self.service_time_samples.append(service)
        return results

    def handle_query_batch(
        self,
        queries: Sequence[object],
        at_time: Optional[float] = None,
        use_flag: bool = True,
        include_followers: bool = True,
        context: Optional[QueryBatchContext] = None,
    ) -> List[List[NeighborResult]]:
        """Process a batch of NN queries through the shared-read path.

        The server-side counterpart of :meth:`handle_update_batch`: each
        query was one client RPC and pays the per-request overhead, but the
        queries execute with one :class:`QueryBatchContext`, so overlapping
        cell scans and follower reads are issued once for the whole batch.
        Results come back in request order, identical to sequential
        :meth:`handle_nn_query` calls.  ``queries`` carry ``location``,
        ``k`` and ``range_limit`` attributes
        (:class:`repro.workload.queries.NNQuery` fits).
        """
        if not queries:
            return []
        counter = self.indexer.emulator.counter
        before = counter.simulated_seconds
        results = self.indexer.nearest_neighbors_batch(
            queries,
            include_followers=include_followers,
            at_time=at_time,
            use_flag=use_flag,
            context=context,
        )
        storage = counter.simulated_seconds - before
        service = (
            len(queries) * self.request_overhead_s
            + storage * self.contention.factor()
        )
        self.query_busy_seconds += service
        self.queries_handled += len(queries)
        if self.record_service_times:
            self.service_time_samples.extend([service / len(queries)] * len(queries))
        return results

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def busy_seconds(self) -> float:
        """Total simulated busy time across both request classes."""
        return self.update_busy_seconds + self.query_busy_seconds

    @property
    def requests_handled(self) -> int:
        """Total requests (updates + queries) handled so far."""
        return self.updates_handled + self.queries_handled

    def export_state(self) -> tuple:
        """This server's accounting as one plain-data row — also the row a
        shard's ``metrics`` record ships per server."""
        return (
            self.updates_handled,
            self.queries_handled,
            self.update_busy_seconds,
            self.query_busy_seconds,
            self.alive,
            tuple(self.service_time_samples),
        )

    def install_state(self, state: tuple) -> None:
        (
            self.updates_handled,
            self.queries_handled,
            self.update_busy_seconds,
            self.query_busy_seconds,
            self.alive,
            samples,
        ) = state
        self.service_time_samples = list(samples)

    def reset_metrics(self) -> None:
        """Zero the per-server accounting (between experiment intervals)."""
        self.install_state((0, 0, 0.0, 0.0, self.alive, ()))
