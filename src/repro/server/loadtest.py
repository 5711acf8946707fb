"""Load tests producing the QPS figures of Section 4.3, plus the
deterministic fault injector driving the control-plane experiments.

The batched load-test loops double as the cluster's "wall clock": between
request batches they fire the
:class:`~repro.server.faults.FaultSchedule`'s faults and give the tablet
master its rebalance ticks.  Everything is seeded and simulated, so two
identical schedules produce byte-identical :meth:`LoadTestResult.to_report`
renderings — the determinism guard the test suite enforces.

One :class:`LoadTest` drives any cluster that satisfies the small protocol
both :class:`~repro.server.cluster.ServerCluster` and
:class:`~repro.server.scaleout.ScaleOutCluster` implement: submit an update
batch, broadcast queries, read the makespan, fire a fault or a
rebalance tick, and answer the result-assembly reads.  The admit RNG, the
timeline buckets and the control-step cadence therefore consume state in
exactly the same order on every backend, which is why reports are
byte-comparable across them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.model import UpdateMessage
from repro.server.client import ClientSimulator, build_client_fleet
from repro.server.faults import FaultSchedule


@dataclass(frozen=True)
class TimelinePoint:
    """One point of a QPS-over-time plot (Figures 13b/13c)."""

    time_s: float
    qps: float
    failed_qps: float


@dataclass
class LoadTestResult:
    """Outcome of one load test."""

    total_requests: int
    failed_requests: int
    simulated_seconds: float
    qps: float
    per_server_qps: List[float] = field(default_factory=list)
    timeline: List[TimelinePoint] = field(default_factory=list)
    #: Tablets across the backend's tables when the test ended.
    tablet_count: int = 0
    #: Fraction of storage time served by the hottest tablet
    #: (:func:`~repro.bigtable.tablet.hot_share`).
    hot_tablet_share: float = 1.0
    #: Block-cache hit rate of the backend's scans over the test (0.0 for
    #: write-only tests that never scanned).
    cache_hit_rate: float = 0.0
    #: Simulated p99 per-request service time (0.0 unless the cluster was
    #: built with ``record_service_times``).
    p99_service_time_s: float = 0.0
    #: Control-plane activity over the test (0 without a tablet master).
    migrations: int = 0
    replications: int = 0
    failovers: int = 0
    #: Human-readable log of the simulated faults the schedule applied
    #: (faults that could not fire — e.g. crashing the last alive server —
    #: are recorded as skipped).
    faults_applied: List[str] = field(default_factory=list)

    @property
    def mean_latency_s(self) -> float:
        """Mean simulated service time per request."""
        if self.total_requests == 0:
            return 0.0
        return self.simulated_seconds / self.total_requests

    def to_report(self) -> str:
        """Deterministic plain-text rendering of the whole result.

        Every number is simulated (no wall clock enters), so two identical
        seeded runs — same workload, same fault schedule — render
        byte-identical reports; the determinism test locks this in.
        """
        lines = [
            "load test report",
            f"requests: {self.total_requests} completed, "
            f"{self.failed_requests} failed",
            f"simulated seconds: {self.simulated_seconds:.12g}",
            f"qps: {self.qps:.12g}",
            f"mean latency s: {self.mean_latency_s:.12g}",
            f"p99 service time s: {self.p99_service_time_s:.12g}",
            f"tablets: {self.tablet_count}, hot share: "
            f"{self.hot_tablet_share:.12g}",
            f"cache hit rate: {self.cache_hit_rate:.12g}",
            f"control plane: {self.migrations} migrations, "
            f"{self.replications} replications, {self.failovers} failovers",
        ]
        lines.append("per-server qps:")
        for index, qps in enumerate(self.per_server_qps):
            lines.append(f"  server {index}: {qps:.12g}")
        lines.append("faults applied:")
        if self.faults_applied:
            lines.extend(f"  {entry}" for entry in self.faults_applied)
        else:
            lines.append("  (none)")
        lines.append("timeline:")
        for point in self.timeline:
            lines.append(
                f"  t={point.time_s:.12g} qps={point.qps:.12g} "
                f"failed={point.failed_qps:.12g}"
            )
        return "\n".join(lines) + "\n"


#: Batches (or mixed rounds) per timeline point of the batched runners.
BUCKET_BATCHES = 4


class _TimelineBucket:
    """Accumulates one bucket of a QPS timeline and emits points.

    Shared by every load-test loop: callers report completed/failed
    requests as they happen and count *units* (requests, batches or mixed
    rounds — whatever the loop's bucket resolution is) toward the flush
    threshold.  Every round has settled when its call returns, so a full
    bucket emits its :class:`TimelinePoint` at once, from the simulated
    makespan growth since the previous point.
    """

    __slots__ = (
        "threshold",
        "points",
        "_makespan",
        "_start_makespan",
        "_completed",
        "_failed",
        "_units",
    )

    def __init__(self, threshold: int, makespan: Callable[[], float]) -> None:
        self.threshold = threshold
        self.points: List[TimelinePoint] = []
        self._makespan = makespan
        self._start_makespan = 0.0
        self._completed = 0
        self._failed = 0
        self._units = 0

    def add(self, completed: int, failed: int) -> None:
        self._completed += completed
        self._failed += failed

    def tick(self) -> None:
        """Count one unit; at the threshold, emit a point."""
        self._units += 1
        if self._units >= self.threshold:
            self._flush()

    def finish(self) -> None:
        """Emit the trailing partial bucket (if it completed anything)."""
        if self._completed > 0:
            self._flush()

    def _flush(self) -> None:
        makespan = self._makespan()
        elapsed = max(makespan - self._start_makespan, 1e-12)
        self.points.append(
            TimelinePoint(
                time_s=makespan,
                qps=self._completed / elapsed,
                failed_qps=self._failed / elapsed,
            )
        )
        self._start_makespan = makespan
        self._completed = 0
        self._failed = 0
        self._units = 0


class LoadTest:
    """Drives a cluster — single or scale-out — with seeded traffic."""

    def __init__(
        self,
        cluster,
        clients: Optional[Sequence[ClientSimulator]] = None,
        failure_probability: float = 0.002,
        seed: int = 404,
        rebalance_every: int = 0,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if not 0.0 <= failure_probability < 1.0:
            raise ConfigurationError("failure_probability must be in [0, 1)")
        if rebalance_every < 0:
            raise ConfigurationError("rebalance_every must be >= 0")
        if rebalance_every > 0 and not cluster.has_master:
            raise ConfigurationError("rebalance_every needs a tablet master")
        faults = faults or FaultSchedule()
        planes = {fault.plane for fault in faults}
        if "simulated" in planes and not cluster.has_master:
            raise ConfigurationError("simulated faults need a tablet master")
        if "process" in planes and getattr(cluster, "supervisor", None) is None:
            raise ConfigurationError(
                "process faults need a supervised scale-out cluster"
            )
        self.cluster = cluster
        self.clients = list(clients) if clients is not None else []
        self.failure_probability = failure_probability
        self.rng = random.Random(seed)
        #: Control plane: the batched loops give the cluster's master(s) a
        #: rebalance tick every ``rebalance_every`` batches (0 = never) and
        #: fire the schedule's faults at batch boundaries.
        self.rebalance_every = rebalance_every
        self.faults = faults
        self._faults_applied: List[str] = []
        self._master_baseline = (0, 0, 0)

    def _begin_run(self) -> None:
        """Per-run bookkeeping reset: cluster metrics, the applied-fault
        log, and a snapshot of the cumulative master action counts so each
        result reports only the actions of *its* run."""
        self.cluster.reset_metrics()
        self._faults_applied = []
        self._master_baseline = self.cluster.master_action_counts()

    # ------------------------------------------------------------------
    # Control plane ticks
    # ------------------------------------------------------------------
    def _control_step(self, batch_index: int) -> None:
        """One batch-boundary tick: simulated faults, the rebalance
        cadence, then process faults.

        Simulated faults are part of the deterministic workload: they are
        logged in ``faults_applied`` and replayed identically by a
        reference run (unfireable ones are logged as skipped).  Process
        faults fire *last*, every worker idle again, so a SIGKILL paired
        with a MIGRATION_CRASH lands mid-migration, right after the aborted
        hand-off hit the checkpoint; they stay out of the log, so
        ``to_report()`` is byte-identical to a run without them.
        """
        cluster = self.cluster
        faults = self.faults.at(batch_index)
        for fault in faults:
            if fault.plane == "simulated":
                self._faults_applied.extend(cluster.apply_fault(fault))
        if (
            self.rebalance_every > 0
            and batch_index > 0
            and batch_index % self.rebalance_every == 0
        ):
            cluster.rebalance()
        for fault in faults:
            if fault.plane == "process":
                cluster.apply_chaos_event(fault)

    def _admit(self, items: Sequence) -> Tuple[list, int]:
        """Split one request slice into ``(admitted, dropped)``.

        Dropped requests model client RPCs failing before reaching a
        server (overload/timeouts in the paper's plots): they consume no
        simulated time and are excluded from the QPS numerator, matching
        the dashed series of Figures 13b/13c.
        """
        admitted = []
        dropped = 0
        for item in items:
            if self.failure_probability and self.rng.random() < self.failure_probability:
                dropped += 1
            else:
                admitted.append(item)
        return admitted, dropped

    # ------------------------------------------------------------------
    # Update load tests
    # ------------------------------------------------------------------
    def run_updates(
        self,
        messages: Sequence[UpdateMessage],
        bucket_requests: int = 1000,
    ) -> LoadTestResult:
        """Feed a fixed update stream through a single cluster, one
        request at a time.

        ``bucket_requests`` controls the resolution of the QPS timeline: one
        timeline point is emitted per that many requests, using the
        simulated makespan growth within the bucket.
        """
        if bucket_requests <= 0:
            raise ConfigurationError("bucket_requests must be positive")
        cluster = self.cluster
        if not hasattr(cluster, "submit_update"):
            raise ConfigurationError(
                "single-request and client-burst tests are single-cluster "
                "only; use the batched runs"
            )
        self._begin_run()
        bucket = _TimelineBucket(bucket_requests, cluster.makespan_seconds)
        failed = 0
        completed = 0
        # On the single-request path one control round == one timeline
        # bucket of requests, so fault schedules and rebalance ticks work
        # here too (at bucket granularity rather than batch granularity).
        control_round = -1
        for index, message in enumerate(messages):
            round_index = index // bucket_requests
            if round_index != control_round:
                control_round = round_index
                self._control_step(round_index)
            # Failures are checked per message (not pre-filtered) so each
            # one lands in the timeline bucket where it occurred.
            if self.failure_probability and self.rng.random() < self.failure_probability:
                failed += 1
                bucket.add(0, 1)
                continue
            cluster.submit_update(message)
            completed += 1
            bucket.add(1, 0)
            bucket.tick()
        bucket.finish()
        return self._build_result(
            completed, failed, cluster.makespan_seconds(), bucket.points
        )

    # The batched loops submit one round at a time and every round has
    # settled when its call returns — on a single cluster and on a
    # federation alike — which is why reports stay byte-identical across
    # backends.

    def run_update_batches(
        self,
        messages: Sequence[UpdateMessage],
        batch_size: int = 256,
    ) -> LoadTestResult:
        """Feed the update stream through the tablet-routed batched path.

        The stream is cut into client-side batches of ``batch_size``
        messages; each batch is partitioned by owning tablet (and, on a
        federation, owning shard first) and dispatched to the tablet's
        pinned server, exercising the group-commit write path end to end.
        One timeline point is emitted every :data:`BUCKET_BATCHES` batches.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        self._begin_run()
        cluster = self.cluster
        bucket = _TimelineBucket(BUCKET_BATCHES, cluster.makespan_seconds)
        completed = 0
        failed = 0
        for batch_index, start in enumerate(range(0, len(messages), batch_size)):
            self._control_step(batch_index)
            batch, dropped = self._admit(messages[start : start + batch_size])
            failed += dropped
            completed += cluster.submit_update_batch(batch)
            bucket.add(len(batch), dropped)
            bucket.tick()
        bucket.finish()
        return self._build_result(
            completed,
            failed,
            cluster.makespan_seconds(),
            bucket.points,
        )

    def run_mixed_batches(
        self,
        messages: Sequence[UpdateMessage],
        queries: Sequence[object],
        batch_size: int = 256,
    ) -> LoadTestResult:
        """Drive interleaved update and query batches through the cluster.

        Each round sends one update batch through the tablet-routed
        group-commit path and one query batch through the tablet-pinned
        shared-read path, until both streams are exhausted — the read/write
        mix is therefore set by the relative lengths of ``messages`` and
        ``queries``.  ``queries`` carry ``location``/``k``/``range_limit``
        attributes (:class:`repro.workload.queries.NNQuery` fits).  Client
        RPC failures hit updates and queries alike.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        self._begin_run()
        cluster = self.cluster
        bucket = _TimelineBucket(BUCKET_BATCHES, cluster.makespan_seconds)
        failed = 0
        completed = 0
        update_offset = 0
        query_offset = 0
        batch_index = 0
        while update_offset < len(messages) or query_offset < len(queries):
            self._control_step(batch_index)
            update_batch, dropped_updates = self._admit(
                messages[update_offset : update_offset + batch_size]
            )
            update_offset += batch_size
            query_batch, dropped_queries = self._admit(
                queries[query_offset : query_offset + batch_size]
            )
            query_offset += batch_size
            failed += dropped_updates + dropped_queries
            completed += cluster.submit_update_batch(update_batch)
            if query_batch:
                completed += len(cluster.submit_query_batch(query_batch))
            bucket.add(
                len(update_batch) + len(query_batch),
                dropped_updates + dropped_queries,
            )
            bucket.tick()
            batch_index += 1
        bucket.finish()
        return self._build_result(
            completed,
            failed,
            cluster.makespan_seconds(),
            bucket.points,
        )

    def _build_result(
        self,
        completed: int,
        failed: int,
        makespan: float,
        timeline: List[TimelinePoint],
    ) -> LoadTestResult:
        cluster = self.cluster
        per_server = cluster.per_server_qps()
        migrations, replications, failovers = cluster.master_action_counts()
        storage = cluster.storage_stats
        return LoadTestResult(
            total_requests=completed,
            failed_requests=failed,
            simulated_seconds=makespan,
            qps=completed / makespan if makespan > 0 else 0.0,
            per_server_qps=per_server,
            timeline=timeline,
            tablet_count=storage.tablet_count(),
            hot_tablet_share=storage.hot_tablet_share(),
            cache_hit_rate=storage.cache_hit_rate(),
            p99_service_time_s=cluster.service_time_percentile(0.99),
            migrations=migrations - self._master_baseline[0],
            replications=replications - self._master_baseline[1],
            failovers=failovers - self._master_baseline[2],
            faults_applied=list(self._faults_applied),
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_fleet(
        cls,
        cluster,
        num_clients: int,
        total_objects: int,
        threads: int = 100,
        failure_probability: float = 0.002,
        seed: int = 404,
    ) -> "LoadTest":
        """Build a load test with an evenly partitioned client fleet."""
        clients = build_client_fleet(
            num_clients=num_clients,
            total_objects=total_objects,
            region=cluster.indexer.config.world,
            threads=threads,
            seed=seed,
        )
        return cls(
            cluster,
            clients=clients,
            failure_probability=failure_probability,
            seed=seed,
        )
