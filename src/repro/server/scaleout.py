"""Shared-nothing scale-out: route requests across shard groups.

:class:`ScaleOutCluster` is the parent-side view of a sharded MOIST
deployment.  Each shard hosts a complete, unmodified stack (emulator,
indexer, server cluster, optional tablet master) on a forked or loopback
worker (:mod:`repro.bigtable.process_backend`), reached over the batched
RPC framing.  The cluster partitions update batches by owning shard, broadcasts query batches, and merges results in
fixed shard order, so its outputs are bit-identical for every worker count
— including the degenerate one-shard in-process case.

Every round — an update batch, a query broadcast, a control-plane CALL
broadcast — goes through the federation's one
:class:`~repro.bigtable.process_backend.ScatterGatherEngine`, which sends,
collects in send order, heals and re-sends with pinned request ids.  Rounds
run in lockstep: each has settled when its call returns, and an
unsupervised cluster is the same loop with no supervisor (the first failed
sweep raises).  The in-process federation differs only in the pipe.

Determinism model: the *shard count* is the unit of determinism (it decides
object placement and per-shard RNG consumption); the *worker count* is the
unit of parallelism (it only decides which OS process executes a shard).
Nothing the parent merges depends on worker count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bigtable.process_backend import (
    FederatedShardedBackend,
    make_scaleout_backend,
    zero_phase,
)
from repro.errors import (
    ConfigurationError,
    FrameCorruptionError,
    WorkerDiedError,
)
from repro.model import NeighborResult, UpdateMessage
from repro.server import rpc
from repro.server.cluster import percentile_of
from repro.server.faults import (
    CORRUPT_BITFLIP,
    KILL_WORKER,
    STOP_WORKER,
    Fault,
)
from repro.server.supervisor import Supervisor
from repro.server.worker import WORKER_PHASES, shard_of


class ScaleOutCluster:
    """Scatter/gather request router over a federation of shard groups.

    Satisfies the load-test cluster protocol of
    :class:`repro.server.cluster.ServerCluster`, plus the process-level
    hook :meth:`apply_chaos_event`.  Every shard's request of a round is on
    the wire before the first response is read, so one round costs one
    round-trip regardless of shard count, and every round has settled when
    its call returns: nothing is ever in flight between calls.  A worker
    killed or stopped between rounds is healed by whichever round meets it
    next, a CALL round included.
    """

    def __init__(
        self,
        backend: FederatedShardedBackend,
        supervision_policy: Optional[str] = None,
        retry_policy: Optional[rpc.RetryPolicy] = None,
        max_consecutive_failures: int = 5,
    ) -> None:
        self.backend = backend
        self.recipes = backend.recipes
        self.num_shards = backend.num_shards
        # Shard 0 speaks for the federation's shape below, so a mixed
        # fleet must be rejected here — otherwise e.g. a master on shard 0
        # only would silently misroute every rebalance tick at the shards
        # without one.
        base = backend.recipes[0]
        for shard_id, recipe in enumerate(backend.recipes):
            for field_name in (
                "with_master",
                "num_servers",
                "record_service_times",
            ):
                if getattr(recipe, field_name) != getattr(base, field_name):
                    raise ConfigurationError(
                        f"mixed fleet: shard {shard_id} disagrees with "
                        f"shard 0 on {field_name} "
                        f"({getattr(recipe, field_name)!r} != "
                        f"{getattr(base, field_name)!r}); every recipe must "
                        "agree on the fields the parent reads from the "
                        "first recipe"
                    )
        self.has_master = base.with_master
        self.num_servers_per_shard = base.num_servers
        #: Last reported simulated makespan per shard; the cluster-wide
        #: makespan is their max (shards run concurrently in wall-clock
        #: but their simulated clocks are independent).
        self._makespans = [0.0] * self.num_shards
        self.retry_policy = retry_policy or rpc.RetryPolicy()
        self.supervisor: Optional[Supervisor] = None
        if supervision_policy is not None:
            self.supervisor = Supervisor(
                backend,
                policy=supervision_policy,
                max_consecutive_failures=max_consecutive_failures,
            )
        backend.engine.retry_policy = self.retry_policy
        backend.engine.supervisor = self.supervisor
        #: See :meth:`metrics_snapshot`.
        self._worker_phase: Optional[Dict[str, float]] = None
        backend.transport.phase = zero_phase()  # the build's frames are not rounds

    @classmethod
    def build(
        cls,
        num_shards: int,
        backend: str = "inprocess",
        num_workers: int = 1,
        timeout_s: float = 120.0,
        supervision_policy: Optional[str] = None,
        retry_policy: Optional[rpc.RetryPolicy] = None,
        max_consecutive_failures: int = 5,
        **recipe_kwargs,
    ) -> "ScaleOutCluster":
        """Build a fully loaded cluster from recipe knobs.

        ``backend`` selects the execution vehicle (``"inprocess"``,
        ``"process"`` or ``"disk"``); every other knob feeds the per-shard
        :class:`repro.server.worker.ShardRecipe`.  A ``supervision_policy``
        enables self-healing.
        """
        built = make_scaleout_backend(
            backend,
            num_shards,
            num_workers=num_workers,
            timeout_s=timeout_s,
            **recipe_kwargs,
        )
        try:
            return cls(
                built,
                supervision_policy=supervision_policy,
                retry_policy=retry_policy,
                max_consecutive_failures=max_consecutive_failures,
            )
        except BaseException:
            built.close()  # a rejected build must not strand its workers
            raise

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def submit_update_batch(self, messages: Sequence[UpdateMessage]) -> int:
        """Partition a batch by owning shard, run it as one round, and
        commit the results in send order.  Returns the number of messages
        processed."""
        if not messages:
            return 0
        buckets: List[List[UpdateMessage]] = [[] for _ in range(self.num_shards)]
        for message in messages:
            buckets[shard_of(message.object_id, self.num_shards)].append(message)
        requests = [
            (shard_id, rpc.OP_UPDATE_BATCH, batch)
            for shard_id, batch in enumerate(buckets)
            if batch
        ]
        processed = 0
        for (shard_id, _opcode, _batch), (count, makespan) in zip(
            requests, self.backend.engine.round(requests)
        ):
            processed += count
            self._makespans[shard_id] = makespan
            if self.supervisor is not None:
                self.supervisor.note_acked_updates(shard_id, count)
        return processed

    def submit_query_batch(
        self, queries: Sequence[object]
    ) -> List[List[NeighborResult]]:
        """Broadcast a query batch to every shard and merge top-k results.

        Objects are spread across shards, so each NN query must probe all
        of them in one round; per query the shard answers are concatenated,
        sorted by ``(distance, object_id)`` and truncated to the query's
        ``k`` — exactly the order a single-shard indexer produces.
        """
        queries = list(queries)
        if not queries:
            return []
        replies = self.backend.engine.round(
            [
                (shard_id, rpc.OP_QUERY_BATCH, queries)
                for shard_id in range(self.num_shards)
            ]
        )
        per_shard: List[List[List[NeighborResult]]] = []
        for shard_id, (results, makespan) in enumerate(replies):
            self._makespans[shard_id] = makespan
            per_shard.append(results)
        merged: List[List[NeighborResult]] = []
        for query_index, query in enumerate(queries):
            combined: List[NeighborResult] = []
            for shard_results in per_shard:
                combined.extend(shard_results[query_index])
            combined.sort(key=lambda result: (result.distance, result.object_id))
            merged.append(combined[: query.k])
        return merged

    # ------------------------------------------------------------------
    # Chaos and recovery
    # ------------------------------------------------------------------
    def apply_chaos_event(self, fault: Fault) -> str:
        """Apply one process :class:`~repro.server.faults.Fault`; returns a
        description.

        Kills and stops are left for the next round's detection path (send
        failure, EOF, response deadline) — that is the machinery under
        test.  Frame corruption is burned on a ping and healed on the
        spot: the worker either exits on the crc mismatch (bitflip → EOF)
        or blocks mid-frame (truncate → deadline), and either way the
        stream is unusable until the worker is replaced.
        """
        supervisor = self.supervisor
        if supervisor is None:
            raise ConfigurationError(
                "this scale-out cluster was built without a supervision policy"
            )
        pool = self.backend.pool
        worker = fault.target
        if worker >= pool.num_workers:
            return f"{fault.describe()} [skipped: no such worker]"
        if fault.kind == KILL_WORKER:
            pool.kill_worker(worker)
            return fault.describe()
        if fault.kind == STOP_WORKER:
            pool.pause_worker(worker)
            return fault.describe()
        mode = "bitflip" if fault.kind == CORRUPT_BITFLIP else "truncate"
        connection = pool.connections[worker]
        connection.inject_fault(mode)
        try:
            request_id = connection.send_request(0, rpc.OP_PING, b"")
            connection.wait(
                request_id,
                deadline_s=min(self.retry_policy.call_deadline_s, 1.0),
            )
        except (WorkerDiedError, FrameCorruptionError):
            pass
        record = supervisor.handle_worker_failure(
            worker, f"injected {mode} frame"
        )
        return f"{fault.describe()} [healed in {record.duration_s:.3f}s]"

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def makespan_seconds(self) -> float:
        """Cluster-wide simulated makespan: the slowest shard's clock."""
        return max(self._makespans)

    def metrics_snapshot(self) -> Dict[str, object]:
        """The transport's phase timing breakdown.

        Phase seconds are wall-clock (parent-side, every frame moved since
        the last metrics reset) and deliberately live *outside*
        ``to_report()``.  On the loopback pool a shard runs its request
        inside the send: its work lands in ``send_seconds`` and
        ``blocked_wait_seconds`` reads ≈ 0.

        ``worker_phase`` is the other side of ``blocked_wait_seconds``:
        the workers' own wall seconds per
        :data:`~repro.server.worker.WORKER_PHASES` step since the last
        reset, summed in shard order *as of the last* :meth:`metrics`
        *round* (``None`` before one, and again after a reset).  The
        snapshot itself never moves a frame, so it leaves pinned frame
        counts alone."""
        snapshot: Dict[str, object] = dict(self.backend.transport.phase)
        snapshot["worker_phase"] = self._worker_phase
        return snapshot

    def reset_metrics(self) -> None:
        """Zero every shard's server accounting and worker wall timers,
        the local makespans, the transport's phase timers and the cached
        ``worker_phase`` sum."""
        self.backend.scatter("reset_metrics")
        self._makespans = [0.0] * self.num_shards
        self.backend.transport.phase = zero_phase()
        self._worker_phase = None

    def metrics(self) -> List[Dict[str, object]]:
        """Every shard's ``metrics`` record, in shard order; also caches
        their ``worker_phase`` sum for :meth:`metrics_snapshot`."""
        per_shard = self.backend.scatter("metrics")
        total = dict.fromkeys(WORKER_PHASES, 0.0)
        for entry in per_shard:
            for step, seconds in entry["worker_phase"].items():
                total[step] += seconds
        self._worker_phase = total
        return per_shard

    def service_time_percentile(self, quantile: float) -> float:
        """Simulated per-request service-time percentile over every shard.

        One :meth:`metrics` round collects each server's row; the parent
        concatenates the rows' samples (their sixth field) in fixed
        ``(shard, server)`` order through
        :func:`repro.server.cluster.percentile_of` (the rule the single
        cluster uses), so the result is identical for every worker count
        and backend — and 0.0 unless the recipes set
        ``record_service_times``, matching the single-cluster build.
        """
        if not self.recipes[0].record_service_times:
            # No shard has samples: skip the round, so a run that records
            # none sends no frame for it.
            return percentile_of((), quantile)
        return percentile_of(
            (row[5] for entry in self.metrics() for row in entry["servers"]),
            quantile,
        )

    def master_action_counts(self) -> Tuple[int, int, int]:
        """Cumulative ``(migrations, replications, failovers)`` summed
        across shards (all zero without masters)."""
        migrations = replications = failovers = 0
        for entry in self.metrics():
            actions = entry["master_actions"]
            migrations += actions[0]
            replications += actions[1]
            failovers += actions[2]
        return migrations, replications, failovers

    def per_server_qps(self) -> List[float]:
        """Per-server QPS, shard clusters flattened in ``(shard, server)``
        order."""
        per_server: List[float] = []
        for entry in self.metrics():
            for updates, queries, update_busy, query_busy, *_ in entry["servers"]:
                busy = update_busy + query_busy
                per_server.append((updates + queries) / busy if busy > 0 else 0.0)
        return per_server

    @property
    def storage_stats(self) -> FederatedShardedBackend:
        """Answers ``tablet_count`` / ``hot_tablet_share`` /
        ``cache_hit_rate`` for result assembly (merged in shard order)."""
        return self.backend

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _require_master(self) -> None:
        if not self.has_master:
            raise ConfigurationError(
                "this scale-out cluster was built without tablet masters"
            )

    def rebalance(self) -> None:
        """Give every shard's master one rebalance tick."""
        self._require_master()
        self.backend.scatter("rebalance")

    def apply_fault(self, fault: Fault) -> List[str]:
        """Broadcast one simulated :class:`~repro.server.faults.Fault` to
        every shard, skip semantics applied shard-side.  Returns one
        description per shard (shard order), each tagged with its shard."""
        self._require_master()
        return self.backend.call_round(
            [
                (
                    "apply_fault",
                    (fault.kind,),
                    {
                        "server_id": fault.target,
                        "crash_point": fault.crash_point,
                        "describe_prefix": f"{fault.describe()} shard {shard_id} ",
                    },
                )
                for shard_id in range(self.num_shards)
            ]
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        # The supervisor holds the backend, whose engine holds the
        # supervisor: cut that cycle so the pool's process handles (and
        # their descriptors) go as soon as the cluster does.
        self.backend.engine.supervisor = None
        self.backend.close()

    def __enter__(self) -> "ScaleOutCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
