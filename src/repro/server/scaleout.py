"""Shared-nothing scale-out: route requests across shard groups.

:class:`ScaleOutCluster` is the parent-side view of a sharded MOIST
deployment.  Each shard hosts a complete, unmodified stack (emulator,
indexer, server cluster, optional tablet master) behind a shard transport
(:mod:`repro.bigtable.process_backend`) — in-process, or worker processes
reached over the batched RPC framing.  The cluster partitions update
batches by owning shard, broadcasts query batches, and merges results in
fixed shard order, so its outputs are bit-identical for every worker count
— including the degenerate one-shard in-process case.

One decision lives here and nowhere else: *how one round of per-shard
requests is sent, collected in send order, healed and re-sent with its
pinned request ids* — :class:`ScatterGatherEngine`.  An update window is
``W`` rounds in flight, lockstep is ``W = 1``, a query broadcast is one
round behind a barrier, an unsupervised cluster is the same loop with no
supervisor (the first failed sweep raises), and the in-process federation
is a transport whose sends complete synchronously.

Determinism model: the *shard count* is the unit of determinism (it decides
object placement and per-shard RNG consumption); the *worker count* is the
unit of parallelism (it only decides which OS process executes a shard).
Nothing the parent merges depends on worker count.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bigtable.process_backend import (
    FederatedShardedBackend,
    ProcessShardedBackend,
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
from repro.server.cluster import RoundMakespans, percentile_of
from repro.server.faults import (
    CORRUPT_BITFLIP,
    KILL_WORKER,
    STOP_WORKER,
    Fault,
)
from repro.server.supervisor import Supervisor
from repro.server.worker import WORKER_PHASES, shard_of


class ScatterGatherEngine:
    """Rounds of per-shard requests in flight over one shard transport.

    :meth:`enqueue` puts a round on its way without waiting; :meth:`drain`
    collects everything in flight **in send order**, so what the caller
    commits never depends on arrival order.  A collect that raises
    :class:`WorkerDiedError` / :class:`FrameCorruptionError` — dead worker,
    failed send, expired per-call deadline, corrupt frame — marks the
    owning worker and the sweep moves on.  After each sweep every marked
    worker is healed through the supervisor (sorted worker order, bounded
    by ``retry_policy`` with backoff between attempts) and its *entire*
    uncollected in-flight set is re-sent in the original order under the
    original request ids, which the worker-side dedup window uses to replay
    what the dead worker had already applied and apply the rest exactly
    once.  Without a supervisor the first failed sweep raises.
    """

    def __init__(
        self,
        transport: object,
        retry_policy: rpc.RetryPolicy,
        supervisor: Optional[Supervisor] = None,
    ) -> None:
        self.transport = transport
        self.retry_policy = retry_policy
        self.supervisor = supervisor
        #: ``(shard_id, token, round_index)`` per outstanding request.
        self._inflight: List[Tuple[int, Any, Optional[int]]] = []
        self.inflight_rounds = 0

    def enqueue(
        self,
        requests: Sequence[Tuple[int, int, Any]],
        round_index: Optional[int] = None,
    ) -> None:
        """Send one round of ``(shard_id, opcode, payload)`` requests."""
        tokens = self.transport.send(requests)
        for request, token in zip(requests, tokens):
            self._inflight.append((request[0], token, round_index))
        self.inflight_rounds += 1

    def drain(self) -> List[Tuple[int, Any, Optional[int]]]:
        """Collect every in-flight request -> ``(shard_id, result,
        round_index)`` triples in send order."""
        entries, self._inflight = self._inflight, []
        self.inflight_rounds = 0
        transport = self.transport
        policy = self.retry_policy
        owners = [transport.worker_of(shard_id) for shard_id, _, _ in entries]
        results: Dict[int, Any] = {}
        failed: Dict[int, str] = {}
        attempts = 1
        while True:
            for index, (shard_id, token, _round) in enumerate(entries):
                if index in results or owners[index] in failed:
                    continue
                try:
                    results[index] = transport.collect(
                        token, policy.call_deadline_s
                    )
                except (WorkerDiedError, FrameCorruptionError) as exc:
                    failed[owners[index]] = f"shard {shard_id}: {exc}"
            if not failed:
                break
            if self.supervisor is None or attempts >= policy.max_attempts:
                reasons = "; ".join(
                    f"worker {worker}: {reason}"
                    for worker, reason in sorted(failed.items())
                )
                raise WorkerDiedError(
                    f"scatter round failed after {attempts} attempts ({reasons})"
                )
            time.sleep(policy.backoff_s(attempts))
            attempts += 1
            for worker in sorted(failed):
                self.supervisor.handle_worker_failure(worker, failed[worker])
                transport.transmit(
                    worker,
                    [
                        entries[index][1]
                        for index, owner in enumerate(owners)
                        if owner == worker and index not in results
                    ],
                )
            failed.clear()
        if self.supervisor is not None:
            for worker in set(owners):
                self.supervisor.notify_success(worker)
        return [
            (shard_id, results[index], round_index)
            for index, (shard_id, _token, round_index) in enumerate(entries)
        ]

    def discard(self) -> None:
        """Forget everything in flight without waiting for it."""
        self._inflight = []
        self.inflight_rounds = 0


class ScaleOutCluster:
    """Scatter/gather request router over a federation of shard groups.

    Satisfies the load-test cluster protocol of
    :class:`repro.server.cluster.ServerCluster`, plus the process-level
    hooks (:meth:`apply_chaos_event`, :meth:`heal_dead_workers`).  Every
    round is pipelined: every shard's request is on the wire before the
    first response is read, so one round costs one round-trip regardless
    of shard count.

    The parent may keep up to ``window`` whole update rounds in flight
    before blocking (:meth:`enqueue_update_batch` /
    :meth:`drain_update_window`), overlapping parent-side columnar encode
    of round *k+1* and decode of round *k−1* with worker-side apply of
    round *k*.  Per-connection FIFO order is untouched — a worker applies
    its frames in send order — so every shard sees exactly the batch
    stream it would have seen at ``window=1`` and the simulated results
    stay byte-identical for every window size.  Query broadcasts,
    control-plane verbs, process faults and metric reads all drain the
    window first (an explicit barrier), so nothing can observe a shard
    mid-window.
    """

    def __init__(
        self,
        backend: FederatedShardedBackend,
        supervision_policy: Optional[str] = None,
        retry_policy: Optional[rpc.RetryPolicy] = None,
        max_consecutive_failures: int = 5,
        window: int = 1,
    ) -> None:
        self.backend = backend
        self.clients = backend.clients
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
                "durable_accounting",
                "dedup_window",
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
        self._round_makespans = RoundMakespans()
        self.retry_policy = retry_policy or rpc.RetryPolicy()
        self.supervisor: Optional[Supervisor] = None
        if supervision_policy is not None:
            if not isinstance(backend, ProcessShardedBackend):
                raise ConfigurationError(
                    "supervision needs the process backend — the in-process "
                    "federation has no worker processes to supervise"
                )
            self.supervisor = Supervisor(
                backend,
                policy=supervision_policy,
                retry_policy=self.retry_policy,
                max_consecutive_failures=max_consecutive_failures,
            )
        self._engine = ScatterGatherEngine(
            backend.transport, self.retry_policy, self.supervisor
        )
        self.window = 1
        #: See :meth:`metrics_snapshot`.
        self._worker_phase: Optional[Dict[str, float]] = None
        self._zero_pipeline_metrics()  # the build's frames are not rounds
        self.set_window(window)

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
        window: int = 1,
        **recipe_kwargs,
    ) -> "ScaleOutCluster":
        """Build a fully loaded cluster from recipe knobs.

        ``backend`` selects the execution vehicle (``"inprocess"``,
        ``"process"`` or ``"disk"``); every other knob feeds the per-shard
        :class:`repro.server.worker.ShardRecipe`.  A ``supervision_policy``
        enables self-healing; ``"respawn"`` (lossless) additionally turns
        on durable accounting checkpoints so a respawned shard restores its
        simulated tallies and dedup window.  ``window`` bounds the
        in-flight update rounds per worker; the worker-side dedup window is
        sized to at least ``window`` so a heal-then-resend of the whole
        in-flight window stays exactly-once.
        """
        if supervision_policy == "respawn":
            recipe_kwargs.setdefault("durable_accounting", True)
        recipe_kwargs.setdefault("dedup_window", max(8, window))
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
                window=window,
            )
        except BaseException:
            built.close()  # a rejected build must not strand its workers
            raise

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def submit_update_batch(self, messages: Sequence[UpdateMessage]) -> int:
        """Partition a batch by owning shard, dispatch, and wait for it.

        The synchronous surface: one call is one enqueued round followed by
        a full window drain, so callers that never touch the windowed API
        get exact ``window=1`` semantics.  Returns the number of messages
        processed across everything the drain collected.
        """
        if not messages:
            return 0
        before = self._pipeline_processed
        self.enqueue_update_batch(messages)
        self.drain_update_window()
        return self._pipeline_processed - before

    # ------------------------------------------------------------------
    # Update windows
    # ------------------------------------------------------------------
    def _zero_pipeline_metrics(self) -> None:
        self._pipeline_processed = 0
        self._counters = {
            "blocking_waits": 0,
            "barrier_drains": 0,
            "rounds_enqueued": 0,
            "drains": 0,
        }
        self.backend.transport.phase = zero_phase()

    def set_window(self, window: int) -> None:
        """Bound the in-flight update rounds per worker.

        The window cannot exceed the worker-side dedup depth: a heal must
        be able to resend the *whole* in-flight window with original ids
        and have every already-applied batch replayed, not re-applied.
        """
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        dedup_depth = self.recipes[0].dedup_window
        if window > dedup_depth:
            raise ConfigurationError(
                f"window {window} exceeds the worker-side dedup depth "
                f"{dedup_depth}; rebuild with dedup_window >= window"
            )
        self.drain_update_window()
        self.window = window

    @property
    def pipeline_processed(self) -> int:
        """Messages processed through update windows since the last
        metrics reset (committed at drain time, in send order)."""
        return self._pipeline_processed

    def enqueue_update_batch(
        self,
        messages: Sequence[UpdateMessage],
        round_index: Optional[int] = None,
    ) -> None:
        """Put one update round in flight without waiting for it.

        Parent-side encode happens here — while workers are still applying
        previously enqueued rounds.  When the window is full the call
        drains it first, so at most ``self.window`` rounds are ever
        outstanding.  ``round_index`` tags the round for
        :meth:`makespan_at_round` (the load test's deferred timeline).
        """
        if not messages:
            return
        if self._engine.inflight_rounds >= self.window:
            self.drain_update_window()
        buckets: List[List[UpdateMessage]] = [[] for _ in range(self.num_shards)]
        for message in messages:
            buckets[shard_of(message.object_id, self.num_shards)].append(message)
        self._engine.enqueue(
            [
                (shard_id, rpc.OP_UPDATE_BATCH, batch)
                for shard_id, batch in enumerate(buckets)
                if batch
            ],
            round_index,
        )
        self._counters["rounds_enqueued"] += 1

    def drain_update_window(self) -> int:
        """Collect every in-flight update round (the explicit barrier).

        Responses are committed in send order, so makespans, ack
        accounting and the per-round makespan record are independent of
        arrival order.  Returns the messages processed by this drain.
        """
        if not self._engine.inflight_rounds:
            return 0
        self._counters["drains"] += 1
        self._counters["blocking_waits"] += 1
        processed = 0
        for shard_id, (count, makespan), round_index in self._engine.drain():
            processed += count
            self._makespans[shard_id] = makespan
            if round_index is not None:
                self._round_makespans.record(round_index, makespan)
            if self.supervisor is not None:
                self.supervisor.note_acked_updates(shard_id, count)
        self._pipeline_processed += processed
        return processed

    def _barrier(self) -> int:
        """Drain before anything that must observe settled shards (query
        broadcasts, control-plane verbs, process faults, metric reads)."""
        if self._engine.inflight_rounds:
            self._counters["barrier_drains"] += 1
        return self.drain_update_window()

    def settle(self) -> None:
        """End of a load-test run: drain the window, then sweep-and-heal so
        a failure injected with no round left to detect it cannot crash the
        fail-fast result-assembly scatters."""
        self.drain_update_window()
        self.heal_dead_workers()

    def record_round_makespan(self, round_index: int) -> None:
        """Pin the current *settled* makespan to a round marker.

        The mixed load-test loop calls this right after a barriered query
        broadcast: queries advance shard clocks outside the update
        windows, and the deferred timeline still needs
        :meth:`makespan_at_round` to see that growth."""
        self._round_makespans.record(round_index, self.makespan_seconds())

    def makespan_at_round(self, round_index: int) -> float:
        """The cluster-wide simulated makespan *as of* a past round — what
        a ``window=1`` engine would have reported right after it."""
        return self._round_makespans.at(round_index)

    def metrics_snapshot(self) -> Dict[str, object]:
        """Pipeline counters and the transport's phase timing breakdown.

        Phase seconds are wall-clock (parent-side, every frame moved since
        the last metrics reset) and deliberately live *outside*
        ``to_report()``; the counter fields (``blocking_waits``,
        ``rounds_enqueued``, ...) count update windows and are
        machine-independent — functions of the batch schedule only — which
        is what the CI overlap guard pins.

        ``worker_phase`` is the other side of ``blocked_wait_seconds``:
        the workers' own wall seconds per
        :data:`~repro.server.worker.WORKER_PHASES` step, summed in shard
        order *as of the last* :meth:`metrics` *round* (``None`` before
        one).  The snapshot itself never moves a frame — it stays callable
        with a window in flight and leaves pinned frame counts alone."""
        snapshot: Dict[str, object] = dict(self.backend.transport.phase)
        snapshot.update(self._counters)
        snapshot["window"] = self.window
        snapshot["inflight_rounds"] = self._engine.inflight_rounds
        snapshot["worker_phase"] = self._worker_phase
        return snapshot

    def submit_query_batch(
        self, queries: Sequence[object]
    ) -> List[List[NeighborResult]]:
        """Broadcast a query batch to every shard and merge top-k results.

        Objects are spread across shards, so each NN query must probe all
        of them — one round behind the barrier; per query the shard answers
        are concatenated, sorted by ``(distance, object_id)`` and truncated
        to the query's ``k`` — exactly the order a single-shard indexer
        produces.
        """
        queries = list(queries)
        if not queries:
            return []
        self._barrier()
        self._engine.enqueue(
            [
                (shard_id, rpc.OP_QUERY_BATCH, queries)
                for shard_id in range(self.num_shards)
            ]
        )
        per_shard: List[List[List[NeighborResult]]] = []
        for shard_id, (results, makespan), _round in self._engine.drain():
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
    def _require_supervision(self) -> Supervisor:
        if self.supervisor is None:
            raise ConfigurationError(
                "this scale-out cluster was built without a supervision "
                "policy"
            )
        return self.supervisor

    def apply_chaos_event(self, fault: Fault) -> str:
        """Apply one process :class:`~repro.server.faults.Fault`; returns a
        description.

        Kills and stops are left for the next dispatch round's detection
        path (send failure, EOF, ping deadline) — that is the machinery
        under test.  Frame corruption is burned on a ping and healed on the
        spot: the worker either exits on the crc mismatch (bitflip → EOF)
        or blocks mid-frame (truncate → deadline), and either way the
        stream is unusable until the worker is replaced.
        """
        supervisor = self._require_supervision()
        self._barrier()
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

    def heal_dead_workers(self) -> int:
        """Sweep-and-heal: probe every worker and respawn the failed ones.

        Failures injected near the end of a run may have no dispatch round
        left to detect them; :meth:`settle` and the mutating control-plane
        verbs call this so their fail-fast CALL rounds (``metrics``,
        ``rebalance``, ``apply_fault``) meet a healthy pool.  Returns the
        number of workers healed (0 when unsupervised).
        """
        if self.supervisor is None:
            return 0
        self._barrier()
        healed = 0
        for worker in range(self.backend.pool.num_workers):
            try:
                self.supervisor.check_worker(worker)
            except (WorkerDiedError, FrameCorruptionError) as exc:
                self.supervisor.handle_worker_failure(worker, f"sweep: {exc}")
                healed += 1
        return healed

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def makespan_seconds(self) -> float:
        """Cluster-wide simulated makespan: the slowest shard's clock."""
        return max(self._makespans)

    def reset_metrics(self) -> None:
        """Zero every shard's server accounting, the local makespans and
        the pipeline counters (draining any leftover window first)."""
        self._barrier()
        self.backend.scatter("reset_metrics")
        self._makespans = [0.0] * self.num_shards
        self._round_makespans = RoundMakespans()
        self._zero_pipeline_metrics()

    def metrics(self) -> List[Dict[str, object]]:
        """Per-shard metrics dicts, in shard order."""
        self._barrier()
        per_shard = self.backend.scatter("metrics")
        total = dict.fromkeys(WORKER_PHASES, 0.0)
        for entry in per_shard:
            for step, seconds in entry["worker_phase"].items():
                total[step] += seconds
        self._worker_phase = total
        return per_shard

    def service_time_percentile(self, quantile: float) -> float:
        """Simulated per-request service-time percentile over every shard.

        One read-only scatter collects each shard's samples (flattened in
        server order worker-side); the parent concatenates them in fixed
        shard order through :func:`repro.server.cluster.percentile_of` (the
        rule the single cluster uses), so the result is identical for every
        worker count, backend and window size — and 0.0 unless the recipes
        set ``record_service_times``, matching the single-cluster build.
        """
        if not self.recipes[0].record_service_times:
            # No shard has samples; skip the scatter so non-recording runs
            # keep their exact pre-p99 wire-frame counts.
            return percentile_of((), quantile)
        self._barrier()
        return percentile_of(
            self.backend.scatter("service_time_samples"), quantile
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
            for updates, queries, update_busy, query_busy, _alive in entry["servers"]:
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
        # CALL rounds are fail-fast (mutating verbs are not
        # dedup-protected); sweep-and-heal first so a worker killed at an
        # earlier boundary — possibly without any intervening dispatch to
        # detect it — meets a healthy pool with its master state restored
        # from the checkpoint.
        self.heal_dead_workers()
        self._barrier()
        self.backend.scatter("rebalance")

    def apply_fault(self, fault: Fault) -> List[str]:
        """Broadcast one simulated :class:`~repro.server.faults.Fault` to
        every shard, skip semantics applied shard-side.  Returns one
        description per shard (shard order), each tagged with its shard."""
        self._require_master()
        self.heal_dead_workers()  # same heal-before-CALL as :meth:`rebalance`
        self._barrier()
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
        # Discard (never drain) the in-flight window: close must not block
        # on workers that may already be gone.
        self._engine.discard()
        self.backend.close()

    def __enter__(self) -> "ScaleOutCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
