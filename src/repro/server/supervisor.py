"""Worker supervision: detect dead/hung workers, respawn, readmit.

The supervisor is the parent-side half of the self-healing runtime.  The
worker-side half is the shard's snapshot and request log
(:mod:`repro.disk.store`), which restore its tables, every simulated tally
and the exactly-once slot bit-identically.  The supervisor is the control
loop: told by the
scatter-gather engine that a worker died (EOF, failed send) or hung
(response deadline), it has the pool replace the worker (forked or
loopback) and rebuilds its shards from their
:class:`~repro.server.worker.ShardRecipe`, re-attaching the disk store and
replaying recovery before the shard rejoins routing.  The process faults
of a :class:`~repro.server.faults.FaultSchedule` (SIGKILL, SIGSTOP,
corrupted frames) are the failures the property suites make it heal.

Without a supervisor — the default — the first worker failure propagates
as :class:`~repro.errors.WorkerDiedError` and the run aborts.  A supervisor
runs one of two policies:

``respawn``
    Lossless healing.  Requires a ``storage_dir`` on every recipe (tablet
    masters included: the snapshot carries the master's decision history —
    migration/replication/failover records — alongside the routing
    overrides and replica placement, so a respawned shard's master
    continues byte-identically): the replacement restores every request it
    logged and the retry layer re-sends the dead worker's uncollected
    requests of the round, in their original send order with their
    original pinned request ids — so no acked write is lost and no request
    is applied twice (the worker-side exactly-once slot replays what the
    dead worker had already logged).  Control-plane
    CALLs ride the same rounds, so a mutating verb is healed and resent
    like a data-plane batch.

``respawn_lossy``
    For in-memory shards, which have nothing to restore from: the
    replacement re-preloads from the recipe, silently losing every update
    acked since build — so the loss is *not* silent: the supervisor counts
    acked updates per shard and reports them as ``lost_updates``.

A per-worker circuit breaker counts consecutive failed recoveries; past
``max_consecutive_failures`` it trips to a terminal
:class:`~repro.errors.WorkerCircuitOpenError` instead of respawning a
worker that cannot stay up (bad recipe, poisoned storage, resource
exhaustion) forever.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bigtable.process_backend import FederatedShardedBackend
from repro.errors import ConfigurationError, WorkerCircuitOpenError

SUPERVISION_POLICIES = ("respawn", "respawn_lossy")


@dataclass(frozen=True)
class RecoveryRecord:
    """One healed worker failure (what, why, how long, at what cost)."""

    worker_index: int
    shard_ids: Tuple[int, ...]
    reason: str
    duration_s: float
    lossless: bool
    lost_updates: int


@dataclass
class _WorkerHealth:
    """Per-worker circuit-breaker state."""

    consecutive_failures: int = 0
    total_failures: int = 0


class Supervisor:
    """Failure detection and healing for one :class:`FederatedShardedBackend`.

    Detection is *on-demand*: the scatter-gather engine calls
    :meth:`handle_worker_failure` when a send or collect of any round
    raises :class:`~repro.errors.WorkerDiedError`.  There is no watcher
    thread — batch boundaries are frequent enough, and keeping supervision
    synchronous keeps recovery deterministic (a property the chaos suite
    asserts byte-for-byte).
    """

    def __init__(
        self,
        backend: FederatedShardedBackend,
        policy: str = "respawn",
        max_consecutive_failures: int = 5,
    ) -> None:
        if policy not in SUPERVISION_POLICIES:
            raise ConfigurationError(
                f"unknown supervision policy {policy!r} "
                f"(expected one of {SUPERVISION_POLICIES})"
            )
        if max_consecutive_failures < 1:
            raise ConfigurationError("max_consecutive_failures must be >= 1")
        if policy == "respawn":
            for recipe in backend.recipes:
                if recipe.storage_dir is None:
                    raise ConfigurationError(
                        "lossless respawn needs a storage_dir on every "
                        "recipe; use 'respawn_lossy' for in-memory shards"
                    )
        self.backend = backend
        self.policy = policy
        self.max_consecutive_failures = max_consecutive_failures
        self.recoveries: List[RecoveryRecord] = []
        self._health: Dict[int, _WorkerHealth] = {}
        #: Acked data-plane updates per shard since (re)build — what a
        #: lossy respawn forfeits.  The scale-out cluster feeds this.
        self._acked_updates: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Accounting feeds
    # ------------------------------------------------------------------
    def note_acked_updates(self, shard_id: int, count: int) -> None:
        """Record updates acked by a shard (lossy-respawn loss accounting)."""
        self._acked_updates[shard_id] = (
            self._acked_updates.get(shard_id, 0) + count
        )

    def notify_success(self, worker_index: int) -> None:
        """A full round collected from this worker: close the breaker."""
        health = self._health.get(worker_index)
        if health is not None:
            health.consecutive_failures = 0

    # ------------------------------------------------------------------
    # Healing
    # ------------------------------------------------------------------
    def handle_worker_failure(
        self, worker_index: int, reason: str
    ) -> RecoveryRecord:
        """Heal one failed worker according to the policy.

        Both policies kill the remains, start a replacement on a connection
        that continues the request-id counter, rebind the transport (forget
        the dead worker's failed send) and re-issue ``build_indexer`` per
        shard — which for the disk backend installs the snapshot — tables,
        accounting, the tablet master's decision history and routing
        overrides on master-bearing recipes — and re-runs the logged
        requests before the shard is readmitted to routing.
        """
        health = self._health.setdefault(worker_index, _WorkerHealth())
        health.consecutive_failures += 1
        health.total_failures += 1
        if health.consecutive_failures > self.max_consecutive_failures:
            raise WorkerCircuitOpenError(
                f"worker {worker_index} failed "
                f"{health.consecutive_failures} consecutive times "
                f"(last: {reason}); circuit breaker open"
            )
        started = time.monotonic()
        shard_ids = tuple(self.backend.shards_of_worker(worker_index))
        self.backend.respawn_worker(worker_index)
        for shard_id in shard_ids:
            self.backend.clients[shard_id].call(
                "build_indexer", self.backend.recipes[shard_id]
            )
        lossless = self.policy == "respawn"
        lost_updates = 0
        if not lossless:
            for shard_id in shard_ids:
                lost_updates += self._acked_updates.pop(shard_id, 0)
        record = RecoveryRecord(
            worker_index=worker_index,
            shard_ids=shard_ids,
            reason=reason,
            duration_s=time.monotonic() - started,
            lossless=lossless,
            lost_updates=lost_updates,
        )
        self.recoveries.append(record)
        return record

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """Recovery counts and duration stats (wall-clock, parent-side —
        deliberately *outside* ``to_report()``, which must stay
        byte-identical between runs with and without process faults)."""
        durations = [record.duration_s for record in self.recoveries]
        return {
            "policy": self.policy,
            "recoveries": len(self.recoveries),
            "lossless_recoveries": sum(
                1 for record in self.recoveries if record.lossless
            ),
            "lost_updates": sum(
                record.lost_updates for record in self.recoveries
            ),
            "recovery_seconds_total": sum(durations),
            "recovery_seconds_max": max(durations) if durations else 0.0,
            "recovery_seconds_mean": (
                sum(durations) / len(durations) if durations else 0.0
            ),
            "reasons": [record.reason for record in self.recoveries],
            "worker_failures": {
                index: health.total_failures
                for index, health in sorted(self._health.items())
            },
        }
