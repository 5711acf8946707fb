"""Process-level chaos schedules for the scale-out runtime.

A :class:`ChaosPlan` is the process-boundary sibling of the simulated
``FaultPlan``: a seeded, pre-generated schedule of *real* failures —
SIGKILL, SIGSTOP, corrupted RPC frames — fired at batch boundaries of a
:class:`~repro.server.loadtest.LoadTest` over a supervised
:class:`~repro.server.scaleout.ScaleOutCluster`.  Batch-boundary delivery
is what makes chaos deterministic: the victim worker is idle when the
signal lands (the previous round was fully collected, the next round's
requests have not been sent), so the set of applied batches at every kill
point is a pure function of the schedule, and a supervised run's
``to_report()`` must equal the fault-free run's byte for byte — the
property the chaos suite asserts.

The plan consumes **no** randomness from the load test's admission rng; it
draws from its own seeded generator at construction, so the workload under
chaos is literally the same request stream as the reference run.

A plan may also *fold in* the simulated control-plane faults: a
:class:`~repro.server.loadtest.FaultPlan` attached as ``fault_plan`` rides
the same timeline (and :meth:`seeded` can draw one from the same rng).
Simulated faults are part of the deterministic workload — they appear in
``faults_applied`` and must fire identically in the reference run — while
the chaos events stay report-invisible.  Within one batch boundary the
load test fires the simulated faults *first* and the chaos events last,
so a ``MIGRATION_CRASH`` paired with a ``KILL_WORKER`` at the same batch
SIGKILLs the worker **mid-migration**: the just-checkpointed aborted
hand-off (master record, untouched routing) must survive the respawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.server.loadtest import (
    CRASH_SERVER,
    MIGRATION_CRASH,
    REVIVE_SERVER,
    FaultEvent,
    FaultPlan,
)
from repro.server.master import CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF

#: Hard kill: the worker vanishes mid-run (waitpid detection).
KILL_WORKER = "sigkill"
#: Freeze: the worker stays alive but stops answering (deadline detection).
STOP_WORKER = "sigstop"
#: Flip a bit in an outgoing frame (crc detection on the worker side).
CORRUPT_BITFLIP = "corrupt_bitflip"
#: Ship half a frame and drop the rest (deadline detection).
CORRUPT_TRUNCATE = "corrupt_truncate"

CHAOS_KINDS = (KILL_WORKER, STOP_WORKER, CORRUPT_BITFLIP, CORRUPT_TRUNCATE)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled process-level failure."""

    at_batch: int
    worker_index: int
    kind: str

    def describe(self) -> str:
        return f"batch {self.at_batch}: {self.kind} worker {self.worker_index}"


class ChaosPlan:
    """A deterministic schedule of process-level failures.

    ``fault_plan`` optionally folds a simulated
    :class:`~repro.server.loadtest.FaultPlan` into the same timeline; a
    :class:`~repro.server.loadtest.LoadTest` given a chaos plan that
    carries one adopts it as its fault plan.
    """

    def __init__(
        self,
        events: Sequence[ChaosEvent],
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        for event in events:
            if event.kind not in CHAOS_KINDS:
                raise ConfigurationError(
                    f"unknown chaos kind {event.kind!r} "
                    f"(expected one of {CHAOS_KINDS})"
                )
            if event.at_batch < 0:
                raise ConfigurationError("chaos events fire at batch >= 0")
            if event.worker_index < 0:
                raise ConfigurationError("worker_index must be >= 0")
        self.events: Tuple[ChaosEvent, ...] = tuple(
            sorted(events, key=lambda event: (event.at_batch, event.worker_index))
        )
        self._by_batch: Dict[int, List[ChaosEvent]] = {}
        for event in self.events:
            self._by_batch.setdefault(event.at_batch, []).append(event)
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise ConfigurationError(
                "fault_plan must be a repro.server.loadtest.FaultPlan"
            )
        self.fault_plan = fault_plan

    def __len__(self) -> int:
        return len(self.events)

    def events_at(self, batch_index: int) -> List[ChaosEvent]:
        """Events scheduled for one batch boundary (worker order)."""
        return self._by_batch.get(batch_index, [])

    def describe(self) -> List[str]:
        return [event.describe() for event in self.events]

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_batches: int,
        num_workers: int,
        kills: int = 0,
        stops: int = 0,
        corruptions: int = 0,
        migration_crashes: int = 0,
        server_crashes: int = 0,
        num_servers: int = 0,
    ) -> "ChaosPlan":
        """A reproducible schedule over ``num_batches`` rounds.

        The first ``num_workers`` kills are assigned round-robin so
        **every** worker dies at least once when ``kills >= num_workers``;
        remaining kills, stops and corruptions draw workers uniformly.
        Batches are drawn from ``[1, num_batches)`` — never batch 0, so
        every worker has served at least one round before its first failure
        (killing a never-used worker exercises nothing).

        ``migration_crashes`` / ``server_crashes`` fold simulated
        control-plane faults into the plan (master-bearing shards only):
        migrations aborted mid-flight at a drawn crash point, and server
        crashes on a drawn server out of ``num_servers``, each revived a few
        rounds later.  The fault draws happen *before* the chaos draws, so
        the folded :class:`FaultPlan` depends only on ``(seed, num_batches,
        num_servers)`` and the fault counts — never on the worker count —
        which is what lets one fault-only reference run serve every
        worker-count matrix point.  Each migration crash is paired with a
        round-robin SIGKILL at the same boundary: the load test fires faults
        before chaos, so the worker dies *mid-migration*, right after the
        aborted hand-off was checkpointed.
        """
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if num_batches < 2 and (
            kills or stops or corruptions or migration_crashes or server_crashes
        ):
            raise ConfigurationError(
                "chaos needs at least two batches (events fire from batch 1)"
            )
        if server_crashes and num_servers < 1:
            raise ConfigurationError("server_crashes needs num_servers >= 1")
        rng = Random(seed)
        events: List[ChaosEvent] = []
        fault_events: List[FaultEvent] = []

        def draw_batch() -> int:
            return rng.randrange(1, num_batches)

        for _ in range(server_crashes):
            at_batch = draw_batch()
            server_id = rng.randrange(num_servers)
            fault_events.append(
                FaultEvent(
                    at_batch=at_batch, kind=CRASH_SERVER, server_id=server_id
                )
            )
            fault_events.append(
                FaultEvent(
                    at_batch=min(at_batch + 1 + rng.randrange(3), num_batches - 1),
                    kind=REVIVE_SERVER,
                    server_id=server_id,
                )
            )
        for index in range(migration_crashes):
            at_batch = draw_batch()
            fault_events.append(
                FaultEvent(
                    at_batch=at_batch,
                    kind=MIGRATION_CRASH,
                    crash_point=rng.choice(
                        (CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF)
                    ),
                )
            )
            # No rng draw: the paired victim is round-robin so the fault
            # schedule above stays worker-count independent.
            events.append(ChaosEvent(at_batch, index % num_workers, KILL_WORKER))
        for index in range(kills):
            if index < num_workers:
                worker = index
            else:
                worker = rng.randrange(num_workers)
            events.append(ChaosEvent(draw_batch(), worker, KILL_WORKER))
        for _ in range(stops):
            events.append(
                ChaosEvent(draw_batch(), rng.randrange(num_workers), STOP_WORKER)
            )
        for index in range(corruptions):
            kind = CORRUPT_BITFLIP if index % 2 == 0 else CORRUPT_TRUNCATE
            events.append(
                ChaosEvent(draw_batch(), rng.randrange(num_workers), kind)
            )
        return cls(
            events, fault_plan=FaultPlan(fault_events) if fault_events else None
        )
