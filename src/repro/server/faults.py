"""One fault schedule for the load tests: simulated and process faults.

A :class:`FaultSchedule` is a seeded, pre-generated, sorted tuple of
:class:`Fault` s, each fired at a batch boundary of a
:class:`~repro.server.loadtest.LoadTest`.  A fault lives on one of two
*planes*, derived from its kind:

``simulated``
    Control-plane faults fired through the tablet master — a server crash,
    its revival, a migration aborted at a crash point.  They are part of
    the deterministic workload: they appear in ``faults_applied`` and must
    fire identically in a reference run.

``process``
    Real failures of a supervised scale-out worker — SIGKILL, SIGSTOP, a
    bit-flipped or truncated RPC frame — healed by the supervisor and
    invisible to ``to_report()``.  Batch-boundary delivery is what makes
    them deterministic: the victim is idle when the signal lands, so the
    set of applied batches at every kill point is a pure function of the
    schedule.

Within one boundary the sort order is the firing order: simulated faults
first (by kind, then server), then the load test's rebalance tick, then
process faults (by worker).  A ``MIGRATION_CRASH`` paired with a
``KILL_WORKER`` at the same batch therefore SIGKILLs the worker
*mid-migration*, right after the aborted hand-off was checkpointed.

The schedule consumes no randomness from the load test's admission rng; it
draws from its own seeded generator, so the workload under faults is the
same request stream as the reference run.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

#: Simulated faults (:meth:`~repro.server.master.TabletMaster.apply_fault`
#: is where they fire).
CRASH_SERVER = "crash_server"
REVIVE_SERVER = "revive_server"
MIGRATION_CRASH = "migration_crash"
SIMULATED_KINDS = (CRASH_SERVER, REVIVE_SERVER, MIGRATION_CRASH)

#: Crash points a migration crash can arm inside a live migration.
CRASH_AFTER_FLUSH = "after_flush"
CRASH_AFTER_HANDOFF = "after_handoff"
CRASH_POINTS = (CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF)

#: Hard kill: the worker vanishes mid-run (waitpid detection).
KILL_WORKER = "sigkill"
#: Freeze: the worker stays alive but stops answering (deadline detection).
STOP_WORKER = "sigstop"
#: Flip a bit in an outgoing frame (crc detection on the worker side).
CORRUPT_BITFLIP = "corrupt_bitflip"
#: Ship half a frame and drop the rest (deadline detection).
CORRUPT_TRUNCATE = "corrupt_truncate"
PROCESS_KINDS = (KILL_WORKER, STOP_WORKER, CORRUPT_BITFLIP, CORRUPT_TRUNCATE)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: fires before the batch round ``at_batch``.

    ``target`` is the server id of a crash or revival and the worker index
    of a process fault; a migration crash has none (the master picks the
    hottest tablet).  A migration crash without a ``crash_point`` crashes
    after the hand-off.
    """

    at_batch: int
    kind: str
    target: Optional[int] = None
    crash_point: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SIMULATED_KINDS + PROCESS_KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if self.at_batch < 0:
            raise ConfigurationError("at_batch must be >= 0")
        if self.kind == MIGRATION_CRASH:
            if self.target is not None:
                raise ConfigurationError(f"{self.kind} takes no target")
            if self.crash_point is None:
                object.__setattr__(self, "crash_point", CRASH_AFTER_HANDOFF)
            elif self.crash_point not in CRASH_POINTS:
                raise ConfigurationError(
                    f"unknown migration crash point {self.crash_point!r}"
                )
            return
        if self.crash_point is not None:
            raise ConfigurationError(f"{self.kind} takes no crash_point")
        if self.target is None or self.target < 0:
            raise ConfigurationError(f"{self.kind} needs a target >= 0")

    @property
    def plane(self) -> str:
        return "simulated" if self.kind in SIMULATED_KINDS else "process"

    def describe(self) -> str:
        if self.kind == MIGRATION_CRASH:
            return f"batch {self.at_batch}: {self.kind} ({self.crash_point})"
        noun = "server" if self.plane == "simulated" else "worker"
        return f"batch {self.at_batch}: {self.kind} {noun} {self.target}"


def _firing_order(fault: Fault) -> Tuple[int, bool, str, int]:
    """Batch, then simulated before process; simulated faults by kind and
    server, process faults by worker (ties keep their draw order)."""
    simulated = fault.plane == "simulated"
    return (
        fault.at_batch,
        not simulated,
        fault.kind if simulated else "",
        -1 if fault.target is None else fault.target,
    )


class FaultSchedule(tuple):
    """The faults of one load test, sorted into firing order."""

    def __new__(cls, faults=()) -> "FaultSchedule":
        return super().__new__(cls, sorted(faults, key=_firing_order))

    def at(self, batch_index: int) -> Tuple[Fault, ...]:
        """Faults fired before batch round ``batch_index``, in order."""
        return tuple(fault for fault in self if fault.at_batch == batch_index)

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_batches: int,
        *,
        num_workers: int = 0,
        kills: int = 0,
        stops: int = 0,
        corruptions: int = 0,
        num_servers: int = 0,
        server_crashes: int = 0,
        migration_crashes: int = 0,
    ) -> "FaultSchedule":
        """A reproducible schedule over ``num_batches`` rounds.

        Batches are drawn from ``[1, num_batches)`` — never batch 0, so
        every worker has served a round before its first failure.  Server
        crashes (each revived a few rounds later) and migration crashes
        are drawn first, so the simulated half depends only on the seed,
        ``num_batches``, ``num_servers`` and its own counts — never on the
        worker count, which lets one simulated-only reference run serve
        every worker-count matrix point.  With ``num_workers >= 1`` each
        migration crash is paired with a round-robin SIGKILL at the same
        boundary, so the worker dies mid-migration.  The first
        ``num_workers`` kills are round-robin too, so every worker dies
        when ``kills >= num_workers``; other process faults draw workers
        uniformly.
        """
        if (kills or stops or corruptions) and num_workers < 1:
            raise ConfigurationError("process faults need num_workers >= 1")
        if num_batches < 2 and (
            kills or stops or corruptions or migration_crashes or server_crashes
        ):
            raise ConfigurationError(
                "faults need at least two batches (they fire from batch 1)"
            )
        if server_crashes and num_servers < 1:
            raise ConfigurationError("server_crashes needs num_servers >= 1")
        rng = Random(seed)
        faults: List[Fault] = []

        def draw_batch() -> int:
            return rng.randrange(1, num_batches)

        for _ in range(server_crashes):
            at_batch = draw_batch()
            server = rng.randrange(num_servers)
            faults.append(Fault(at_batch, CRASH_SERVER, server))
            revive_at = min(at_batch + 1 + rng.randrange(3), num_batches - 1)
            faults.append(Fault(revive_at, REVIVE_SERVER, server))
        for index in range(migration_crashes):
            at_batch = draw_batch()
            crash_point = rng.choice(CRASH_POINTS)
            faults.append(Fault(at_batch, MIGRATION_CRASH, crash_point=crash_point))
            if num_workers >= 1:
                # No rng draw: a round-robin victim keeps the simulated
                # half above worker-count independent.
                faults.append(Fault(at_batch, KILL_WORKER, index % num_workers))
        for index in range(kills):
            worker = index if index < num_workers else rng.randrange(num_workers)
            faults.append(Fault(draw_batch(), KILL_WORKER, worker))
        for _ in range(stops):
            at_batch = draw_batch()
            faults.append(Fault(at_batch, STOP_WORKER, rng.randrange(num_workers)))
        for index in range(corruptions):
            kind = CORRUPT_BITFLIP if index % 2 == 0 else CORRUPT_TRUNCATE
            at_batch = draw_batch()
            faults.append(Fault(at_batch, kind, rng.randrange(num_workers)))
        return cls(faults)
