"""Operation accounting and the simulated BigTable cost model.

The experiments in Section 4 are dominated by the number and kind of
BigTable operations (reads, writes, range scans, batches) rather than by CPU
work.  Every emulator operation therefore reports itself to an
:class:`OpCounter`, and a :class:`CostModel` converts operation counts into
simulated service time.  The default constants are calibrated so that the
leader-update path costs ~0.125 ms, which reproduces the paper's anchor of
"as many as 7,875 update requests per second" on a single front-end server
with one million indexed objects (Figure 13a).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigurationError


class OpKind(enum.Enum):
    """Kinds of storage operations the cost model distinguishes."""

    READ = "read"
    WRITE = "write"
    DELETE = "delete"
    SCAN = "scan"
    SCAN_ROW = "scan_row"
    BATCH_READ = "batch_read"
    BATCH_READ_ROW = "batch_read_row"
    BATCH_WRITE = "batch_write"
    BATCH_WRITE_ROW = "batch_write_row"
    #: Rows of a scan served from the tablet server's block cache.  Not a
    #: storage RPC: the round trip is already charged by the SCAN record the
    #: cache read rode along with.
    CACHE_READ = "cache_read"
    #: Commit-log group commit: one call is one fsync, its rows are the
    #: mutation records the sync batched.  Durability work, not a storage
    #: RPC — it accrues to the separate durability ledger.
    LOG_APPEND = "log_append"
    #: Rows read back from SSTable runs by a merging compaction (one call
    #: per compaction).  Durability ledger.  Recovery run-opens are priced
    #: separately through the RecoveryReport, not this ledger.
    COMPACTION_READ = "compaction_read"
    #: Rows written into a new SSTable run by a memtable flush (minor
    #: compaction) or a merging/major compaction.  Durability ledger.
    COMPACTION_WRITE = "compaction_write"
    #: A tablet hand-off between front-end servers (live migration or
    #: replica seeding): one call is one hand-off, its rows are the SSTable
    #: rows and commit-log records shipped to the target.  Control-plane
    #: work, not a storage RPC — it accrues to the durability ledger so
    #: simulated query/update service times stay comparable across
    #: static-affinity and master-balanced clusters.
    MIGRATION = "migration"

    # Members are singletons, so identity hashing is correct — and C-level,
    # unlike Enum's default name-based ``__hash__``.  Every counter update
    # hashes an OpKind twice; this is one of the hottest lines of the
    # emulator.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class CostModel:
    """Per-operation simulated costs, in seconds.

    ``*_rpc`` entries are charged once per call (the RPC round trip);
    ``*_row`` entries are charged per row touched by a scan or batch.  Batch
    rows are cheaper than individual point operations, which is what makes
    the paper's batch-read clustering pass profitable (Section 3.3.2).
    """

    read_rpc: float = 22e-6
    write_rpc: float = 26e-6
    delete_rpc: float = 22e-6
    scan_rpc: float = 40e-6
    scan_row: float = 2e-6
    batch_rpc: float = 40e-6
    batch_read_row: float = 5e-6
    batch_write_row: float = 2.5e-6
    #: Per-row cost of a scan row served from the tablet server's block
    #: cache (no disk block to fault in; the RPC itself is charged by the
    #: accompanying SCAN record).
    cache_read_row: float = 0.5e-6
    #: Multiplier applied to write costs to model BigTable's lower write
    #: concurrency ("BigTable had a much better concurrency in read
    #: operations than write ones", Section 4.2).
    write_contention_factor: float = 1.0
    #: Durability costs (the LSM engine's commit log, flushes, compactions
    #: and recovery).  They accrue to the separate durability ledger so the
    #: paper-facing simulated service times stay exactly as calibrated;
    #: experiments report them additively.
    log_fsync: float = 8e-6
    log_append_row: float = 0.5e-6
    log_replay_row: float = 0.5e-6
    compaction_read_row: float = 0.4e-6
    compaction_write_row: float = 0.8e-6
    run_open_rpc: float = 20e-6
    #: Tablet migration / replica seeding: one METADATA commit per hand-off
    #: plus a per-row copy cost for the shipped SSTable rows and log tail.
    migration_rpc: float = 30e-6
    migration_row: float = 0.6e-6

    def __post_init__(self) -> None:
        for name in (
            "read_rpc",
            "write_rpc",
            "delete_rpc",
            "scan_rpc",
            "scan_row",
            "batch_rpc",
            "batch_read_row",
            "batch_write_row",
            "cache_read_row",
            "log_fsync",
            "log_append_row",
            "log_replay_row",
            "compaction_read_row",
            "compaction_write_row",
            "run_open_rpc",
            "migration_rpc",
            "migration_row",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"cost model field {name} must be >= 0")
        if self.write_contention_factor <= 0:
            raise ConfigurationError("write_contention_factor must be positive")
        # Precompute ``kind -> (fixed, per_row, post_factor)`` so the hot
        # counter path prices an operation with one dict hit and one FMA
        # instead of walking an if-chain of attribute reads.  The terms keep
        # the exact arithmetic shape of the original formulas (fixed first,
        # the contention factor applied where it was), so simulated seconds
        # stay bit-identical.
        factor = self.write_contention_factor
        object.__setattr__(
            self,
            "_cost_table",
            {
                OpKind.READ: (self.read_rpc, 0.0, 1.0),
                OpKind.WRITE: (self.write_rpc * factor, 0.0, 1.0),
                OpKind.DELETE: (self.delete_rpc * factor, 0.0, 1.0),
                OpKind.SCAN: (self.scan_rpc, self.scan_row, 1.0),
                OpKind.BATCH_READ: (self.batch_rpc, self.batch_read_row, 1.0),
                OpKind.CACHE_READ: (0.0, self.cache_read_row, 1.0),
                OpKind.BATCH_WRITE: (self.batch_rpc, self.batch_write_row, factor),
            },
        )
        # Durability kinds live in their own table: recording one through the
        # standard ledger is a bug (it would perturb the calibrated service
        # times), so ``record`` refuses them.
        object.__setattr__(
            self,
            "_durability_cost_table",
            {
                OpKind.LOG_APPEND: (self.log_fsync, self.log_append_row, 1.0),
                OpKind.COMPACTION_READ: (0.0, self.compaction_read_row, 1.0),
                OpKind.COMPACTION_WRITE: (0.0, self.compaction_write_row, 1.0),
                OpKind.MIGRATION: (self.migration_rpc, self.migration_row, 1.0),
            },
        )


#: Kinds whose simulated time accrues to the read ledger; everything else is
#: write time.  A frozenset lookup (identity-hashed) beats re-testing a
#: 4-tuple membership on every recorded operation.
_READ_KINDS = frozenset(
    (OpKind.READ, OpKind.SCAN, OpKind.BATCH_READ, OpKind.CACHE_READ)
)


@dataclass(eq=False)
class OpCounter:
    """Accumulates operation counts and simulated time.

    One counter is typically shared by every table of an emulator instance;
    experiments snapshot/reset it around the measured section so read,
    compute and write time can be reported separately (Figure 10).
    ``record_point``, ``record_scan``, ``record_batch_read``,
    ``record_group`` and ``record_syncs`` charge several ledgers in one call,
    bit-identical (dict key order included) to the calls each one names.
    Tablet ledgers share their table's cost model; a ledger hashes by
    identity, so a group commit keys its charges by it.
    """

    model: CostModel = field(default_factory=CostModel)
    counts: Dict[OpKind, int] = field(default_factory=dict)
    rows: Dict[OpKind, int] = field(default_factory=dict)
    simulated_seconds: float = 0.0
    read_seconds: float = 0.0
    write_seconds: float = 0.0
    #: Durability ledger: commit-log fsyncs, flush/compaction I/O and
    #: recovery work.  Kept apart from the paper-facing counters above so
    #: the LSM engine's bookkeeping never moves calibrated service times or
    #: RPC counts — experiments report durability cost additively.
    durability_counts: Dict[OpKind, int] = field(default_factory=dict)
    durability_rows: Dict[OpKind, int] = field(default_factory=dict)
    durability_seconds: float = 0.0
    #: Logical mutations applied, counted whether or not the commit log is
    #: enabled — the denominator of :meth:`write_amplification` (a
    #: log-disabled engine that flushes and compacts still amplifies).
    logical_write_rows: int = 0

    def record(self, kind: OpKind, rows: int = 1) -> float:
        """Record one operation and return its simulated cost.

        Duplicates :meth:`record_many` for ``calls=1`` rather than call it:
        every scan and batch lands here, and the extra call frame would cost
        more than the arithmetic.
        """
        entry = self.model._cost_table.get(kind)
        if entry is None:
            raise ConfigurationError(f"no standalone cost defined for {kind}")
        fixed, per_row, post_factor = entry
        cost = (fixed + per_row * rows) * post_factor
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        totals = self.rows
        totals[kind] = totals.get(kind, 0) + rows
        self.simulated_seconds += cost
        if kind in _READ_KINDS:
            self.read_seconds += cost
        else:
            self.write_seconds += cost
        return cost

    def record_many(self, kind: OpKind, calls: int) -> float:
        """Record ``calls`` identical one-row operations in one bookkeeping
        step.

        This is the group-commit fast path: a flushed commit buffer charges
        all of its point writes at once instead of paying the per-call
        dictionary and attribute work ``calls`` times.  It adds the cost
        once, ``calls`` times over: bit-identical to ``calls`` :meth:`record`
        calls only when ``calls`` is 1 (more additions round more often).
        """
        if calls <= 0:
            return 0.0
        entry = self.model._cost_table.get(kind)
        if entry is None:
            raise ConfigurationError(f"no standalone cost defined for {kind}")
        fixed, per_row, post_factor = entry
        cost = (fixed + per_row) * post_factor * calls
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + calls
        totals = self.rows
        totals[kind] = totals.get(kind, 0) + calls
        self.simulated_seconds += cost
        if kind in _READ_KINDS:
            self.read_seconds += cost
        else:
            self.write_seconds += cost
        return cost

    def record_point(self, tablet: "OpCounter", kind: OpKind) -> None:
        """One point operation on both of its ledgers, in one call:
        ``self.record(kind)`` then ``tablet.record(kind)``."""
        entry = self.model._cost_table.get(kind)
        if entry is None:
            raise ConfigurationError(f"no standalone cost defined for {kind}")
        fixed, per_row, post_factor = entry
        cost = (fixed + per_row) * post_factor
        for ledger in (self, tablet):
            counts = ledger.counts
            counts[kind] = counts.get(kind, 0) + 1
            rows = ledger.rows
            rows[kind] = rows.get(kind, 0) + 1
            ledger.simulated_seconds += cost
            if kind in _READ_KINDS:
                ledger.read_seconds += cost
            else:
                ledger.write_seconds += cost

    def record_scan(self, charges: Sequence[Tuple["OpCounter", int, int]]) -> None:
        """One range scan on the shared ledger and on each scanned tablet's,
        in one call.  ``charges`` lists ``(tablet ledger, cold rows, warm
        rows)``.  The shared ledger is charged first with the totals, then
        each tablet in order; each ledger gets ``record(SCAN, rows=cold)``
        and, when any row was warm, ``record(CACHE_READ, rows=warm)``.  A
        ledger with no row at all is charged one scan row: it served the
        probe, so an empty cell still shows in ``tablet_stats()``.  A tablet
        whose rows were all warm still pays the scan RPC, so its read time
        keeps growing as the shared ledger's does, and the skew the
        contention model reads does not fade as the cache warms."""
        table = self.model._cost_table
        scan = OpKind.SCAN
        cached = OpKind.CACHE_READ
        fixed, per_row, post_factor = table[scan]
        cache_fixed, cache_row, cache_factor = table[cached]
        cold_total = warm_total = 0
        for _, cold, warm in charges:
            cold_total += cold
            warm_total += warm
        for ledger, cold, warm in [(self, cold_total, warm_total), *charges]:
            rows = cold if cold + warm > 0 else 1
            cost = (fixed + per_row * rows) * post_factor
            counts = ledger.counts
            totals = ledger.rows
            counts[scan] = counts.get(scan, 0) + 1
            totals[scan] = totals.get(scan, 0) + rows
            ledger.simulated_seconds += cost
            ledger.read_seconds += cost
            if warm > 0:
                cost = (cache_fixed + cache_row * warm) * cache_factor
                counts[cached] = counts.get(cached, 0) + 1
                totals[cached] = totals.get(cached, 0) + warm
                ledger.simulated_seconds += cost
                ledger.read_seconds += cost

    def record_batch_read(
        self, total: int, ledgers: Sequence["OpCounter"], rows: Sequence[int]
    ) -> None:
        """One batch read in one call: ``self.record(BATCH_READ,
        rows=total)``, then ``ledger.record(BATCH_READ, rows=n)`` for each
        tablet ledger and its row count, in the order the tablets were
        first seen."""
        kind = OpKind.BATCH_READ
        fixed, per_row, post_factor = self.model._cost_table[kind]
        for ledger, count in [(self, total), *zip(ledgers, rows)]:
            cost = (fixed + per_row * count) * post_factor
            counts = ledger.counts
            counts[kind] = counts.get(kind, 0) + 1
            totals = ledger.rows
            totals[kind] = totals.get(kind, 0) + count
            ledger.simulated_seconds += cost
            ledger.read_seconds += cost

    def record_group(self, pending: Dict[Tuple["OpCounter", OpKind], int]) -> None:
        """A group commit's charges, ``(tablet ledger, kind) -> calls``, in
        one call: ``ledger.record_many(kind, calls)`` for each in order, then
        ``self.record_many(kind, total)`` once per kind, kinds in the order
        they first appear."""
        totals: Dict[OpKind, int] = {}
        for (ledger, kind), calls in pending.items():
            ledger.record_many(kind, calls)
            totals[kind] = totals.get(kind, 0) + calls
        for kind, calls in totals.items():
            self.record_many(kind, calls)

    def record_syncs(self, appended: Dict["OpCounter", int]) -> None:
        """Commit-log group fsyncs, ``tablet ledger -> records``, in one
        call: for each in order ``self.record_durability(LOG_APPEND, rows=
        records)``, then the same on the tablet (integers summed at once)."""
        if not appended:
            return
        kind = OpKind.LOG_APPEND
        fixed, per_row, post_factor = self.model._durability_cost_table[kind]
        seconds = self.durability_seconds
        for tablet, records in appended.items():
            cost = (fixed + per_row * records) * post_factor
            seconds += cost
            counts = tablet.durability_counts
            counts[kind] = counts.get(kind, 0) + 1
            rows = tablet.durability_rows
            rows[kind] = rows.get(kind, 0) + records
            tablet.durability_seconds += cost
        self.durability_seconds = seconds
        counts = self.durability_counts
        counts[kind] = counts.get(kind, 0) + len(appended)
        rows = self.durability_rows
        rows[kind] = rows.get(kind, 0) + sum(appended.values())

    def record_durability(self, kind: OpKind, rows: int = 1, calls: int = 1) -> float:
        """Record durability work (log fsyncs, flush/compaction I/O).

        Accrues only to the durability ledger: ``simulated_seconds``,
        ``storage_rpc_count`` and the read/write split are untouched, which
        is what keeps existing experiments bit-identical while the LSM
        engine runs underneath them.
        """
        entry = self.model._durability_cost_table.get(kind)
        if entry is None:
            raise ConfigurationError(f"{kind} is not a durability operation")
        fixed, per_row, post_factor = entry
        cost = (fixed * calls + per_row * rows) * post_factor
        counts = self.durability_counts
        counts[kind] = counts.get(kind, 0) + calls
        totals = self.durability_rows
        totals[kind] = totals.get(kind, 0) + rows
        self.durability_seconds += cost
        return cost

    def durability_count(self, kind: OpKind) -> int:
        """Durability calls (fsyncs, compactions) of the given kind."""
        return self.durability_counts.get(kind, 0)

    def write_amplification(self) -> float:
        """Physical rows written per logical row written.

        Physical writes are the commit-log records (when the log is
        enabled) plus every row a flush or compaction wrote into an SSTable
        run; the denominator is the logical mutation count, tracked
        independently of the log so a log-disabled engine that flushes and
        compacts still reports its amplification honestly.  1.0 before any
        mutation (and in the default log-only configuration).
        """
        logical = self.logical_write_rows
        if logical <= 0:
            return 1.0
        logged = self.durability_rows.get(OpKind.LOG_APPEND, 0)
        rewritten = self.durability_rows.get(OpKind.COMPACTION_WRITE, 0)
        physical = logged + rewritten
        if physical <= 0:
            return 1.0
        return physical / logical

    def absorb(self, other: "OpCounter | OpCounterSnapshot") -> None:
        """Fold another ledger's totals — a live counter or a frozen
        snapshot, they name their fields alike — into this one: a merged
        tablet's history into the survivor's, or each worker's snapshot, in
        fixed shard order (so merged seconds are bit-identical run to run),
        into the multiprocess backend's cluster-wide ledger."""
        for kind, count in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + count
        for kind, rows in other.rows.items():
            self.rows[kind] = self.rows.get(kind, 0) + rows
        for kind, count in other.durability_counts.items():
            self.durability_counts[kind] = self.durability_counts.get(kind, 0) + count
        for kind, rows in other.durability_rows.items():
            self.durability_rows[kind] = self.durability_rows.get(kind, 0) + rows
        self.simulated_seconds += other.simulated_seconds
        self.read_seconds += other.read_seconds
        self.write_seconds += other.write_seconds
        self.durability_seconds += other.durability_seconds
        self.logical_write_rows += other.logical_write_rows

    def total_calls(self) -> int:
        """Total number of storage calls of any kind."""
        return sum(self.counts.values())

    def storage_rpc_count(self) -> int:
        """Storage RPC round trips issued so far.

        ``CACHE_READ`` records are excluded: cache-served rows ride along
        with an already-counted scan RPC instead of making their own.  This
        is the figure the batched query path must strictly beat against
        sequential execution of the same queries.
        """
        return sum(
            count
            for kind, count in self.counts.items()
            if kind is not OpKind.CACHE_READ
        )

    def snapshot(self) -> "OpCounterSnapshot":
        """Immutable copy of the current totals."""
        return OpCounterSnapshot(
            counts=dict(self.counts),
            rows=dict(self.rows),
            simulated_seconds=self.simulated_seconds,
            read_seconds=self.read_seconds,
            write_seconds=self.write_seconds,
            durability_counts=dict(self.durability_counts),
            durability_rows=dict(self.durability_rows),
            durability_seconds=self.durability_seconds,
            logical_write_rows=self.logical_write_rows,
        )

    export_state = snapshot  # its name in the accounting-checkpoint protocol

    def install_state(self, state: "OpCounterSnapshot") -> None:
        """Make this ledger equal a :meth:`snapshot` (zero, then absorb:
        ``0.0 + x`` is ``x``, so float totals install bit-exactly)."""
        self.reset()
        self.absorb(state)

    def reset(self) -> None:
        """Zero every counter."""
        self.counts.clear()
        self.rows.clear()
        self.simulated_seconds = 0.0
        self.read_seconds = 0.0
        self.write_seconds = 0.0
        self.durability_counts.clear()
        self.durability_rows.clear()
        self.durability_seconds = 0.0
        self.logical_write_rows = 0


@dataclass(frozen=True)
class OpCounterSnapshot:
    """Frozen view of an :class:`OpCounter` at one instant."""

    counts: Dict[OpKind, int]
    rows: Dict[OpKind, int]
    simulated_seconds: float
    read_seconds: float
    write_seconds: float
    durability_counts: Dict[OpKind, int] = field(default_factory=dict)
    durability_rows: Dict[OpKind, int] = field(default_factory=dict)
    durability_seconds: float = 0.0
    logical_write_rows: int = 0

    def delta(self, earlier: "OpCounterSnapshot") -> "OpCounterSnapshot":
        """Difference between this snapshot and an ``earlier`` one."""
        counts = {
            kind: self.counts.get(kind, 0) - earlier.counts.get(kind, 0)
            for kind in set(self.counts) | set(earlier.counts)
        }
        rows = {
            kind: self.rows.get(kind, 0) - earlier.rows.get(kind, 0)
            for kind in set(self.rows) | set(earlier.rows)
        }
        durability_counts = {
            kind: self.durability_counts.get(kind, 0)
            - earlier.durability_counts.get(kind, 0)
            for kind in set(self.durability_counts) | set(earlier.durability_counts)
        }
        durability_rows = {
            kind: self.durability_rows.get(kind, 0)
            - earlier.durability_rows.get(kind, 0)
            for kind in set(self.durability_rows) | set(earlier.durability_rows)
        }
        return OpCounterSnapshot(
            counts=counts,
            rows=rows,
            simulated_seconds=self.simulated_seconds - earlier.simulated_seconds,
            read_seconds=self.read_seconds - earlier.read_seconds,
            write_seconds=self.write_seconds - earlier.write_seconds,
            durability_counts=durability_counts,
            durability_rows=durability_rows,
            durability_seconds=self.durability_seconds - earlier.durability_seconds,
            logical_write_rows=self.logical_write_rows - earlier.logical_write_rows,
        )
