"""Row-range tablets: the sharding unit of the emulated BigTable.

A real BigTable table is partitioned into *tablets* — contiguous row-key
ranges served by independent tablet servers.  MOIST's central storage claim
(Section 3.2) is that school-tracked, space-filling-curve-keyed updates stay
sequential *per tablet*, so the cluster scales out by splitting hot tables
into more tablets.  The seed emulator collapsed every table into one flat
sorted map; this module restores the tablet layer:

* :class:`Tablet` — one contiguous key range with its own row store and its
  own :class:`~repro.bigtable.cost.OpCounter`, so per-tablet load (and
  therefore hot-tablet skew) is observable;
* :class:`TabletLocator` — routes row keys and range scans to tablets and
  performs threshold-driven splits and merges;
* :class:`TabletOptions` — the split/merge/group-commit knobs;
* :class:`TabletStats` — the frozen per-tablet accounting row surfaced by
  cluster reports and the scale-out experiment, and :func:`hot_share`, the
  one hot-tablet rule over a list of them.

Tablet boundaries are metadata: splitting or merging never changes what a
scan returns, only how load is attributed and where contention concentrates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bigtable.cost import CostModel, OpCounter
from repro.bigtable.lsm import (
    MEMTABLE_SOURCE,
    TOMBSTONE,
    SSTable,
    merge_runs,
)
from repro.bigtable.sorted_map import SortedMap
from repro.errors import ConfigurationError

#: Sentinel start key of the first tablet: compares <= every real row key.
OPEN_START = ""


@dataclass(frozen=True)
class TabletOptions:
    """Sharding and group-commit configuration of one table.

    ``split_threshold`` is deliberately small enough that the fig13-scale
    stress workloads (thousands of location rows) shard into several tablets
    with the defaults, making per-tablet skew visible without tuning.
    """

    #: A tablet holding more rows than this is split at its median key.
    split_threshold: int = 512
    #: Two adjacent tablets whose combined row count drops to this or below
    #: are merged back together.
    merge_threshold: int = 64
    #: Upper bound on tablets per table (BigTable's METADATA fan-out limit,
    #: scaled down).
    max_tablets: int = 128
    #: A group-commit buffer holding this many pending mutations flushes
    #: early instead of waiting for the batch to end.
    group_commit_size: int = 256
    #: A memtable holding at least this many entries is flushed into an
    #: immutable SSTable run (a *minor compaction*).  ``None`` — the
    #: default — flushes only on demand (``Table.flush_memtables``), which
    #: keeps the read path single-structure and every pre-LSM experiment
    #: bit-identical; durability experiments dial it down to exercise the
    #: flush/compaction/recovery machinery.
    memtable_flush_rows: Optional[int] = None
    #: After a flush, a tablet holding more runs than this merges its
    #: cheapest contiguous window back down (size-tiered compaction).  Wide
    #: enough that runs tier geometrically — a tighter cap forces the big
    #: runs into merges constantly and write amplification climbs past the
    #: ~3x budget the engine aims for.
    compaction_max_runs: int = 8

    def __post_init__(self) -> None:
        if self.split_threshold <= 1:
            raise ConfigurationError("split_threshold must be > 1")
        if self.merge_threshold < 0:
            raise ConfigurationError("merge_threshold must be >= 0")
        if self.merge_threshold >= self.split_threshold:
            raise ConfigurationError(
                "merge_threshold must be below split_threshold (split/merge "
                "thrashing otherwise)"
            )
        if self.max_tablets < 1:
            raise ConfigurationError("max_tablets must be >= 1")
        if self.group_commit_size < 1:
            raise ConfigurationError("group_commit_size must be >= 1")
        if self.memtable_flush_rows is not None and self.memtable_flush_rows < 1:
            raise ConfigurationError("memtable_flush_rows must be >= 1 or None")
        if self.compaction_max_runs < 1:
            raise ConfigurationError("compaction_max_runs must be >= 1")


@dataclass(frozen=True)
class TabletStats:
    """Frozen per-tablet accounting row for cluster-level reports."""

    table: str
    tablet_id: str
    start_key: str
    end_key: Optional[str]
    row_count: int
    op_calls: int
    simulated_seconds: float
    read_seconds: float
    write_seconds: float
    #: LSM engine state and durability accounting (additive to the
    #: paper-facing fields above).
    run_count: int = 0
    log_records: int = 0
    durability_seconds: float = 0.0
    write_amplification: float = 1.0


def hot_share(stats: Sequence[TabletStats]) -> float:
    """Fraction of total storage time served by the hottest tablet of
    ``stats`` (summed in the order given).

    1.0 means all load landed on a single tablet (the monolithic worst
    case — also the conservative answer before any operation has been
    recorded); ``1 / len(stats)`` is the perfectly balanced floor.
    """
    hottest = 0.0
    total = 0.0
    for entry in stats:
        seconds = entry.simulated_seconds
        total += seconds
        if seconds > hottest:
            hottest = seconds
    if total <= 0.0:
        return 1.0
    return hottest / total


class _RunView:
    """A tablet's runs merged into one view: the newest run version of every
    key.

    ``index`` maps each key to that version, tombstones included (a point
    read must see a tombstone shadow an older run's row); ``keys``,
    ``values`` and ``sources`` are the *live* entries as sorted columns, the
    source being the run id the block cache prices a row by.  A range read
    slices the columns, so a tombstone-shadowed key simply has no entry.
    """

    __slots__ = ("index", "keys", "values", "sources")

    def __init__(self, runs: Sequence[SSTable]) -> None:
        index: Dict[str, object] = {}
        source_of: Dict[str, str] = {}
        for run in reversed(runs):  # oldest first: newer versions overwrite
            keys, values = run.columns()
            index.update(zip(keys, values))
            source_of.update(dict.fromkeys(keys, run.run_id))
        live = sorted(key for key, value in index.items() if value is not TOMBSTONE)
        self.index = index
        self.keys = live
        self.values = list(map(index.__getitem__, live))
        self.sources = list(map(source_of.__getitem__, live))


class Tablet:
    """One contiguous row-key range ``[start_key, end_key)`` of a table,
    served LSM-style.

    The tablet's state is the classic BigTable triple: ``rows`` is the
    *memtable* (recently committed rows, or :data:`TOMBSTONE` markers
    shadowing deleted run rows), ``runs`` the immutable SSTables produced
    by flushes and compactions (newest first), and the commit log of every
    mutation since the last flush — kept as counts only: ``log_counts``
    maps each row key to its records since the flush and ``log_records``
    is their total, which is all that recovery and hand-off pricing read
    (the records themselves would only rebuild the memtable the tablet
    still holds).  Reads merge memtable and runs with newest-version-wins
    semantics; a mutation of a run-resident row first *pulls it back* into
    the memtable (copy-on-write), so runs are never modified in place and a
    flushed row's newest version always lives in exactly one place.

    Reads see the runs through one :class:`_RunView`, built on the first
    read after the run list changed.  ``runs`` is a tuple replaced only by
    :meth:`install_runs` (flush, compaction, split, merge, disk restore),
    which drops the view; memtable writes leave it valid, because every read
    merges the memtable in on top of it.

    The end key is owned by the locator (it is simply the next tablet's
    start); the tablet only knows where it begins, its rows, and the
    operation counter that accumulates the load it served.
    """

    __slots__ = (
        "tablet_id",
        "start_key",
        "rows",
        "runs",
        "log_counts",
        "log_records",
        "counter",
        "_tombstones",
        "_run_extra",
        "_next_run",
        "_view",
    )

    def __init__(self, tablet_id: str, start_key: str, model: CostModel) -> None:
        self.tablet_id = tablet_id
        self.start_key = start_key
        self.rows = SortedMap()
        self.runs: Tuple[SSTable, ...] = ()
        self.log_counts: Dict[str, int] = {}
        self.log_records = 0
        self.counter = OpCounter(model=model)
        #: TOMBSTONE entries currently in the memtable.
        self._tombstones = 0
        #: Live rows whose newest version lives in a run (not shadowed by
        #: any memtable entry).  ``row_count`` = memtable live + this.
        self._run_extra = 0
        self._next_run = 0
        self._view: Optional[_RunView] = None

    @property
    def row_count(self) -> int:
        return len(self.rows) - self._tombstones + self._run_extra

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tablet({self.tablet_id!r}, start={self.start_key!r}, "
            f"rows={self.row_count}, runs={len(self.runs)}, log={self.log_records})"
        )

    def log_record(self, key: str) -> None:
        """Count one commit-log record of ``key``."""
        counts = self.log_counts
        counts[key] = counts.get(key, 0) + 1
        self.log_records += 1

    def _truncate_log(self) -> None:
        self.log_counts = {}
        self.log_records = 0

    # ------------------------------------------------------------------
    # The run view and merged (LSM) reads
    # ------------------------------------------------------------------
    def install_runs(self, runs: Iterable[SSTable]) -> None:
        """Replace the run list (newest first) and drop the run view — the
        one way the list changes, so the view never outlives it."""
        self.runs = tuple(runs)
        self._view = None

    def run_lookup(self, key: str) -> Optional[object]:
        """Newest run version of ``key`` (row or TOMBSTONE), or ``None``:
        one dict probe into the run view, whatever the number of runs."""
        return (self._view or self._build_view()).index.get(key)

    def _build_view(self) -> _RunView:
        self._view = _RunView(self.runs)
        return self._view

    def live_row(self, key: str) -> Optional[object]:
        """The current row of ``key`` across memtable and runs, or ``None``
        (absent or deleted).  Never mutates: run rows are returned as-is and
        must not be modified by the caller."""
        row = self.rows.get(key)
        if row is not None:
            return None if row is TOMBSTONE else row
        if self.runs:
            value = self.run_lookup(key)
            if value is not None and value is not TOMBSTONE:
                return value
        return None

    def pull_back(self, key: str, value: object) -> object:
        """Install a mutable copy of a run-resident row into the memtable.

        ``value`` is the newest (live) run version the caller already
        located via :meth:`run_lookup`; the copy shadows it from now on.
        """
        copy = value.copy()
        self.rows.set(key, copy)
        self._run_extra -= 1
        return copy

    def ensure_writable(self, key: str) -> Optional[object]:
        """The memtable row of ``key`` ready for in-place mutation.

        Pulls a run-resident row back into the memtable as a copy first
        (runs are immutable).  Returns ``None`` when the row does not exist
        (absent everywhere, or deleted) — the caller creates it and
        registers it through :meth:`memtable_put`.
        """
        row = self.rows.get(key)
        if row is not None:
            return None if row is TOMBSTONE else row
        if self.runs:
            value = self.run_lookup(key)
            if value is not None and value is not TOMBSTONE:
                return self.pull_back(key, value)
        return None

    def memtable_put(self, key: str, row: object) -> None:
        """Insert a freshly created row for a key :meth:`ensure_writable`
        reported absent (replacing a tombstone if one shadowed the key)."""
        if self.rows.get(key) is TOMBSTONE:
            self._tombstones -= 1
        self.rows.set(key, row)

    def drop_row(self, key: str) -> bool:
        """Delete ``key``'s row from the merged view; returns whether a live
        row existed.  Writes a tombstone when any run still holds a live
        version (removing only the memtable entry would resurrect it)."""
        existing = self.rows.get(key)
        if existing is TOMBSTONE:
            return False
        if existing is not None:
            if self.runs and self._run_holds_live(key):
                self.rows.set(key, TOMBSTONE)
                self._tombstones += 1
            else:
                self.rows.delete(key)
            return True
        if not self.runs or not self._run_holds_live(key):
            return False
        self.rows.set(key, TOMBSTONE)
        self._tombstones += 1
        self._run_extra -= 1
        return True

    def _run_holds_live(self, key: str) -> bool:
        value = self.run_lookup(key)
        return value is not None and value is not TOMBSTONE

    def merged_scan(
        self,
        start: Optional[str] = None,
        end: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Tuple[str, object, str]]:
        """Yield ``(key, row, source)`` over ``[start, end)`` in key order.

        ``source`` is the run id serving the row's newest version, or
        :data:`MEMTABLE_SOURCE` — the block cache prices rows by it.  The
        caller must not mutate the tablet while iterating (pull-backs move
        rows between structures).
        """
        if not self.runs:
            # Fast path: no runs means no tombstones either — the memtable
            # IS the merged view, exactly the pre-LSM behaviour.
            for key, row in self.rows.scan(start, end, limit):
                yield key, row, MEMTABLE_SOURCE
            return
        yield from zip(*self.merged_columns(start, end, limit))

    def merged_columns(
        self, start: Optional[str], end: Optional[str], limit: Optional[int]
    ) -> Tuple[List[str], List[object], List[str]]:
        """The live rows of ``[start, end)`` over memtable and runs as three
        columns — keys, rows, sources — cut to the first ``limit`` rows.

        The run view's slice of the range is copied in chunks between the
        memtable's keys; each memtable entry replaces the view's version of
        its key (a memtable tombstone drops it).
        """
        view = self._view or self._build_view()
        view_keys = view.keys
        lo = 0 if start is None else bisect_left(view_keys, start)
        hi = len(view_keys) if end is None else bisect_left(view_keys, end)
        mem_keys, mem_rows = self.rows.scan_columns(start, end)
        if limit is not None:
            # Each memtable entry shadows at most one view row.
            hi = min(hi, lo + limit + len(mem_keys))
        if not mem_keys:
            keys = view_keys[lo:hi]
            rows = view.values[lo:hi]
            sources = view.sources[lo:hi]
        else:
            view_values = view.values
            view_sources = view.sources
            keys = []
            rows = []
            sources = []
            at = lo
            for key, row in zip(mem_keys, mem_rows):
                cut = bisect_left(view_keys, key, at, hi)
                keys += view_keys[at:cut]
                rows += view_values[at:cut]
                sources += view_sources[at:cut]
                if row is not TOMBSTONE:
                    keys.append(key)
                    rows.append(row)
                    sources.append(MEMTABLE_SOURCE)
                at = cut + 1 if cut < hi and view_keys[cut] == key else cut
            keys += view_keys[at:hi]
            rows += view_values[at:hi]
            sources += view_sources[at:hi]
        if limit is not None and len(keys) > limit:
            del keys[limit:], rows[limit:], sources[limit:]
        return keys, rows, sources

    def iter_live_keys(
        self, start: Optional[str] = None, end: Optional[str] = None
    ) -> Iterator[str]:
        """Every live row key in ``[start, end)`` across memtable and runs."""
        if not self.runs:
            return self.rows.iter_keys(start, end)
        return iter(self.merged_columns(start, end, None)[0])

    def merged_count_range(
        self, start: Optional[str] = None, end: Optional[str] = None
    ) -> int:
        """Number of live rows in ``[start, end)``."""
        if not self.runs:
            return self.rows.count_range(start, end)
        return len(self.merged_columns(start, end, None)[0])

    def median_key(self) -> str:
        """The middle live key (the tablet-split point)."""
        if not self.runs:
            # key_at merges the memtable buffer and indexes the sorted run
            # in place — no full key-list copy per split check.
            return self.rows.key_at(len(self.rows) // 2)
        keys = self.merged_columns(None, None, None)[0]
        return keys[len(keys) // 2]

    # ------------------------------------------------------------------
    # Flush (minor compaction) and merging compaction
    # ------------------------------------------------------------------
    def _make_run_id(self) -> str:
        run_id = f"{self.tablet_id}/run-{self._next_run:04d}"
        self._next_run += 1
        return run_id

    def flush(self, max_seqno: int) -> int:
        """Freeze the memtable into a new SSTable run (minor compaction).

        The run inherits every memtable entry — tombstones included when an
        older run still holds the key they shadow — and the commit log is
        truncated whole (each of its records' effects now lives in the run).
        Returns the number of rows written (0 when the memtable is empty).
        """
        if len(self.rows) == 0:
            # An empty memtable still truncates the log: every record since
            # the last flush net-cancelled (a mutation shadowing a run row
            # would have left a memtable entry), so replaying the tail
            # reproduces exactly this empty memtable.  Without this, a
            # write/delete cycle grows the log past the flush threshold
            # that exists to bound it.
            self._truncate_log()
            return 0
        keys: List[str] = []
        values: List[object] = []
        live_moved = len(self.rows) - self._tombstones
        for key, value in self.rows.items():
            if value is TOMBSTONE and not self._run_holds_live(key):
                # Nothing older left to shadow: GC the tombstone at flush.
                continue
            keys.append(key)
            values.append(value)
        if keys:
            run = SSTable(self._make_run_id(), keys, values, max_seqno)
            self.install_runs((run,) + self.runs)
        self.rows.clear()
        self._tombstones = 0
        self._run_extra += live_moved
        self._truncate_log()
        return len(keys)

    def compaction_window(self, max_runs: int) -> List[SSTable]:
        """The contiguous run window a size-tiered compaction would merge.

        Chooses the cheapest (fewest total rows) contiguous window just
        large enough to bring the run count back to ``max_runs`` — merging
        similarly sized neighbours first, which is what keeps write
        amplification bounded.  Empty when no compaction is due.  Windows
        are always contiguous in recency order: merging non-adjacent runs
        would break newest-version-wins shadowing.
        """
        excess = len(self.runs) - max_runs
        if excess <= 0:
            return []
        width = excess + 1
        sizes = [len(run) for run in self.runs]
        best_start = 0
        best_cost = sum(sizes[:width])
        window_cost = best_cost
        for start in range(1, len(self.runs) - width + 1):
            window_cost += sizes[start + width - 1] - sizes[start - 1]
            if window_cost < best_cost:
                best_cost = window_cost
                best_start = start
        return list(self.runs[best_start : best_start + width])

    def compact(
        self, selected: List[SSTable], drop_all_tombstones: bool
    ) -> Tuple[int, int]:
        """Merge a contiguous window of runs into one (newest wins).

        Returns ``(rows_read, rows_written)``.  Tombstones are dropped when
        the window reaches the tablet's oldest run (nothing below remains to
        shadow) or the caller forces it (major compaction).
        """
        if not selected:
            return 0, 0
        first = self.runs.index(selected[0])
        includes_oldest = first + len(selected) == len(self.runs)
        rows_read = sum(len(run) for run in selected)
        keys, values = merge_runs(
            selected, drop_tombstones=drop_all_tombstones or includes_oldest
        )
        replacement: Tuple[SSTable, ...] = ()
        if keys:
            replacement = (
                SSTable(self._make_run_id(), keys, values, selected[0].max_seqno),
            )
        self.install_runs(
            self.runs[:first] + replacement + self.runs[first + len(selected) :]
        )
        if not self.runs and self._tombstones:
            # Every run is gone: memtable tombstones shadow nothing anymore.
            for key in [k for k, v in list(self.rows.items()) if v is TOMBSTONE]:
                self.rows.delete(key)
                self._tombstones -= 1
        return rows_read, len(keys)

    # ------------------------------------------------------------------
    # Tallies
    # ------------------------------------------------------------------
    def _count_run_live(self) -> int:
        """Live keys across runs alone (newest version is not a tombstone)."""
        if not self.runs:
            return 0
        return len((self._view or self._build_view()).keys)

    def recompute_counts(self) -> None:
        """Rebuild the tombstone / run-extra tallies from scratch (used
        after a split repartitioned memtable and runs, and after a disk
        restore installed them)."""
        self._tombstones = sum(
            1 for _, value in self.rows.items() if value is TOMBSTONE
        )
        if not self.runs:
            self._run_extra = 0
            return
        # run_extra counts keys whose newest run version is live and that no
        # memtable entry (row or tombstone) shadows.
        shadowed_live = sum(
            1 for key, _ in self.rows.items() if self._run_holds_live(key)
        )
        self._run_extra = self._count_run_live() - shadowed_live

    def write_amplification(self) -> float:
        """Physical rows written (log + flush + compaction) per logical row."""
        return self.counter.write_amplification()


class TabletLocator:
    """Routes row keys to tablets and maintains the split/merge lifecycle.

    The locator plays the role of BigTable's METADATA table: an ordered list
    of tablet start keys, binary-searched per access.  Every table starts
    with a single tablet covering the whole keyspace.
    """

    def __init__(
        self,
        table_name: str,
        options: Optional[TabletOptions] = None,
        model: Optional[CostModel] = None,
    ) -> None:
        self.table_name = table_name
        self.options = options or TabletOptions()
        self._model = model or CostModel()
        self._next_id = 0
        self._tablets: List[Tablet] = [self._new_tablet(OPEN_START)]
        self._starts: List[str] = [OPEN_START]
        self.splits = 0
        self.merges = 0
        #: Called with a tablet id whenever that tablet's row set changed
        #: structurally (split or merge).  The table wires this to its block
        #: cache: rows that moved tablets are no longer resident where the
        #: cache thinks they are.
        self.on_tablet_changed: Optional[Callable[[str], None]] = None

    def _new_tablet(self, start_key: str) -> Tablet:
        tablet = Tablet(
            f"{self.table_name}/tablet-{self._next_id:04d}", start_key, self._model
        )
        self._next_id += 1
        return tablet

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tablets)

    def tablets(self) -> List[Tablet]:
        """Every tablet in key order (copy)."""
        return list(self._tablets)

    def index_for(self, key: str) -> int:
        """Position of the tablet owning ``key`` in key order: the last one
        whose start key is <= ``key`` (the first start is "", so >= 0).  It
        names the same tablet until the next split or merge."""
        return bisect_right(self._starts, key) - 1

    def tablet_at(self, index: int) -> Tablet:
        """The tablet at position ``index`` of :meth:`index_for`."""
        return self._tablets[index]

    def locate(self, key: str) -> Tablet:
        """The tablet whose key range contains ``key`` (:meth:`index_for`
        inlined: every point operation routes through here)."""
        return self._tablets[bisect_right(self._starts, key) - 1]

    def end_key_of(self, tablet: Tablet) -> Optional[str]:
        """Exclusive upper bound of a tablet's range (``None`` = open)."""
        index = self.index_for(tablet.start_key)
        if index + 1 < len(self._tablets):
            return self._tablets[index + 1].start_key
        return None

    def tablets_in_range(
        self, start: Optional[str] = None, end: Optional[str] = None
    ) -> List[Tablet]:
        """Tablets whose ranges intersect ``[start, end)``, in key order."""
        first = 0 if start is None else self.index_for(start)
        selected: List[Tablet] = []
        for index in range(first, len(self._tablets)):
            tablet = self._tablets[index]
            if index > first and end is not None and tablet.start_key >= end:
                break
            selected.append(tablet)
        return selected

    def scan(
        self,
        start: Optional[str] = None,
        end: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Tuple[Tablet, str, object]]:
        """Yield ``(tablet, row_key, row)`` over ``[start, end)`` in global
        key order, crossing tablet boundaries transparently (rows come from
        each tablet's merged memtable + run view)."""
        remaining = limit
        for tablet in self.tablets_in_range(start, end):
            if remaining is not None and remaining <= 0:
                return
            for key, row, _ in tablet.merged_scan(start, end, remaining):
                yield tablet, key, row
                if remaining is not None:
                    remaining -= 1

    def count_range(
        self, start: Optional[str] = None, end: Optional[str] = None
    ) -> int:
        """Number of live rows in ``[start, end)`` across every tablet."""
        return sum(
            tablet.merged_count_range(start, end)
            for tablet in self.tablets_in_range(start, end)
        )

    def total_rows(self) -> int:
        """Rows stored across every tablet."""
        return sum(tablet.row_count for tablet in self._tablets)

    # ------------------------------------------------------------------
    # Split / merge lifecycle
    # ------------------------------------------------------------------
    def maybe_split(self, tablet: Tablet) -> bool:
        """Split ``tablet`` at its median key when it outgrew the threshold.

        Returns ``True`` when at least one split happened; oversized halves
        are split again immediately (a group commit can overshoot the
        threshold by a whole buffer before the check runs).
        """
        if tablet.row_count <= self.options.split_threshold:
            return False
        split_any = False
        queue = [tablet]
        while queue:
            candidate = queue.pop()
            if candidate.row_count <= self.options.split_threshold:
                continue
            if len(self._tablets) >= self.options.max_tablets:
                break
            mid_key = candidate.median_key()
            if mid_key <= candidate.start_key:
                continue
            sibling = self._new_tablet(mid_key)
            sibling.rows = candidate.rows.split_off(mid_key)
            if candidate.runs:
                # Children initially share the parent's SSTables as O(1)
                # sliced views (empty slices are dropped).
                sibling.install_runs(
                    piece
                    for run in candidate.runs
                    if len(piece := run.slice(mid_key, None))
                )
                candidate.install_runs(
                    piece
                    for run in candidate.runs
                    if len(piece := run.slice(None, mid_key))
                )
            # The log counts are partitioned by key, so each child owns
            # exactly the unflushed history of its range.
            counts = candidate.log_counts
            upper = {key: n for key, n in counts.items() if key >= mid_key}
            if upper:
                candidate.log_counts = {
                    key: n for key, n in counts.items() if key < mid_key
                }
                sibling.log_counts = upper
                sibling.log_records = sum(upper.values())
                candidate.log_records -= sibling.log_records
            candidate.recompute_counts()
            sibling.recompute_counts()
            index = self.index_for(candidate.start_key)
            self._tablets.insert(index + 1, sibling)
            self._starts.insert(index + 1, mid_key)
            self.splits += 1
            split_any = True
            if self.on_tablet_changed is not None:
                self.on_tablet_changed(candidate.tablet_id)
                self.on_tablet_changed(sibling.tablet_id)
            queue.extend((candidate, sibling))
        return split_any

    def maybe_merge(self, tablet: Tablet) -> bool:
        """Merge ``tablet`` with a neighbour when both shrank enough.

        The right neighbour is preferred (its rows append in O(1) amortised);
        the survivor absorbs the neighbour's counter so load history is not
        lost.  Returns ``True`` when a merge happened.
        """
        # Both candidate pairs contain ``tablet``: when it alone exceeds the
        # threshold neither sum can fit, so skip the neighbour lookup.  (A
        # tablet already merged away — callers loop until nothing merges —
        # went with at most ``merge_threshold`` rows and keeps that stale
        # count, so it still reaches the lookup, which resolves its start
        # key to the tablet that absorbed it.)
        if (
            len(self._tablets) <= 1
            or tablet.row_count > self.options.merge_threshold
        ):
            return False
        index = self.index_for(tablet.start_key)
        for left_index in (index, index - 1):
            right_index = left_index + 1
            if left_index < 0 or right_index >= len(self._tablets):
                continue
            left = self._tablets[left_index]
            right = self._tablets[right_index]
            if left.row_count + right.row_count > self.options.merge_threshold:
                continue
            left.rows.absorb_after(right.rows)
            if right.runs or left.runs:
                # Union of the two (disjoint-range) run sets, newest first.
                # Slices of the same underlying run — a split being undone —
                # coalesce back into a single view so the (tablet, run)
                # cache keys stay unique.  run_id is the seqno tiebreaker:
                # sibling tablets flushed in one pass share max_seqno, and
                # a foreign equal-seqno run sorted between two slices of
                # the same run would defeat the adjacent-only coalesce.
                combined = sorted(
                    left.runs + right.runs,
                    key=lambda run: (-run.max_seqno, run.run_id, run.min_key or ""),
                )
                merged_runs: List[SSTable] = []
                for run in combined:
                    if merged_runs:
                        rejoined = merged_runs[-1].try_coalesce(run)
                        if rejoined is not None:
                            merged_runs[-1] = rejoined
                            continue
                    merged_runs.append(run)
                left.install_runs(merged_runs)
                left._run_extra += right._run_extra
                left._tombstones += right._tombstones
            # Disjoint ranges, so the two logs' keys are disjoint too.
            left.log_counts.update(right.log_counts)
            left.log_records += right.log_records
            left.counter.absorb(right.counter)
            del self._tablets[right_index]
            del self._starts[right_index]
            self.merges += 1
            if self.on_tablet_changed is not None:
                self.on_tablet_changed(left.tablet_id)
                self.on_tablet_changed(right.tablet_id)
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> List[TabletStats]:
        """Frozen per-tablet accounting, in key order."""
        return [
            TabletStats(
                table=self.table_name,
                tablet_id=tablet.tablet_id,
                start_key=tablet.start_key,
                end_key=self.end_key_of(tablet),
                row_count=tablet.row_count,
                op_calls=tablet.counter.total_calls(),
                simulated_seconds=tablet.counter.simulated_seconds,
                read_seconds=tablet.counter.read_seconds,
                write_seconds=tablet.counter.write_seconds,
                run_count=len(tablet.runs),
                log_records=tablet.log_records,
                durability_seconds=tablet.counter.durability_seconds,
                write_amplification=tablet.write_amplification(),
            )
            for tablet in self._tablets
        ]

    def reset_counters(self) -> None:
        """Zero every tablet's counter (split/merge tallies survive)."""
        for tablet in self._tablets:
            tablet.counter.reset()
