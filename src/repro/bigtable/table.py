"""A single emulated BigTable table: sorted rows, column families, versions.

Rows live in row-range *tablets* (see :mod:`repro.bigtable.tablet`): every
operation is routed through a :class:`~repro.bigtable.tablet.TabletLocator`
and accounted twice — once on the table-wide shared counter (the cluster
ledger every experiment already reads) and once on the owning tablet's
counter, which is what makes hot-tablet skew observable.

The write path additionally supports *group commit*: inside a
:meth:`Table.group_commit` block, point mutations apply to the tablet's
in-memory rows immediately (so later reads in the same batch observe them,
exactly like BigTable's memtable) while the per-operation accounting and the
split/merge checks are buffered per tablet and flushed in bulk when the
block ends.  The simulated cost of a group-committed batch is identical to
the same mutations issued one at a time; what is amortised is the
bookkeeping itself.

**What is stored, and what the public edge builds.**  A stored row is a plain
mapping ``family -> qualifier -> chain`` (:class:`_Row`, a ``dict`` with
methods), and a chain is one flat *tuple* ``(ts0, v0, ts1, v1, ...)``, newest
first, however many versions it holds.  No object exists per version and a
chain is never mutated: a write binds ``(ts, v) + chain[:limit - 2]`` to the
qualifier, aging slices the chain in two, a projected read takes
``chain[1]``, and a row pulled back from a frozen run shares the run's chains
instead of copying them.  :class:`Cell` objects are built on demand, only
where a caller asked for timestamps — :meth:`Table.read_versions`,
:meth:`Table.read_row`, family-less ``scan``/``batch_read`` and
``scan(versions=True)`` — and belong to that caller (:meth:`Table.read_latest`
returns a bare value).  The commit log keeps no records at all, only a count
per row key (``Tablet.log_counts``; see :mod:`repro.bigtable.lsm`).

The reason is the garbage collector: every container it tracks is walked by
every full collection, and with the default engine nothing a tablet stores
is ever dropped, so an object per version made collection time grow with
the length of the run.  CPython stops tracking an exact ``tuple`` at the
first collection that finds only untracked items in it — strings, numbers,
``None``, tuples already untracked — so the schema classes in
:mod:`repro.tables` store exact tuples of atoms, and the value, then the
chain around it, leave the collector's lists for good — in the first
collection, because the write path holds each new value in a slot of
``_RECENT_VALUES`` until then.  Any other
item keeps a tuple tracked for life: a ``list``, a ``dict``, any class
instance (``Enum`` members and ``tuple`` *subclasses* included).
``tests/test_heap_budget.py`` and ``tests/test_rows_at_rest.py`` hold the line.

The multi-row reads (:meth:`Table.scan`, :meth:`Table.batch_read`) take the
one column family their caller wants and return ``qualifier -> newest value``
per row, read straight off the stored version chains — a query never pays
for copying families, qualifiers and versions it is about to drop.  The
whole-row copy (``family -> qualifier -> cells``) remains for
:meth:`Table.read_row` and for family-less reads (dumps, tests).  Projection
changes what is built, never what is charged: every shape of a read prices
the same rows through the same scanner and ledgers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bigtable.cost import OpCounter, OpKind
from repro.bigtable.lsm import MEMTABLE_SOURCE, TOMBSTONE, TableRecovery
from repro.bigtable.scan import (
    BlockCache,
    BlockCacheOptions,
    Scanner,
    TabletCacheStats,
)
from repro.bigtable.tablet import (
    OPEN_START,
    Tablet,
    TabletLocator,
    TabletOptions,
    TabletStats,
)
from repro.errors import ColumnFamilyError, RowNotFoundError, UnrecoverableShardError


@dataclass(frozen=True)
class ColumnFamily:
    """Declaration of a column family.

    ``in_memory`` mirrors BigTable's locality-group setting: the Location and
    Affiliation tables keep their freshest column in memory and their aged
    columns on disk (Section 3.1).  ``max_versions`` bounds how many
    timestamped cells a ``(row, family, qualifier)`` keeps; the Location
    Table keeps ``m`` in-memory records per object for Viterbi-style location
    smoothing and travel-path rendering (Section 3.5).
    """

    name: str
    in_memory: bool = True
    max_versions: int = 1


class Cell(NamedTuple):
    """One timestamped value, as the public read edge hands it out.

    Cells are built on demand from the stored version chains and never
    stored themselves (see the module docstring)."""

    timestamp: float
    value: object


def _cells(chain: tuple) -> List[Cell]:
    """The public shape of one stored chain: newest-first cells."""
    return list(map(Cell, chain[0::2], chain[1::2]))


#: The values written last, one slot each, reused in turn.  A collection
#: untracks the tuples of its young generation in list order, and a chain only
#: if every item was untracked before it; a value referenced by nothing but
#: its new chain is moved behind that chain while the collector finds what is
#: reachable, so the chain would survive one collection tracked.  A slot here
#: is an outside reference: the value keeps its place in front of its chain and
#: both leave the collector's lists in the first collection.  The slots need
#: only outnumber the writes between two collections.
_RECENT_VALUES: List[object] = [None] * 4096
_RECENT_MASK = len(_RECENT_VALUES) - 1
_recent_slot = count()


class _Row(dict):
    """Internal row representation: ``family -> qualifier -> chain``, where a
    chain is the flat newest-first tuple ``(ts0, v0, ts1, v1, ...)``.  The row
    *is* the families dict — no wrapper object, no attribute dict."""

    __slots__ = ()

    def is_empty(self) -> bool:
        for qualifiers in self.values():
            for chain in qualifiers.values():
                if chain:
                    return False
        return True

    def copy(self) -> "_Row":
        """Copy of the two dict levels (the immutable chains are shared), for
        pulling a run-resident row back into the memtable: the run's row must
        stay frozen."""
        clone = _Row()
        for family, qualifiers in self.items():
            clone[family] = dict(qualifiers)
        return clone

    def cells(self) -> Dict[str, Dict[str, List[Cell]]]:
        """The public full-row shape, ``family -> qualifier -> cells``."""
        return {
            family: {
                qualifier: _cells(chain) for qualifier, chain in qualifiers.items()
            }
            for family, qualifiers in self.items()
        }

    def version_cells(self, family: str) -> Dict[str, List[Cell]]:
        """``qualifier -> newest-first cells`` of one family."""
        qualifiers = self.get(family) or {}
        return {qualifier: _cells(chain) for qualifier, chain in qualifiers.items()}


def _newest_values(rows: List[_Row], family: str) -> List[Dict[str, object]]:
    """The projected read shape of each row: ``qualifier -> newest value`` of
    one family, read straight off the stored chains (a qualifier whose chain
    aged out entirely is absent, a row without the family is ``{}``).  One
    call per list of rows: a row holds a column or two, so a call per row
    would cost more than the row's own loop."""
    projected = []
    append = projected.append
    for row in rows:
        values = {}
        qualifiers = row.get(family)
        if qualifiers:
            for qualifier, chain in qualifiers.items():
                if chain:
                    values[qualifier] = chain[1]
        append(values)
    return projected


class _TabletTally:
    """Per-tablet row tally of one batch write, delete or aging pass.

    Rows are accumulated per tablet while the operation runs and charged to
    the tablet ledgers afterwards.  Charging re-resolves each tablet through
    the locator: a tablet captured early in a batch may have merged away by
    the time the batch ends, and recording on its orphaned counter would
    silently drop the work from ``tablet_stats()`` — the live tablet that
    absorbed its range gets the charge instead.
    """

    __slots__ = ("_rows", "_tablets")

    def __init__(self) -> None:
        self._rows: Dict[str, int] = {}
        self._tablets: Dict[str, "Tablet"] = {}

    def add(self, tablet: "Tablet", rows: int = 1) -> None:
        tablet_id = tablet.tablet_id
        self._rows[tablet_id] = self._rows.get(tablet_id, 0) + rows
        self._tablets[tablet_id] = tablet

    def charge(self, locator: TabletLocator, kind: OpKind) -> None:
        for tablet_id, rows in self._rows.items():
            live = locator.locate(self._tablets[tablet_id].start_key)
            live.counter.record(kind, rows=rows)

    def tablets(self) -> List["Tablet"]:
        return list(self._tablets.values())


class _GroupCommit:
    """Pending accounting of one group-commit block.

    Mutations are already applied to the tablet memtables; what is pending is
    the counter bookkeeping (``(tablet ledger, kind) -> calls``, what
    :meth:`OpCounter.record_group` takes) and the split/merge checks for the
    touched tablets.
    """

    __slots__ = ("pending", "tablets", "dirty", "calls", "log_appends")

    def __init__(self) -> None:
        self.pending: Dict[Tuple[OpCounter, OpKind], int] = {}
        self.tablets: Dict[str, Tablet] = {}
        self.dirty: Dict[str, Tablet] = {}
        self.calls = 0
        #: Commit-log records appended per tablet ledger inside this block:
        #: the block's exit is the group fsync, charged once per tablet log.
        self.log_appends: Dict[OpCounter, int] = {}


class Table:
    """One emulated table, sharded into row-range tablets.

    All mutating / reading methods report themselves both to the shared
    :class:`~repro.bigtable.cost.OpCounter` (so the simulated service time of
    an algorithm is the sum of its storage operations, exactly as before the
    tablet layer existed) and to the owning tablet's counter (so per-tablet
    load skew is observable).
    """

    def __init__(
        self,
        name: str,
        families: Sequence[ColumnFamily],
        counter: Optional[OpCounter] = None,
        options: Optional[TabletOptions] = None,
        cache_options: Optional[BlockCacheOptions] = None,
    ) -> None:
        if not families:
            raise ColumnFamilyError(f"table {name!r} declared without column families")
        self.name = name
        self._families: Dict[str, ColumnFamily] = {}
        for family in families:
            if family.name in self._families:
                raise ColumnFamilyError(
                    f"duplicate column family {family.name!r} in table {name!r}"
                )
            self._families[family.name] = family
        self.counter = counter if counter is not None else OpCounter()
        self.options = options or TabletOptions()
        self._tablets = TabletLocator(name, self.options, model=self.counter.model)
        self.cache = BlockCache(cache_options)
        self._tablets.on_tablet_changed = self._on_tablet_changed
        self._scanner = Scanner(self.counter, self._tablets, self.cache)
        self._group: Optional[_GroupCommit] = None
        self._group_depth = 0
        self._group_context = Table._GroupCommitContext(self)
        #: Monotonic per-table mutation sequence: counts commit-log records
        #: and orders SSTable runs.
        self._seq = 0
        #: Active :meth:`deferred_log_syncs` tally (tablet ledger -> records),
        #: or ``None`` when point mutations sync their log individually.
        self._log_sync_tally: Optional[Dict[OpCounter, int]] = None
        #: Bumped by each change to rows, run lists or tablet bounds.
        self.version = 0

    def _on_tablet_changed(self, tablet_id: str) -> None:
        # Split/merge: the block cache's idea of residency is stale.
        self.version += 1
        self.cache.invalidate_tablet(tablet_id)

    # ------------------------------------------------------------------
    # Accounting soft state
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """What a snapshot's manifest does not hold: block-cache residency
        and every tablet's ledger."""
        return {
            "cache": self.cache.export_state(),
            "tablets": {
                tablet.tablet_id: tablet.counter.snapshot()
                for tablet in self._tablets.tablets()
            },
        }

    def install_state(self, state: dict) -> None:
        """Apply :meth:`export_state` to this table as restored from a
        snapshot."""
        tablets = {tablet.tablet_id: tablet for tablet in self._tablets.tablets()}
        if set(state["tablets"]) != set(tablets):
            raise UnrecoverableShardError(
                f"{self.name!r} snapshot has tablets {sorted(state['tablets'])}, not {sorted(tablets)}"
            )
        self.version += 1
        self.cache.install_state(state["cache"])
        for tablet_id, snapshot in state["tablets"].items():
            tablets[tablet_id].counter.install_state(snapshot)

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def family(self, name: str) -> ColumnFamily:
        """Declared family, raising :class:`ColumnFamilyError` when unknown."""
        try:
            return self._families[name]
        except KeyError:
            raise ColumnFamilyError(
                f"unknown column family {name!r} in table {self.name!r}"
            ) from None

    def add_family(self, family: ColumnFamily) -> None:
        """Declare an additional column family (used by archiving to add
        aged disk columns on demand)."""
        if family.name in self._families:
            raise ColumnFamilyError(
                f"column family {family.name!r} already exists in {self.name!r}"
            )
        self._families[family.name] = family

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _commit(
        self,
        tablet: Tablet,
        kind: OpKind,
        structural: bool,
        charge: bool,
        logged: bool,
        row_key: str,
    ) -> None:
        """Log and charge one point mutation already applied to ``tablet`` —
        one frame for both, because every update message issues several.

        ``logged`` counts one commit-log record of ``row_key``; without it
        nothing changed and nothing is logged (a delete of an absent cell is
        still charged).  The record's fsync is charged to the durability
        ledger at once, or per tablet when the open
        :meth:`deferred_log_syncs` block or group commit ends.
        ``structural`` marks a mutation that changed the tablet's row count
        and so needs a split/merge check.  Without ``charge`` the caller owns
        the charging and its split checks (``batch_write``, the aging
        rewrites); what is left here is the deferral into an open group
        commit and the merge check after a delete — aging drains delete rows
        outside any batch, and without it emptied tablets accumulate.
        """
        if logged:
            self._seq += 1
            self.counter.logical_write_rows += 1
            tablet.counter.logical_write_rows += 1
            tablet.log_record(row_key)
        group = self._group
        if group is not None:
            ledger = tablet.counter
            if structural:
                group.dirty[tablet.tablet_id] = tablet
            if logged or charge:
                group.tablets[tablet.tablet_id] = tablet
            if logged:
                group.log_appends[ledger] = group.log_appends.get(ledger, 0) + 1
            if charge:
                key = (ledger, kind)
                group.pending[key] = group.pending.get(key, 0) + 1
                group.calls += 1
                if group.calls >= self.options.group_commit_size:
                    self._flush_group()
            return
        if logged:
            if self._log_sync_tally is not None:
                self._tally_log_sync(self._log_sync_tally, tablet)
            else:
                self.counter.record_syncs({tablet.counter: 1})
        if charge:
            self.counter.record_point(tablet.counter, kind)
            if structural:
                self.version += 1
                self._tablets.maybe_split(tablet)
                self._tablets.maybe_merge(tablet)
            self._maybe_flush(tablet)
        elif structural and kind is OpKind.DELETE:
            self.version += 1
            self._tablets.maybe_merge(tablet)

    @staticmethod
    def _tally_log_sync(appended: Dict[OpCounter, int], tablet: Tablet) -> None:
        ledger = tablet.counter
        appended[ledger] = appended.get(ledger, 0) + 1

    @contextmanager
    def deferred_log_syncs(self):
        """Batch the *fsync accounting* of point mutations issued inside the
        block: one LOG_APPEND per touched tablet at exit instead of one per
        record.  Unlike :meth:`group_commit` this changes nothing else — no
        charging, split/merge or flush timing moves — so rewrite loops that
        manage their own storage charging (the aging/archive drains) can
        batch their commit-log syncs without perturbing table behaviour.
        Re-entrant blocks and group commits simply keep the outer context.
        """
        if self._log_sync_tally is not None or self._group is not None:
            yield
            return
        tally: Dict[OpCounter, int] = {}
        self._log_sync_tally = tally
        try:
            yield
        finally:
            self._log_sync_tally = None
            self._charge_log_syncs(tally)

    def _log_batch_record(
        self,
        tablet: Tablet,
        appended: Dict[OpCounter, int],
        row_key: str,
    ) -> None:
        """Count a log record whose fsync the caller batches (the
        batch-RPC paths' group commit, whatever block is open around them):
        the record is tallied into ``appended`` (tablet ledger -> records) and
        :meth:`_charge_log_syncs` later charges one group fsync per tablet.
        (The count is :meth:`_commit`'s, repeated so that stays one frame.)"""
        self._seq += 1
        self.counter.logical_write_rows += 1
        tablet.counter.logical_write_rows += 1
        tablet.log_record(row_key)
        self._tally_log_sync(appended, tablet)

    def _charge_log_syncs(self, appended: Dict[OpCounter, int]) -> None:
        """Charge one group fsync per tablet for deferred log appends."""
        self.counter.record_syncs(appended)

    def _maybe_flush(self, tablet: Tablet) -> None:
        """Flush the memtable once it outgrew the configured threshold.

        Both the memtable's row count and its unflushed log tail count
        against the threshold: an overwrite-heavy tablet grows its log (and
        therefore its recovery debt) without adding memtable keys, and a
        real memtable grows per mutation, not per distinct key.
        """
        threshold = self.options.memtable_flush_rows
        if threshold is None:
            return
        if len(tablet.rows) >= threshold or tablet.log_records >= threshold:
            self._flush_tablet(tablet)

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------
    def group_commit(self) -> "Table._GroupCommitContext":
        """Context manager entering group-commit mode (re-entrant).

        Point mutations inside the block apply immediately but their
        accounting (and the tablet split/merge checks) is flushed in bulk at
        block exit — BigTable's batched commit-log flush.
        """
        return self._group_context

    class _GroupCommitContext:
        __slots__ = ("_table",)

        def __init__(self, table: "Table") -> None:
            self._table = table

        def __enter__(self) -> "Table":
            table = self._table
            if table._group_depth == 0:
                table._group = _GroupCommit()
            table._group_depth += 1
            return table

        def __exit__(self, exc_type, exc, tb) -> None:
            table = self._table
            table._group_depth -= 1
            if table._group_depth == 0:
                table._flush_group()
                table._group = None

    def _flush_group(self) -> None:
        """Charge every pending mutation and run deferred tablet checks.

        This is also the group-commit fsync point: every tablet whose log
        gathered records inside the block is charged one LOG_APPEND (one
        fsync batching all its records) on the durability ledger.
        """
        group = self._group
        if group is None or (
            group.calls == 0 and not group.dirty and not group.log_appends
        ):
            # log_appends alone still matters: a block of uncharged,
            # non-structural mutations (e.g. an aging rewrite loop) must
            # not drop its pending fsync accounting.
            return
        if group.pending:
            self.counter.record_group(group.pending)
        if group.log_appends:
            self.counter.record_syncs(group.log_appends)
        self.version += 1
        for tablet in group.dirty.values():
            self._tablets.maybe_split(tablet)
            while self._tablets.maybe_merge(tablet):
                pass
        if self.options.memtable_flush_rows is not None:
            for tablet in group.tablets.values():
                self._maybe_flush(tablet)
        # Re-arm the buffer: the block may still be open (early flush).
        self._group = _GroupCommit() if self._group_depth > 0 else None

    # ------------------------------------------------------------------
    # Point mutations
    # ------------------------------------------------------------------
    def _write_into(
        self,
        tablet: Tablet,
        row_key: str,
        family: str,
        qualifier: str,
        value: object,
        timestamp: float,
    ) -> bool:
        """Apply one cell write to an already-located tablet; returns whether
        the row is new.  Pure state transition: commit logging and charging
        are the caller's business."""
        declared = self._families.get(family) or self.family(family)
        self.version += 1
        if self.cache.lru:
            self.cache.invalidate_row(tablet.tablet_id, row_key)
        row = tablet.ensure_writable(row_key)
        added_row = row is None
        if row is None:
            row = _Row()
            tablet.memtable_put(row_key, row)
        qualifiers = row.get(family)
        if qualifiers is None:
            qualifiers = row[family] = {}
        chain = qualifiers.get(qualifier)
        limit = 2 * declared.max_versions
        if not chain:
            chain = (timestamp, value)
        elif timestamp >= chain[0]:
            # In-order timestamps, the overwhelmingly common case.
            chain = (timestamp, value) + (chain[: limit - 2] if limit > 0 else chain)
        else:
            # Out-of-order arrival: behind every strictly newer version, in
            # front of versions of equal timestamp.
            index = 2
            while index < len(chain) and chain[index] > timestamp:
                index += 2
            chain = chain[:index] + (timestamp, value) + chain[index:]
            if limit > 0:
                chain = chain[:limit]
        qualifiers[qualifier] = chain
        _RECENT_VALUES[next(_recent_slot) & _RECENT_MASK] = value
        return added_row

    def _delete_cell_from(
        self, tablet: Tablet, row_key: str, family: str, qualifier: str
    ) -> Tuple[bool, bool]:
        """Apply one cell deletion to an already-located tablet; returns
        ``(existed, removed_row)``.  Pure state transition, like
        :meth:`_write_into`.

        Existence is checked on the merged read view first so a no-op
        delete never pulls a run-resident row back into the memtable (the
        copy would be re-flushed unchanged later, inflating write
        amplification for zero logical change).
        """
        if family not in self._families:
            self.family(family)
        self.version += 1
        if self.cache.lru:
            self.cache.invalidate_row(tablet.tablet_id, row_key)
        row = tablet.rows.get(row_key)
        if row is None and tablet.runs:
            # Check existence on the frozen run version before pulling it
            # back: a no-op delete must not copy the row into the memtable
            # (it would be re-flushed unchanged later).
            value = tablet.run_lookup(row_key)
            if (
                value is not None
                and value is not TOMBSTONE
                and qualifier in value.get(family, ())
            ):
                row = tablet.pull_back(row_key, value)
        if row is None or row is TOMBSTONE:
            return False, False
        qualifiers = row.get(family)
        if not qualifiers or qualifier not in qualifiers:
            return False, False
        del qualifiers[qualifier]
        removed_row = False
        if row.is_empty():
            tablet.drop_row(row_key)
            removed_row = True
        return True, removed_row

    def write(
        self,
        row_key: str,
        family: str,
        qualifier: str,
        value: object,
        timestamp: float,
        _charge: bool = True,
    ) -> None:
        """Write one cell (a timestamped value)."""
        tablet = self._tablets.locate(row_key)
        added_row = self._write_into(
            tablet, row_key, family, qualifier, value, timestamp
        )
        self._commit(tablet, OpKind.WRITE, added_row, _charge, True, row_key)

    def delete_cell(
        self, row_key: str, family: str, qualifier: str, _charge: bool = True
    ) -> bool:
        """Delete every version of one cell; returns whether anything existed."""
        tablet = self._tablets.locate(row_key)
        existed, removed_row = self._delete_cell_from(
            tablet, row_key, family, qualifier
        )
        self._commit(tablet, OpKind.DELETE, removed_row, _charge, existed, row_key)
        return existed

    def delete_row(self, row_key: str, _charge: bool = True) -> bool:
        """Delete an entire row (a tombstone shadows any run-resident
        versions until compaction garbage-collects them)."""
        tablet = self._tablets.locate(row_key)
        self.version += 1
        self.cache.invalidate_row(tablet.tablet_id, row_key)
        removed = tablet.drop_row(row_key)
        self._commit(tablet, OpKind.DELETE, removed, _charge, removed, row_key)
        return removed

    # ------------------------------------------------------------------
    # Point reads
    # ------------------------------------------------------------------
    def read_latest(
        self, row_key: str, family: str, qualifier: str, _charge: bool = True
    ) -> object:
        """Newest value of ``(row, family, qualifier)``, or ``None`` when the
        row or the cell does not exist (no :class:`Cell`: no timestamp)."""
        if family not in self._families:
            self.family(family)
        tablet = self._tablets.locate(row_key)
        if _charge:
            self.counter.record_point(tablet.counter, OpKind.READ)
        row = tablet.live_row(row_key)
        if row is None:
            return None
        qualifiers = row.get(family)
        chain = qualifiers.get(qualifier) if qualifiers else None
        return chain[1] if chain else None

    def read_versions(
        self, row_key: str, family: str, qualifier: str, _charge: bool = True
    ) -> List[Cell]:
        """All versions of one cell, newest first."""
        self.family(family)
        tablet = self._tablets.locate(row_key)
        if _charge:
            self.counter.record_point(tablet.counter, OpKind.READ)
        row = tablet.live_row(row_key)
        if row is None:
            return []
        qualifiers = row.get(family)
        chain = qualifiers.get(qualifier) if qualifiers else None
        return _cells(chain) if chain else []

    def read_row(
        self, row_key: str, _charge: bool = True
    ) -> Dict[str, Dict[str, List[Cell]]]:
        """Full row contents: ``family -> qualifier -> cells`` (newest first).

        Raises :class:`RowNotFoundError` when the row does not exist.
        """
        tablet = self._tablets.locate(row_key)
        if _charge:
            self.counter.record_point(tablet.counter, OpKind.READ)
        row = tablet.live_row(row_key)
        if row is None:
            raise RowNotFoundError(f"row {row_key!r} not found in table {self.name!r}")
        return row.cells()

    # ------------------------------------------------------------------
    # Scans and batches
    # ------------------------------------------------------------------
    def scan(
        self,
        start_key: Optional[str] = None,
        end_key: Optional[str] = None,
        limit: Optional[int] = None,
        family: Optional[str] = None,
        versions: bool = False,
        trace: Optional[List[tuple]] = None,
    ) -> List[Tuple[str, Dict[str, object]]]:
        """Range scan over ``[start_key, end_key)``, charged per row returned.

        Cold rows cost ``scan_row`` each; rows in blocks the block cache
        holds warm cost ``cache_read_row`` and are recorded as
        ``CACHE_READ`` instead of scan rows.

        With ``family`` the read is projected: each row is ``(row_key,
        {qualifier: newest value})`` of that one family, built by
        :func:`_newest_values` as the scanner collects each tablet's rows,
        and nothing else of the row is copied — the shape every index and
        query path consumes.
        ``versions`` keeps each qualifier's whole newest-first cell chain
        instead (``{qualifier: [Cell, ...]}``), which the aging drain needs.
        Without ``family`` every row is a full structural copy, ``family ->
        qualifier -> cells``, for dumps and tests.  The charging, and
        ``len()`` of the result, are the same in all three.  ``trace``
        collects what :meth:`replay_scan` needs.
        """
        if family is not None:
            self.family(family)
            if not versions:
                return self._scanner.execute_range(
                    start_key, end_key, limit,
                    lambda rows: _newest_values(rows, family), trace,
                )
        scanned = self._scanner.execute_range(start_key, end_key, limit, None, trace)
        if family is None:
            return [(row_key, row.cells()) for row_key, row in scanned]
        return [(row_key, row.version_cells(family)) for row_key, row in scanned]

    def replay_scan(self, start_key: str, end_key: Optional[str], trace) -> None:
        """Charge the scan that filled ``trace`` again (block lookups and
        ledgers); valid while :attr:`version` has not moved since."""
        self._scanner.replay(start_key, end_key, trace)

    def scan_keys(
        self, start_key: Optional[str] = None, end_key: Optional[str] = None
    ) -> List[str]:
        """Keys-only range scan (still charged per row)."""
        return [
            row_key
            for row_key, _ in self._scanner.execute_range(start_key, end_key)
        ]

    def count_range(
        self, start_key: Optional[str] = None, end_key: Optional[str] = None
    ) -> int:
        """Number of rows in ``[start_key, end_key)``.

        Charged as a single scan RPC (BigTable answers this from tablet
        metadata without streaming every row back).
        """
        probe = self._tablets.locate(start_key or OPEN_START)
        self.counter.record_point(probe.counter, OpKind.SCAN)
        return self._tablets.count_range(start_key, end_key)

    def batch_read(
        self, row_keys: Sequence[str], family: Optional[str] = None
    ) -> Dict[str, Dict[str, object]]:
        """Read several rows in one RPC; absent rows are simply missing.

        With ``family`` each found row is ``{qualifier: newest value}`` of
        that family (see :meth:`scan`); without, a full structural copy.

        The shared ledger is charged one ``BATCH_READ`` over every requested
        key, and each tablet the keys route to its own count.  A read
        cannot split or merge a tablet, so the tablets counted while routing
        are still the live ones when they are charged; the batch writes
        instead re-locate through :class:`_TabletTally`, because a tablet
        can merge away while their batch runs.
        """
        if family is not None:
            self.family(family)
        found_keys: List[str] = []
        found_rows: List[_Row] = []
        for row_key, tablet in zip(row_keys, self.charge_batch_read(row_keys)):
            row = tablet.live_row(row_key)
            if row is not None:
                found_keys.append(row_key)
                found_rows.append(row)
        if family is None:
            return {key: row.cells() for key, row in zip(found_keys, found_rows)}
        return dict(zip(found_keys, _newest_values(found_rows, family)))

    def charge_batch_read(self, row_keys: Sequence[str]) -> List[Tablet]:
        """The RPC half of :meth:`batch_read`: charge it and return each
        key's tablet, reading no row."""
        tablets = list(map(self._tablets.locate, row_keys))
        counts: Dict[Tablet, int] = {}
        for tablet in tablets:
            counts[tablet] = counts.get(tablet, 0) + 1
        self.counter.record_batch_read(
            max(len(row_keys), 1),
            [tablet.counter for tablet in counts],
            list(counts.values()),
        )
        return tablets

    def compile_batch_read(self, row_keys: Sequence[str]) -> tuple:
        """What :meth:`charge_batch_read` of ``row_keys`` charges, as a plan
        of atoms: the row count, the positions of the tablets the keys route
        to (:meth:`TabletLocator.index_for`, first seen first) and each one's
        row count.  :meth:`charge_batch_plan` charges it again without
        routing a key; valid while :attr:`version` has not moved, since
        every split and merge bumps it."""
        index_for = self._tablets.index_for
        counts: Dict[int, int] = {}
        for row_key in row_keys:
            index = index_for(row_key)
            counts[index] = counts.get(index, 0) + 1
        return max(len(row_keys), 1), tuple(counts), tuple(counts.values())

    def charge_batch_plan(self, plan: tuple) -> None:
        """Charge a :meth:`compile_batch_read` plan: the same ledgers, rows
        and order as the :meth:`charge_batch_read` it was compiled from."""
        total, indices, rows = plan
        tablet_at = self._tablets.tablet_at
        self.counter.record_batch_read(
            total, [tablet_at(index).counter for index in indices], rows
        )

    def batch_write(
        self, mutations: Sequence[Tuple[str, str, str, object, float]]
    ) -> None:
        """Apply several writes in one RPC.

        Each mutation is ``(row_key, family, qualifier, value, timestamp)``.
        """
        tally = _TabletTally()
        appended: Dict[OpCounter, int] = {}
        for row_key, family, qualifier, value, timestamp in mutations:
            tablet = self._tablets.locate(row_key)
            self._write_into(tablet, row_key, family, qualifier, value, timestamp)
            tally.add(tablet)
            self._log_batch_record(tablet, appended, row_key)
        self.counter.record(OpKind.BATCH_WRITE, rows=max(len(mutations), 1))
        tally.charge(self._tablets, OpKind.BATCH_WRITE)
        self._charge_log_syncs(appended)
        self.version += 1
        for tablet in tally.tablets():
            self._tablets.maybe_split(tablet)
            self._maybe_flush(tablet)

    def batch_delete(self, deletes: Sequence[Tuple[str, str, str]]) -> None:
        """Apply several cell deletions in one RPC."""
        tally = _TabletTally()
        appended: Dict[OpCounter, int] = {}
        for row_key, family, qualifier in deletes:
            tablet = self._tablets.locate(row_key)
            existed, _ = self._delete_cell_from(tablet, row_key, family, qualifier)
            tally.add(tablet)
            if existed:
                self._log_batch_record(tablet, appended, row_key)
        self.counter.record(OpKind.BATCH_WRITE, rows=max(len(deletes), 1))
        tally.charge(self._tablets, OpKind.BATCH_WRITE)
        self._charge_log_syncs(appended)
        self.version += 1
        for tablet in tally.tablets():
            self._tablets.maybe_merge(tablet)
            self._maybe_flush(tablet)

    # ------------------------------------------------------------------
    # Aging
    # ------------------------------------------------------------------
    def age_out(
        self,
        source_family: str,
        target_family: str,
        cutoff_timestamp: float,
    ) -> int:
        """Move cells older than ``cutoff_timestamp`` between families.

        This models the Location Table's periodic transfer of aged records
        from its in-memory column to the next disk column (Section 3.1.2).
        Returns the number of cells moved; charged as one batch write over
        the affected rows.
        """
        self.family(source_family)
        self.family(target_family)
        moved = 0
        touched_rows = 0
        tally = _TabletTally()
        appended: Dict[OpCounter, int] = {}
        # Two passes: aging a run-resident row pulls it back into the
        # memtable, which must not happen under the merged iterator.
        candidates = [
            (tablet, row_key)
            for tablet, row_key, row in self._tablets.scan(None, None)
            if self._has_aged_cells(row, source_family, cutoff_timestamp)
        ]
        for tablet, row_key in candidates:
            row_moved = self._age_row(
                tablet, row_key, source_family, target_family, cutoff_timestamp
            )
            if row_moved == 0:
                continue
            moved += row_moved
            touched_rows += 1
            tally.add(tablet)
            self._log_batch_record(tablet, appended, row_key)
        self.counter.record(OpKind.BATCH_WRITE, rows=max(touched_rows, 1))
        tally.charge(self._tablets, OpKind.BATCH_WRITE)
        self._charge_log_syncs(appended)
        for tablet in tally.tablets():
            self._maybe_flush(tablet)
        return moved

    @staticmethod
    def _has_aged_cells(row, source_family: str, cutoff_timestamp: float) -> bool:
        qualifiers = row.get(source_family)
        if not qualifiers:
            return False
        # Chains are newest first: the oldest version is the last pair.
        return any(
            chain and chain[-2] < cutoff_timestamp for chain in qualifiers.values()
        )

    def _age_row(
        self,
        tablet: Tablet,
        row_key: str,
        source_family: str,
        target_family: str,
        cutoff_timestamp: float,
    ) -> int:
        """Apply the per-row aging transform; returns the number of cells
        moved."""
        target = self.family(target_family)
        row = tablet.ensure_writable(row_key)
        if row is None:
            return 0
        qualifiers = row.get(source_family)
        if not qualifiers:
            return 0
        limit = 2 * target.max_versions
        moved = 0
        for qualifier, chain in qualifiers.items():
            # Chains are newest first, so the aged versions are a suffix.
            split = len(chain)
            while split and chain[split - 2] < cutoff_timestamp:
                split -= 2
            if split == len(chain):
                continue
            aged = chain[split:]
            qualifiers[qualifier] = chain[:split]
            targets = row.setdefault(target_family, {})
            # Stable newest-first merge: on equal timestamps the versions
            # already in the target stay in front of the arrivals.
            both = targets.get(qualifier, ()) + aged
            merged = sorted(
                zip(both[0::2], both[1::2]), key=itemgetter(0), reverse=True
            )
            destination = tuple(item for pair in merged for item in pair)
            targets[qualifier] = destination[:limit] if limit > 0 else destination
            moved += len(aged) // 2
        if moved:
            self.version += 1
            self.cache.invalidate_row(tablet.tablet_id, row_key)
        return moved

    # ------------------------------------------------------------------
    # LSM durability: flush, compaction, crash recovery
    # ------------------------------------------------------------------
    def _flush_tablet(self, tablet: Tablet) -> int:
        """Flush one memtable into a new run (minor compaction), charging
        the durability ledgers and keeping the run count tiered."""
        flushed = tablet.flush(self._seq)
        if flushed:
            # The flushed rows now live in the (cold) new run; their
            # memtable blocks are gone.
            self.version += 1
            self.cache.invalidate_source(tablet.tablet_id, MEMTABLE_SOURCE)
            self.counter.record_durability(OpKind.COMPACTION_WRITE, rows=flushed)
            tablet.counter.record_durability(OpKind.COMPACTION_WRITE, rows=flushed)
            if len(tablet.runs) > self.options.compaction_max_runs:
                self._compact_tablet(tablet)
        return flushed

    def _compact_tablet(self, tablet: Tablet, major: bool = False) -> int:
        """Run one (size-tiered or major) compaction on a tablet; returns
        rows written into the replacement run."""
        if major:
            window = list(tablet.runs)
            if not window:
                return 0
        else:
            window = tablet.compaction_window(self.options.compaction_max_runs)
            if len(window) < 2:
                return 0
        consumed = {run.run_id for run in window}
        rows_read, rows_written = tablet.compact(window, drop_all_tombstones=major)
        self.version += 1
        for run_id in consumed:
            self.cache.invalidate_source(tablet.tablet_id, run_id)
        # One COMPACTION_READ call per compaction (its rows are the rows of
        # every consumed run), so ``durability_count(COMPACTION_READ)`` is
        # the number of compactions run — not runs consumed.
        self.counter.record_durability(OpKind.COMPACTION_READ, rows=rows_read)
        tablet.counter.record_durability(OpKind.COMPACTION_READ, rows=rows_read)
        if rows_written:
            self.counter.record_durability(OpKind.COMPACTION_WRITE, rows=rows_written)
            tablet.counter.record_durability(
                OpKind.COMPACTION_WRITE, rows=rows_written
            )
        return rows_written

    def flush_memtables(self) -> int:
        """Flush every tablet's memtable (an explicit minor compaction
        across the table); returns the rows written to new runs."""
        return sum(
            self._flush_tablet(tablet) for tablet in self._tablets.tablets()
        )

    def compact_runs(self, major: bool = False) -> int:
        """Compact every tablet's runs; ``major`` merges each tablet's whole
        run set and garbage-collects every tombstone.  Returns rows written."""
        return sum(
            self._compact_tablet(tablet, major=major)
            for tablet in self._tablets.tablets()
        )

    def recover(self) -> TableRecovery:
        """Simulate a tablet-server crash and recover from durable state.

        A crash loses every memtable and the block cache (both lived in the
        crashed server's memory); tablet boundaries, SSTable runs and commit
        logs are durable.  Each tablet re-opens its runs and replays its log
        tail, which rebuilds exactly the pre-crash memtable: the log holds
        precisely the mutations since that tablet's last flush, in commit
        order.  The emulator never lost the memtable, so it keeps it and
        charges the replay by its record count; the cache is dropped.
        """
        self.version += 1
        self.cache.clear()
        model = self.counter.model
        runs_opened = 0
        run_rows = 0
        replayed = 0
        for tablet in self._tablets.tablets():
            runs_opened += len(tablet.runs)
            run_rows += sum(len(run) for run in tablet.runs)
            replayed += tablet.log_records
        # Recovery time = per-run open overhead (index + Bloom metadata, not
        # the data blocks — those fault in lazily afterwards) plus the log
        # replay.  It is reported through the RecoveryReport; the durability
        # ledger keeps tracking only steady-state log/flush/compaction I/O,
        # so write-amplification figures are not polluted by crashes.
        simulated = (
            runs_opened * model.run_open_rpc + replayed * model.log_replay_row
        )
        return TableRecovery(
            table=self.name,
            tablets=self.tablet_count(),
            runs_opened=runs_opened,
            run_rows_loaded=run_rows,
            log_records_replayed=replayed,
            simulated_seconds=simulated,
        )

    def recover_tablet(self, tablet: Tablet) -> TableRecovery:
        """Crash-and-recover a single tablet (a per-server failover).

        The tablet's memtable and its resident cache blocks are lost (they
        lived in the crashed tablet server's memory); its SSTable runs,
        commit log and boundary metadata are durable.  The same invariant as
        :meth:`recover`, scoped to the tablets one crashed front-end
        actually served: the tablet's blocks are evicted, its memtable is
        kept, and its run opens and log replay are charged.
        """
        self.version += 1
        self.cache.invalidate_tablet(tablet.tablet_id)
        model = self.counter.model
        replayed = tablet.log_records
        simulated = (
            len(tablet.runs) * model.run_open_rpc + replayed * model.log_replay_row
        )
        return TableRecovery(
            table=self.name,
            tablets=1,
            runs_opened=len(tablet.runs),
            run_rows_loaded=sum(len(run) for run in tablet.runs),
            log_records_replayed=replayed,
            simulated_seconds=simulated,
        )

    def flush_tablet(self, tablet: Tablet) -> int:
        """Flush one tablet's memtable into an SSTable run (the freeze step
        of a live migration); returns the rows written."""
        return self._flush_tablet(tablet)

    def find_tablet(self, tablet_id: str) -> Optional[Tablet]:
        """The live tablet with that id, or ``None`` (split/merged away)."""
        for tablet in self._tablets.tablets():
            if tablet.tablet_id == tablet_id:
                return tablet
        return None

    def run_count(self) -> int:
        """SSTable runs currently held across every tablet."""
        return sum(len(tablet.runs) for tablet in self._tablets.tablets())

    # ------------------------------------------------------------------
    # Tablet introspection (not charged: administrative)
    # ------------------------------------------------------------------
    def tablets(self) -> List[Tablet]:
        """Every tablet in key order."""
        return self._tablets.tablets()

    def tablet_count(self) -> int:
        """Number of tablets the table is currently split into."""
        return len(self._tablets)

    def tablet_for_key(self, row_key: str) -> Tablet:
        """The tablet whose range contains ``row_key`` (routing helper)."""
        return self._tablets.locate(row_key)

    def tablet_stats(self) -> List[TabletStats]:
        """Frozen per-tablet accounting, in key order."""
        return self._tablets.stats()

    def reset_tablet_counters(self) -> None:
        """Zero every tablet ledger (the shared counter is managed by the
        backend)."""
        self._tablets.reset_counters()

    # ------------------------------------------------------------------
    # Block cache introspection (not charged: administrative)
    # ------------------------------------------------------------------
    def cache_stats(self) -> List[TabletCacheStats]:
        """Per-tablet block-cache hit/miss accounting."""
        return self.cache.stats(self.name)

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss tallies (resident blocks stay warm)."""
        self.cache.reset_stats()

    # ------------------------------------------------------------------
    # Introspection (not charged: administrative / test helpers)
    # ------------------------------------------------------------------
    def row_count(self) -> int:
        """Number of rows currently stored."""
        return self._tablets.total_rows()

    def all_keys(self) -> List[str]:
        """Every row key in order (test helper, not charged).

        Tablets are disjoint and in key order, so concatenating each
        tablet's live-key run yields the global order without touching
        row values.
        """
        return [
            key
            for tablet in self._tablets.tablets()
            for key in tablet.iter_live_keys()
        ]
