"""Per-table persistent store: journal, run block files, manifest.

Layout of one table's directory::

    <root>/
      journal.bin     append-only framed commit-log records, written and
                      fsynced when their durability is paid (below)
      MANIFEST.bin    checksummed tagged-value blob, atomically replaced
                      (tmp + fsync + os.replace) at every checkpoint
      runs/<id>.run   one immutable block file per SSTable run, written
                      exactly once when the run first appears in a manifest;
                      a file no manifest names is never read (opening the
                      store deletes it)

The store is **write-through and write-only** during normal operation: the
in-memory LSM engine never reads these files while alive, so attaching a
store changes no simulated ledger, split decision or query result.  Reads
happen exactly once — in :func:`restore_table`, after a process death.

Crash consistency — **durable at the acknowledgement** (all orderings
enforced here; every real ``fsync`` is ``journal_sync``'s or a checkpoint's):

* commit-log appends are buffered in process, and framed only when they
  reach the file (most records a checkpoint drops never are); where the
  simulation charges the commit's LOG_APPEND, ``journal_commit`` marks them
  as *owed* durability.  The debt is paid (one ``write`` + one ``fsync``)
  on the spot, or — inside :meth:`BigtableEmulator.durability_barrier` —
  once, when the request's outermost barrier closes: before the accounting
  checkpoint and the response frame.  Journal bytes reach the file only
  there: a record the process died holding was never synced, so never
  acknowledged (``read_journal`` and ``close`` also write the buffer out);
* a checkpoint first writes any run files the manifest will reference
  (fsynced, in place: a run file is trusted only once a manifest names it,
  so a checkpoint killed before its manifest rename leaves an orphan that
  the next open deletes, not a file a reused run id would adopt), then
  atomically replaces the manifest (which carries the journal sequence
  watermark), then truncates the journal, drops the buffered records and
  cancels their debt (the manifest's per-tablet logs own those records
  now) — a crash between the last two steps leaves stale journal records
  that the watermark filters out on restore;
* structural events (split, merge, flush, compaction, family addition)
  always checkpoint, so the journal tail never spans a tablet-boundary
  change and replaying it through the *restored* boundaries is exact.

The shard's accounting checkpoint (``SHARD_STATE.bin``, beside the table
directories) is written here too (:class:`StateBlob`): two alternating
slots, each a sequence number, a crc and one tagged dict of
:data:`STATE_SECTIONS`.  After every mutating request the older slot is
overwritten in place; the file is only created, or grown when a blob
outgrows its slot, by tmp + ``os.replace``.  A kill mid-write tears at most
the slot being written — the one of a request not yet acknowledged — and a
restore takes the newest valid slot: the shard as a kill just before the
write would have left it.

Not promised: the accounting blob is not fsynced, and neither a new run
file nor an ``os.replace`` is followed by a directory fsync — all of it
survives process death, not power loss.

Restore rebuilds the locator surgically — each distinct run file is loaded
once and its key/value arrays are shared across every tablet slice
referencing it, preserving the ``try_coalesce`` identity checks; each
tablet takes its runs through ``Tablet.install_runs`` — then replays the journal tail into the per-tablet logs and runs
the engine's own (uncharged) crash recovery, which reconstructs the exact
pre-kill memtables (the engine's recovery invariant).
"""

from __future__ import annotations

import dataclasses
import os
import struct
import zlib
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CodecError, UnrecoverableShardError

from repro.bigtable.lsm import SSTable
from repro.bigtable.scan import BlockCacheOptions
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import Tablet, TabletOptions
from repro.codec.blocks import (
    decode_manifest,
    decode_run_block,
    encode_journal_record,
    encode_manifest,
    encode_row,
    encode_run_block,
    iter_journal_records,
)
from repro.codec.values import unpack_value

#: Bumped when what the files *mean* changes; a manifest of another format
#: reads as "no checkpoint".  2: cell values are rows at rest (exact tuples)
#: where format 1 held the ``Point`` / ``Vector`` / record objects themselves.
#: 3: the recorded tablet options no longer carry ``commit_log_enabled``
#: (every mutation is logged), so format 2 options would not construct.
MANIFEST_FORMAT = 3

#: The store's wall-clock timers (``DiskTableStore.seconds``), in order.
STORE_STEPS = (
    "journal_sync",
    "checkpoint",
    "run_encode",
    "run_write",
    "manifest_write",
    "run_gc",
)

_JOURNAL_NAME = "journal.bin"
_MANIFEST_NAME = "MANIFEST.bin"
_RUNS_DIR = "runs"


def _run_filename(run_id: str) -> str:
    return run_id.replace("/", "__") + ".run"


class DiskTableStore:
    """Write-through persistence for one :class:`Table` (see module doc)."""

    def __init__(self, root: str, barrier: Optional[object] = None) -> None:
        self.root = root
        #: The emulator: while its ``barrier_open``, commits wait for ``settle``.
        self._barrier = barrier
        self._runs_dir = os.path.join(root, _RUNS_DIR)
        os.makedirs(self._runs_dir, exist_ok=True)
        self._journal_path = os.path.join(root, _JOURNAL_NAME)
        self._manifest_path = os.path.join(root, _MANIFEST_NAME)
        #: run_id -> filename for every run file the manifest names.
        self._persisted: Dict[str, str] = {}
        self._adopt_named_runs()
        self._journal = open(self._journal_path, "ab", buffering=0)
        #: Records appended since the last sync point (see module doc),
        #: framed only when they reach the file.
        self._pending: List[tuple] = []
        #: ``id(row) -> its run-block bytes`` for the rows of the runs this
        #: process encoded: a frozen row is encoded once however often
        #: compaction carries it into a new run.
        self._row_memo: Dict[int, bytes] = {}
        #: ``id(row) -> runs holding it beyond the first``, for the rows
        #: more than one run holds (a compaction's output and its inputs
        #: until they are collected; the halves of a split run).
        self._row_shares: Dict[int, int] = {}
        #: run_id -> the values of each run this process encoded.  Holding
        #: them pins every memoised row, so no ``id`` in the memo can be
        #: reused; a row leaves the memo with the last run holding it.
        self._run_rows: Dict[str, Sequence[object]] = {}
        #: Committed records still await their fsync.
        self._owed = False
        self.journal_bytes = 0
        self.journal_syncs = 0  # real fsyncs issued
        #: Wall seconds spent in each persistence step (observability only).
        #: ``run_encode``, ``run_write``, ``manifest_write`` and ``run_gc``
        #: are the parts of ``checkpoint``.
        self.seconds = dict.fromkeys(STORE_STEPS, 0.0)

    def _adopt_named_runs(self) -> None:
        """Trust only the run files the manifest names.  Any other file in
        ``runs/`` — a run written by a checkpoint killed before its manifest
        rename, a file whose deletion failed — and a leftover manifest
        ``.tmp`` are deleted, so a run id used again is written afresh."""
        manifest = self.load_manifest()
        named: Dict[str, str] = {}
        if manifest is not None:
            for entry in manifest["tablets"]:
                for run in entry["runs"]:
                    named[_run_filename(run[0])] = run[0]
        for filename in os.listdir(self._runs_dir):
            if filename in named:
                self._persisted[named[filename]] = filename
            else:
                os.remove(os.path.join(self._runs_dir, filename))
        if os.path.exists(self._manifest_path + ".tmp"):
            os.remove(self._manifest_path + ".tmp")

    def has_checkpoint(self) -> bool:
        return os.path.exists(self._manifest_path)

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def journal_append(self, record: tuple) -> None:
        self._pending.append(record)

    def _write_pending(self) -> None:
        pending = self._pending
        if not pending:
            return
        frames = bytearray()
        for index, record in enumerate(pending):
            try:
                frames += encode_journal_record(record)
            except CodecError:
                del pending[index]  # refused: it never reaches the file
                raise
        self._journal.write(frames)
        self.journal_bytes += len(frames)
        pending.clear()

    def journal_commit(self) -> None:
        """The table's commit point: the buffered records are owed
        durability — now, or at :meth:`settle` while a barrier is open."""
        if self._barrier is not None and self._barrier.barrier_open:
            self._owed = True
        else:
            self.journal_sync()

    def settle(self) -> None:
        """The barrier closed: pay the fsync still owed, if any."""
        if self._owed:
            self.journal_sync()

    def journal_sync(self) -> None:
        started = perf_counter()
        self._write_pending()
        os.fsync(self._journal.fileno())
        self._owed = False
        self.journal_syncs += 1
        self.seconds["journal_sync"] += perf_counter() - started

    def read_journal(self) -> List[tuple]:
        self._write_pending()
        with open(self._journal_path, "rb") as handle:
            return list(iter_journal_records(handle.read()))

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, table: Table) -> None:
        """Persist the table's durable skeleton: run files for every run
        the manifest references, then the manifest itself, then truncate
        the journal (its records are all reflected in the manifest now)."""
        seconds = self.seconds
        started = perf_counter()
        locator = table._tablets
        tablets = []
        for tablet in locator._tablets:
            runs = []
            for run in tablet.runs:
                self._ensure_run_file(run)
                runs.append((run.run_id, run._lo, run._hi, run.max_seqno))
            tablets.append(
                {
                    "id": tablet.tablet_id,
                    "start": tablet.start_key,
                    "next_run": tablet._next_run,
                    "runs": runs,
                    "log": tablet.log.records,
                }
            )
        runs_done = perf_counter()
        manifest = {
            "format": MANIFEST_FORMAT,
            "name": table.name,
            "seq": table._seq,
            "next_tablet_id": locator._next_id,
            "splits": locator.splits,
            "merges": locator.merges,
            "options": dataclasses.asdict(table.options),
            "families": [
                dataclasses.asdict(family)
                for family in table._families.values()
            ],
            "tablets": tablets,
        }
        blob = encode_manifest(manifest)
        tmp_path = self._manifest_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self._manifest_path)
        manifest_done = perf_counter()
        # The manifest now owns every record below the watermark; drop
        # them, buffered or written, and the fsync they were owed.
        self._pending.clear()
        self._owed = False
        os.ftruncate(self._journal.fileno(), 0)
        self._gc_runs(
            {run[0] for entry in tablets for run in entry["runs"]}
        )
        finished = perf_counter()
        seconds["manifest_write"] += manifest_done - runs_done
        seconds["run_gc"] += finished - manifest_done
        seconds["checkpoint"] += finished - started

    def _ensure_run_file(self, run: SSTable) -> None:
        """Write a run's file the first time a manifest will name it.  No
        tmp + rename: until the manifest names it the file is not trusted
        (a restart deletes it), and it is fsynced before the manifest is."""
        if run.run_id in self._persisted:
            return
        filename = _run_filename(run.run_id)
        # Run files store the FULL backing arrays; sliced tablets reference
        # [lo, hi) windows of the shared file via the manifest.
        started = perf_counter()
        try:
            blob = encode_run_block(
                run._keys, run._values, run.max_seqno, self._row_bytes
            )
            encoded = perf_counter()
            with open(os.path.join(self._runs_dir, filename), "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
        except BaseException:
            # The memo counted this run's rows, but the run will be written
            # again: forget every row rather than count them twice.
            self._row_memo.clear()
            self._row_shares.clear()
            self._run_rows.clear()
            raise
        self._run_rows[run.run_id] = run._values
        self._persisted[run.run_id] = filename
        self.seconds["run_encode"] += encoded - started
        self.seconds["run_write"] += perf_counter() - encoded

    def _row_bytes(self, row: object) -> bytes:
        """:func:`encode_row` through the memo, counting one more run that
        holds the row."""
        key = id(row)
        encoded = self._row_memo.get(key)
        if encoded is None:
            encoded = self._row_memo[key] = encode_row(row)
        else:
            self._row_shares[key] = self._row_shares.get(key, 0) + 1
        return encoded

    def _gc_runs(self, live_run_ids: set) -> None:
        """Delete run files no manifest references anymore (compaction and
        flush retire runs; their files are garbage after the checkpoint),
        and forget the rows no remaining run holds."""
        for run_id in list(self._persisted):
            if run_id not in live_run_ids:
                try:
                    os.remove(os.path.join(self._runs_dir, self._persisted[run_id]))
                except OSError:
                    continue  # best-effort: the next checkpoint retries it
                del self._persisted[run_id]
        retired = [run_id for run_id in self._run_rows if run_id not in live_run_ids]
        memo = self._row_memo
        shares = self._row_shares
        for run_id in retired:
            for row in self._run_rows.pop(run_id):
                key = id(row)
                extra = shares.pop(key, 0)
                if extra > 1:
                    shares[key] = extra - 1
                elif not extra:
                    memo.pop(key, None)  # a tombstone never entered it

    # ------------------------------------------------------------------
    # Restore-side reads
    # ------------------------------------------------------------------
    def load_manifest(self) -> Optional[dict]:
        try:
            with open(self._manifest_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        manifest = decode_manifest(data)
        if manifest is None or manifest.get("format") != MANIFEST_FORMAT:
            return None
        return manifest

    def read_run(self, run_id: str) -> Tuple[List[str], List[object], int]:
        path = os.path.join(self._runs_dir, _run_filename(run_id))
        with open(path, "rb") as handle:
            keys, values, max_seqno = decode_run_block(handle.read())
        return keys, values, max_seqno

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._journal.closed:
            self._write_pending()
            self._journal.close()


def restore_table(
    store: DiskTableStore,
    name: str,
    families,
    counter,
    cache_options: Optional[BlockCacheOptions] = None,
    max_seq: Optional[int] = None,
) -> Optional[Table]:
    """Rebuild a table from its store directory, or ``None`` when no
    checkpoint exists (first boot).  Tablet options come from the manifest
    — a restart needs no knob re-plumbing — and families are the union of
    the caller's declarations and what the manifest recorded (archiving may
    have added aged families at runtime).

    ``max_seq`` bounds the restore to an *acked* point: journal records past
    it are discarded (the parent never saw their batch acknowledged, so the
    supervisor will re-send it) — and checkpointed away, since the resend
    reuses their sequence numbers — and a structural checkpoint already
    beyond it is unrecoverable: the pre-ack state can no longer be
    reconstructed.
    """
    manifest = store.load_manifest()
    if manifest is None:
        return None
    if manifest["name"] != name:
        raise ValueError(
            f"store at {store.root!r} holds table {manifest['name']!r}, "
            f"not {name!r}"
        )
    if max_seq is not None and manifest["seq"] > max_seq:
        raise UnrecoverableShardError(
            f"table {name!r} checkpointed at seq {manifest['seq']}, past the "
            f"acked watermark {max_seq}: mid-batch structural checkpoint "
            "cannot be rolled back"
        )
    options = TabletOptions(**manifest["options"])
    table = Table(
        name,
        families,
        counter=counter,
        options=options,
        cache_options=cache_options,
    )
    for family_fields in manifest["families"]:
        if family_fields["name"] not in table._families:
            table.add_family(ColumnFamily(**family_fields))

    locator = table._tablets
    model = counter.model
    # Load each distinct run file once: slices of the same run must share
    # their backing arrays (coalesce checks use identity).
    loaded: Dict[str, Tuple[List[str], List[object], int]] = {}
    tablets: List[Tablet] = []
    for entry in manifest["tablets"]:
        tablet = Tablet(entry["id"], entry["start"], model)
        tablet._next_run = entry["next_run"]
        runs = []
        for run_id, lo, hi, max_seqno in entry["runs"]:
            if run_id not in loaded:
                loaded[run_id] = store.read_run(run_id)
            keys, values, _ = loaded[run_id]
            runs.append(SSTable(run_id, keys, values, max_seqno, lo, hi))
        tablet.install_runs(runs)
        for record in entry["log"]:
            tablet.log.append(tuple(record))
        tablets.append(tablet)
    locator._tablets = tablets
    locator._starts = [tablet.start_key for tablet in tablets]
    locator._next_id = manifest["next_tablet_id"]
    locator.splits = manifest["splits"]
    locator.merges = manifest["merges"]
    table._seq = manifest["seq"]

    # Journal tail: records committed after the checkpoint.  Splits and
    # merges always checkpoint, so the restored boundaries are exactly the
    # boundaries these records were routed under when first applied.
    watermark = manifest["seq"]
    unacked = False
    for record in store.read_journal():
        if record[0] <= watermark:
            continue  # checkpointed after this record was journalled
        if max_seq is not None and record[0] > max_seq:
            unacked = True  # never acked to the parent: the retry re-sends it
            continue
        locator.locate(record[2]).log.append(record)
        if record[0] > table._seq:
            table._seq = record[0]

    # The engine's own crash recovery replays every log over the runs,
    # reconstructing the exact pre-kill memtables — uncharged, exactly as
    # the recovery property suite guarantees.
    table.recover()
    table.attach_store(store)
    if unacked:
        store.checkpoint(table)  # the journal no longer holds the dropped records
    return table


# --------------------------------------------------------------------------
# Soft-state blobs (shard accounting checkpoints)
# --------------------------------------------------------------------------

#: Bumped whenever the file's shape changes: a blob never outlives one
#: run, so a mismatch is damage, not something to migrate.  4: the body is
#: one tagged value (:mod:`repro.codec.values`), like every other file here.
#: 5: two alternating slots, rewritten in place.
STATE_FORMAT = 5

#: The body's keys, in order: one section per owner of soft state, each that
#: owner's ``export_state()`` (``ShardService.accounting_state`` walks them).
STATE_SECTIONS = ("dedup", "emulator", "flag", "cluster", "master")

_STATE_FILE = struct.Struct("<II")  # format, slot capacity
_SLOT_CRC = struct.Struct("<I")  # crc32 of the fields and the body
_SLOT_FIELDS = struct.Struct("<QI")  # sequence number, body length
_SLOT_HEADER = _SLOT_CRC.size + _SLOT_FIELDS.size
_SLOT_ALIGN = 4096


class StateBlob:
    """The shard's accounting checkpoint: one file of two alternating slots.

    A ``<II`` header (format, slot capacity) precedes two slots of that
    capacity.  A slot is a crc32 (``<I``, over the rest of the slot), its
    sequence number and body length (``<QI``), then the body: one tagged
    dict of :data:`STATE_SECTIONS`.  Write ``n`` goes to slot ``n % 2``,
    the older one, so the newest valid blob is never the one overwritten,
    and a restore takes the newest valid slot.  Written without fsync: the
    blob only needs to survive *process* death, not power loss — the
    durable LSM state underneath carries its own fsync protocol.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Zero until this process has written or read the file: the next
        #: write creates it.
        self._capacity = 0
        #: Sequence number of the newest valid slot.
        self._seq = 0

    def write(self, body: bytes) -> int:
        """Persist one packed :data:`STATE_SECTIONS` dict; returns the bytes
        written.  A write that fits is one ``pwrite`` over the older slot of
        the existing file; otherwise the file is created or grown whole."""
        seq = self._seq + 1
        fields = _SLOT_FIELDS.pack(seq, len(body))
        crc = zlib.crc32(body, zlib.crc32(fields))
        slot = _SLOT_CRC.pack(crc) + fields + body
        if len(slot) > self._capacity:
            self._create(slot, seq)
        else:
            fd = os.open(self.path, os.O_WRONLY)
            try:
                os.pwrite(fd, slot, _STATE_FILE.size + seq % 2 * self._capacity)
            finally:
                os.close(fd)
        self._seq = seq
        return len(slot)

    def _create(self, slot: bytes, seq: int) -> None:
        """Write the whole file around one slot (tmp + ``os.replace``, so it
        is never torn), with room for a quarter more."""
        capacity = -(-(len(slot) * 5 // 4) // _SLOT_ALIGN) * _SLOT_ALIGN
        data = bytearray(_STATE_FILE.size + 2 * capacity)
        _STATE_FILE.pack_into(data, 0, STATE_FORMAT, capacity)
        offset = _STATE_FILE.size + seq % 2 * capacity
        data[offset : offset + len(slot)] = slot
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, self.path)
        self._capacity = capacity

    def read(self) -> Optional[dict]:
        """The newest valid slot's sections; ``None`` when the file is
        absent.  A file whose header is damaged, or with no valid slot,
        raises :class:`UnrecoverableShardError`: its ledgers and
        exactly-once slot are gone, and restoring without them would
        silently zero the accounting and re-apply an unacked batch.  After a
        read, the next :meth:`write` goes to the other slot."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        newest: Optional[Tuple[int, dict]] = None
        capacity = 0
        if len(data) >= _STATE_FILE.size:
            version, capacity = _STATE_FILE.unpack_from(data)
            fits = len(data) == _STATE_FILE.size + 2 * capacity
            if version == STATE_FORMAT and capacity >= _SLOT_HEADER and fits:
                for index in (0, 1):
                    found = _read_slot(data, index, capacity)
                    if found and (newest is None or found[0] > newest[0]):
                        newest = found
        if newest is None:
            raise UnrecoverableShardError(
                f"accounting checkpoint {self.path!r} has no valid format "
                f"{STATE_FORMAT} slot: the shard cannot be restored losslessly"
            )
        self._capacity = capacity
        self._seq = newest[0]
        return newest[1]


def _read_slot(
    data: bytes, index: int, capacity: int
) -> Optional[Tuple[int, dict]]:
    """``(sequence, sections)`` of one slot, or ``None`` when it is torn,
    corrupt, in the wrong slot for its sequence or not the section dict."""
    start = _STATE_FILE.size + index * capacity
    (crc,) = _SLOT_CRC.unpack_from(data, start)
    seq, length = _SLOT_FIELDS.unpack_from(data, start + _SLOT_CRC.size)
    if seq % 2 != index or length > capacity - _SLOT_HEADER:
        return None
    end = start + _SLOT_HEADER + length
    if zlib.crc32(memoryview(data)[start + _SLOT_CRC.size : end]) != crc:
        return None
    try:
        payload = unpack_value(data[start + _SLOT_HEADER : end])
    except CodecError:
        return None
    fits = type(payload) is dict and tuple(payload) == STATE_SECTIONS
    return (seq, payload) if fits else None
