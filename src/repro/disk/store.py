"""Per-table persistent store: journal, run block files, manifest.

Layout of one table's directory::

    <root>/
      journal.bin     append-only framed commit-log records, written and
                      fsynced when their durability is paid (below)
      MANIFEST.bin    checksummed tagged-value blob, atomically replaced
                      (tmp + fsync + os.replace) at every checkpoint
      runs/<id>.run   one immutable block file per SSTable run, written
                      exactly once when the run first appears in a manifest

The store is **write-through and write-only** during normal operation: the
in-memory LSM engine never reads these files while alive, so attaching a
store changes no simulated ledger, split decision or query result.  Reads
happen exactly once — in :func:`restore_table`, after a process death.

Crash consistency — **durable at the acknowledgement** (all orderings
enforced here; every real ``fsync`` is ``journal_sync``'s or a checkpoint's):

* commit-log appends are framed into an in-process buffer; where the
  simulation charges the commit's LOG_APPEND, ``journal_commit`` marks them
  as *owed* durability.  The debt is paid (one ``write`` + one ``fsync``)
  on the spot, or — inside :meth:`BigtableEmulator.durability_barrier` —
  once, when the request's outermost barrier closes: before the accounting
  checkpoint and the response frame.  Journal bytes reach the file only
  there: a record the process died holding was never synced, so never
  acknowledged (``read_journal`` and ``close`` also write the buffer out);
* a checkpoint first writes any run files the manifest will reference
  (fsynced), then atomically replaces the manifest (which carries the
  journal sequence watermark), then truncates the journal, drops the
  buffered frames and cancels their debt (the manifest's per-tablet logs
  own those records now) — a crash between the last two steps leaves stale
  journal records that the watermark filters out on restore;
* structural events (split, merge, flush, compaction, family addition)
  always checkpoint, so the journal tail never spans a tablet-boundary
  change and replaying it through the *restored* boundaries is exact.

The shard's accounting checkpoint (``SHARD_STATE.bin``, beside the table
directories) is written here too: a ``<III`` header (format, body length,
crc32 of the body), then one tagged dict of :data:`STATE_SECTIONS`, replaced
whole (tmp + ``os.replace``) after every mutating request.

Not promised: the accounting blob is not fsynced and no ``os.replace`` is
followed by a directory fsync — both survive process death, not power loss.

Restore rebuilds the locator surgically — each distinct run file is loaded
once and its key/value arrays (and Bloom filter) are shared across every
tablet slice referencing it, preserving the ``try_coalesce`` identity
checks — then replays the journal tail into the per-tablet logs and runs
the engine's own (uncharged) crash recovery, which reconstructs the exact
pre-kill memtables (the engine's recovery invariant).
"""

from __future__ import annotations

import dataclasses
import os
import struct
import zlib
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.errors import CodecError, UnrecoverableShardError

from repro.bigtable.lsm import BloomFilter, SSTable
from repro.bigtable.scan import BlockCacheOptions
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import Tablet, TabletOptions
from repro.codec.blocks import (
    decode_manifest,
    decode_run_block,
    encode_journal_record,
    encode_manifest,
    encode_run_block,
    iter_journal_records,
)
from repro.codec.values import pack_value, unpack_value

#: Bumped when what the files *mean* changes; a manifest of another format
#: reads as "no checkpoint".  2: cell values are rows at rest (exact tuples)
#: where format 1 held the ``Point`` / ``Vector`` / record objects themselves.
#: 3: the recorded tablet options no longer carry ``commit_log_enabled``
#: (every mutation is logged), so format 2 options would not construct.
MANIFEST_FORMAT = 3

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
        self._journal = open(self._journal_path, "ab", buffering=0)
        #: Frames appended since the last sync point (see module doc).
        self._pending = bytearray()
        #: run_id -> filename for every run known to be on disk.
        self._persisted: Dict[str, str] = {
            name[: -len(".run")].replace("__", "/"): name
            for name in os.listdir(self._runs_dir)
            if name.endswith(".run")
        }
        #: Committed records still await their fsync.
        self._owed = False
        self.journal_bytes = 0
        self.journal_syncs = 0  # real fsyncs issued
        #: Wall seconds spent in each persistence step (observability only;
        #: ``run_encode`` is the part of ``checkpoint`` spent encoding runs).
        self.seconds = {"journal_sync": 0.0, "checkpoint": 0.0, "run_encode": 0.0}

    def has_checkpoint(self) -> bool:
        return os.path.exists(self._manifest_path)

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def journal_append(self, record: tuple) -> None:
        self._pending += encode_journal_record(record)

    def _write_pending(self) -> None:
        if self._pending:
            self._journal.write(self._pending)
            self.journal_bytes += len(self._pending)
            self._pending.clear()

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
        # The manifest now owns every record below the watermark; drop
        # them, buffered or written, and the fsync they were owed.
        self._pending.clear()
        self._owed = False
        os.ftruncate(self._journal.fileno(), 0)
        self._gc_runs(
            {run[0] for entry in tablets for run in entry["runs"]}
        )
        self.seconds["checkpoint"] += perf_counter() - started

    def _ensure_run_file(self, run: SSTable) -> None:
        if run.run_id in self._persisted:
            return
        filename = _run_filename(run.run_id)
        # Run files store the FULL backing arrays; sliced tablets reference
        # [lo, hi) windows of the shared file via the manifest.
        started = perf_counter()
        blob = encode_run_block(run._keys, run._values, run.max_seqno)
        self.seconds["run_encode"] += perf_counter() - started
        path = os.path.join(self._runs_dir, filename)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        self._persisted[run.run_id] = filename

    def _gc_runs(self, live_run_ids: set) -> None:
        """Delete run files no manifest references anymore (compaction and
        flush retire runs; their files are garbage after the checkpoint)."""
        if not live_run_ids and not self._persisted:
            return
        for run_id in list(self._persisted):
            if run_id not in live_run_ids:
                try:
                    os.remove(os.path.join(self._runs_dir, self._persisted[run_id]))
                except OSError:
                    continue  # best-effort: the next checkpoint retries it
                del self._persisted[run_id]

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
    supervisor will re-send it), and a structural checkpoint already beyond
    it is unrecoverable — the pre-ack state can no longer be reconstructed.
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
    # their backing arrays (coalesce checks use identity) and their Bloom
    # filter (built over the full key set regardless of slice).
    loaded: Dict[str, Tuple[List[str], List[object], int, BloomFilter]] = {}
    tablets: List[Tablet] = []
    for entry in manifest["tablets"]:
        tablet = Tablet(entry["id"], entry["start"], model)
        tablet._next_run = entry["next_run"]
        for run_id, lo, hi, max_seqno in entry["runs"]:
            cached = loaded.get(run_id)
            if cached is None:
                keys, values, file_seqno = store.read_run(run_id)
                cached = (keys, values, file_seqno, BloomFilter(keys))
                loaded[run_id] = cached
            keys, values, _, bloom = cached
            tablet.runs.append(
                SSTable(run_id, keys, values, max_seqno, lo, hi, bloom=bloom)
            )
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
    for record in store.read_journal():
        if record[0] <= watermark:
            continue  # checkpointed after this record was journalled
        if max_seq is not None and record[0] > max_seq:
            continue  # never acked to the parent: the retry will re-send it
        locator.locate(record[2]).log.append(record)
        if record[0] > table._seq:
            table._seq = record[0]

    # The engine's own crash recovery replays every log over the runs,
    # reconstructing the exact pre-kill memtables — uncharged, exactly as
    # the recovery property suite guarantees.
    table.recover()
    table.attach_store(store)
    return table


# --------------------------------------------------------------------------
# Soft-state blobs (shard accounting checkpoints)
# --------------------------------------------------------------------------

#: Bumped whenever the body's shape changes: a blob never outlives one
#: run, so a mismatch is damage, not something to migrate.  4: the body is
#: one tagged value (:mod:`repro.codec.values`), like every other file here.
STATE_FORMAT = 4

#: The body's keys, in order: one section per owner of soft state, each that
#: owner's ``export_state()`` (``ShardService.accounting_state`` walks them).
STATE_SECTIONS = ("dedup", "emulator", "flag", "cluster", "master")

_STATE_HEADER = struct.Struct("<III")  # format, body length, crc32(body)


def write_state_blob(path: str, payload: dict) -> int:
    """Atomically persist an accounting snapshot (tmp + os.replace).

    The ``dedup`` section — the shard's exactly-once slot — arrives as
    zero or one encoded entry, so encoding it is a copy.  No fsync: the blob only needs to survive
    *process* death, not power loss — the durable LSM state underneath
    carries its own fsync protocol.  Returns the byte count written (for
    accounting)."""
    body = pack_value(payload)
    blob = _STATE_HEADER.pack(STATE_FORMAT, len(body), zlib.crc32(body)) + body
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(blob)
    os.replace(tmp_path, path)
    return len(blob)


def read_state_blob(path: str) -> Optional[dict]:
    """Load a snapshot written by :func:`write_state_blob`; ``None`` when
    the file is absent.  A file that is present but torn, corrupt, of
    another format or not the section dict raises
    :class:`UnrecoverableShardError`: its ledgers and exactly-once slot are
    gone, and restoring without them would silently zero the accounting and
    re-apply an unacked batch."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    payload = _decode_state_blob(data)
    if payload is None:
        raise UnrecoverableShardError(
            f"accounting checkpoint {path!r} is torn, corrupt or not format "
            f"{STATE_FORMAT}: the shard cannot be restored losslessly"
        )
    return payload


def _decode_state_blob(data: bytes) -> Optional[dict]:
    if len(data) < _STATE_HEADER.size:
        return None
    version, length, crc = _STATE_HEADER.unpack_from(data)
    body = data[_STATE_HEADER.size:]
    if version != STATE_FORMAT or len(body) != length or zlib.crc32(body) != crc:
        return None
    try:
        payload = unpack_value(body)
    except CodecError:
        return None
    fits = type(payload) is dict and tuple(payload) == STATE_SECTIONS
    return payload if fits else None
