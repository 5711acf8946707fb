"""One shard's durable state: a snapshot plus the requests since.

Layout of a shard's directory::

    <root>/
      SNAPSHOT.bin    one checksummed tagged value: every table's manifest
                      (tablet boundaries, run references, each tablet's
                      memtable and commit-log counts, seq, families,
                      options) and the shard's accounting
                      sections (:data:`STATE_SECTIONS`); replaced whole
                      (tmp + fsync + ``os.replace``) at every snapshot
      requests.log    the generation of the snapshot it follows, then one
                      frame per mutating request applied since: request
                      id, opcode, length, crc, and the wire bytes the
                      request arrived in
      runs/<id>.run   one immutable block file per SSTable run, written
                      exactly once when a snapshot first names it; a file
                      no snapshot names is never read (loading deletes it)

The in-memory LSM engine never reads these files while alive: flush,
compaction, split, merge and family addition touch no file, and no
simulated ledger, split decision or query result depends on the store.
Reads happen once — in :meth:`ShardStore.load`, after a process death.

**Durable at the acknowledgement**: the shard appends a request's frame
and fsyncs it before the request applies (:meth:`ShardStore.append`) —
one fsync per mutating request.  A kill at any later point leaves a log
that re-runs the request; a kill before the fsync leaves at most a torn
final frame, which the load drops (the resend applies it afresh).

A snapshot (:meth:`ShardStore.snapshot`, at a request boundary) is four
steps, each safe to die after:

1. write each run file no snapshot named yet (fsync; in place: a run file
   is trusted only once a snapshot names it, so one orphaned by a kill is
   deleted by the next load, not adopted under a reused run id);
2. write the snapshot, one generation on, via tmp + fsync + ``os.replace``;
3. reset the log: truncate it, then write the new generation as its
   header.  A log still headed by the old generation holds only requests
   the snapshot already reflects, and a load ignores it;
4. delete the run files the snapshot no longer names (best effort: the
   next snapshot retries a failed delete).

:meth:`ShardStore.load` returns the snapshot and the frames logged after
it; ``build_indexer`` installs the one and re-runs the other.  A damaged
snapshot or run file, a missing run file, or a log whose damage is not
confined to its final frame raises :class:`~repro.errors.UnrecoverableShardError`.

Not promised: neither a new file nor an ``os.replace`` is followed by a
directory fsync, and the log's header is written without one — all of it
survives process death, not power loss.
"""

from __future__ import annotations

import dataclasses
import os
import struct
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CodecError, UnrecoverableShardError

from repro.bigtable.lsm import SSTable
from repro.bigtable.scan import BlockCacheOptions
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import Tablet, TabletOptions
from repro.codec.blocks import (
    decode_count_block,
    decode_run_block,
    decode_snapshot,
    encode_count_block,
    encode_request_frame,
    encode_row,
    encode_run_block,
    encode_snapshot,
    read_request_frames,
)

#: Bumped when what the snapshot *means* changes; a snapshot of another
#: format is damage, not something to migrate (a snapshot never outlives
#: the run that wrote it).
SNAPSHOT_FORMAT = 2

#: The snapshot's accounting sections, in order: one per owner of soft
#: state, each that owner's ``export_state()`` (``ShardService`` walks them).
STATE_SECTIONS = ("dedup", "emulator", "flag", "cluster", "master")

#: The store's wall-clock timers (``ShardStore.seconds``), in order:
#: ``snapshot`` and its parts.
STORE_STEPS = ("snapshot", "run_encode", "run_write", "snapshot_write", "run_gc")

_SNAPSHOT_NAME = "SNAPSHOT.bin"
_LOG_NAME = "requests.log"
_RUNS_DIR = "runs"
_LOG_HEADER = struct.Struct("<Q")  # the generation of the snapshot it follows

#: One frame as :meth:`ShardStore.load` hands it back.
Frame = Tuple[int, int, bytes]


def _run_filename(run_id: str) -> str:
    return run_id.replace("/", "__") + ".run"


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Snapshot:
    """A loaded snapshot: its accounting sections, the frames logged after
    it, and its tables, each restored once by :meth:`restore_table`."""

    def __init__(self, store: "ShardStore", value: dict, frames: List[Frame]) -> None:
        self.state = value["state"]
        self.frames = frames
        self._store = store
        self._tables: Dict[str, dict] = value["tables"]
        #: run_id -> its decoded file: slices of one run share its arrays
        #: (coalesce checks use identity).
        self._runs: Dict[str, Tuple[List[str], List[object], int]] = {}

    def restore_table(
        self,
        name: str,
        families: Sequence[ColumnFamily],
        counter,
        cache_options: Optional[BlockCacheOptions] = None,
    ) -> Optional[Table]:
        """The table as the snapshot holds it, or ``None`` when it holds no
        table of that name.  Tablet options come from the manifest and
        families are the union of the caller's and the manifest's
        (archiving adds aged families at runtime).  Each tablet takes its
        runs through ``Tablet.install_runs``, its memtable and commit-log
        counts as recorded, and recomputes its tallies from them."""
        manifest = self._tables.pop(name, None)
        if manifest is None:
            return None
        table = Table(
            name,
            families,
            counter=counter,
            options=TabletOptions(**manifest["options"]),
            cache_options=cache_options,
        )
        for family_fields in manifest["families"]:
            if family_fields["name"] not in table._families:
                table.add_family(ColumnFamily(**family_fields))
        locator = table._tablets
        tablets: List[Tablet] = []
        for entry in manifest["tablets"]:
            tablet = Tablet(entry["id"], entry["start"], counter.model)
            tablet._next_run = entry["next_run"]
            runs = []
            for run_id, lo, hi, max_seqno in entry["runs"]:
                if run_id not in self._runs:
                    self._runs[run_id] = self._store.read_run(run_id)
                keys, values, _ = self._runs[run_id]
                runs.append(SSTable(run_id, keys, values, max_seqno, lo, hi))
            tablet.install_runs(runs)
            for key, value in zip(*entry["memtable"]):
                tablet.rows.set(key, value)
            tablet.log_counts = entry["counts"]
            tablet.log_records = sum(tablet.log_counts.values())
            tablet.recompute_counts()
            tablets.append(tablet)
        locator._tablets = tablets
        locator._starts = [tablet.start_key for tablet in tablets]
        locator._next_id = manifest["next_tablet_id"]
        locator.splits = manifest["splits"]
        locator.merges = manifest["merges"]
        table._seq = manifest["seq"]
        if not self._tables:
            self._runs.clear()  # every table restored: their tablets hold the runs
        return table


class ShardStore:
    """A shard directory's snapshot, request log and run files (see the
    module doc).  Holds no open file between calls."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._runs_dir = os.path.join(root, _RUNS_DIR)
        os.makedirs(self._runs_dir, exist_ok=True)
        self._snapshot_path = os.path.join(root, _SNAPSHOT_NAME)
        self._log_path = os.path.join(root, _LOG_NAME)
        #: The newest snapshot's generation (0: none yet).
        self._generation = 0
        #: False while the log may not carry the newest generation's header
        #: (a snapshot whose log reset failed): the next append resets it.
        self._log_ready = False
        #: run_id -> filename for every run file the snapshot names.
        self._persisted: Dict[str, str] = {}
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
        #: Wall seconds spent in each persistence step (observability only).
        self.seconds = dict.fromkeys(STORE_STEPS, 0.0)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self) -> Optional[Snapshot]:
        """The snapshot and the frames logged after it, or ``None`` when
        the directory holds no snapshot — a first build, or one killed
        before its snapshot: every file it left is deleted.  Run files the
        snapshot does not name, a leftover snapshot ``.tmp`` and a torn
        final frame are deleted too.  Each tablet's memtable and count
        blocks are decoded here, so their damage is the snapshot's."""
        value = None
        named: Dict[str, str] = {}
        try:
            with open(self._snapshot_path, "rb") as handle:
                value = decode_snapshot(handle.read())
            if value["format"] != SNAPSHOT_FORMAT:
                raise ValueError(f"snapshot format {value['format']!r}")
            if "state" not in value:
                raise ValueError("no accounting sections")
            for manifest in value["tables"].values():
                for entry in manifest["tablets"]:
                    for run in entry["runs"]:
                        named[_run_filename(run[0])] = run[0]
                    entry["memtable"] = decode_run_block(entry["memtable"])[:2]
                    entry["counts"] = decode_count_block(entry["counts"])
            generation = int(value["generation"])
            if not 0 <= generation < 1 << (8 * _LOG_HEADER.size):
                raise ValueError(f"snapshot generation {generation}")
        except FileNotFoundError:
            pass
        except (CodecError, LookupError, TypeError, ValueError, AttributeError) as exc:
            raise UnrecoverableShardError(
                f"snapshot {self._snapshot_path!r} is damaged: {exc!r}"
            ) from exc
        for filename in os.listdir(self._runs_dir):
            if filename in named:
                self._persisted[named[filename]] = filename
            else:
                os.remove(os.path.join(self._runs_dir, filename))
        if os.path.exists(self._snapshot_path + ".tmp"):
            os.remove(self._snapshot_path + ".tmp")
        if value is None:
            if os.path.exists(self._log_path):
                os.remove(self._log_path)
            return None
        self._generation = generation
        return Snapshot(self, value, self._read_log())

    def _read_log(self) -> List[Frame]:
        """The frames of a log that follows the newest snapshot, its torn
        final frame cut away; a log of an older generation (or none) is
        reset."""
        try:
            with open(self._log_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        header = _LOG_HEADER.size
        if len(data) < header or _LOG_HEADER.unpack_from(data)[0] != self._generation:
            self._reset_log()
            return []
        try:
            frames, end = read_request_frames(memoryview(data)[header:])
        except ValueError as exc:
            raise UnrecoverableShardError(
                f"request log {self._log_path!r} is damaged before its "
                f"final frame: {exc}"
            ) from exc
        if header + end < len(data):
            fd = os.open(self._log_path, os.O_WRONLY)
            try:
                os.ftruncate(fd, header + end)
            finally:
                os.close(fd)
        self._log_ready = True
        return frames

    def read_run(self, run_id: str) -> Tuple[List[str], List[object], int]:
        """One run file the snapshot names; a missing or damaged one raises
        :class:`~repro.errors.UnrecoverableShardError` naming the file."""
        path = os.path.join(self._runs_dir, _run_filename(run_id))
        try:
            with open(path, "rb") as handle:
                return decode_run_block(handle.read())
        except (OSError, CodecError, LookupError, ValueError, struct.error) as exc:
            raise UnrecoverableShardError(f"run file {path!r}: {exc!r}") from exc

    # ------------------------------------------------------------------
    # The request log
    # ------------------------------------------------------------------
    def append(self, request_id: int, opcode: int, body: bytes) -> None:
        """Log one request, durably: one ``write`` and one ``fsync``."""
        if not self._log_ready:
            self._reset_log()
        fd = os.open(self._log_path, os.O_WRONLY | os.O_APPEND)
        try:
            _write_all(fd, encode_request_frame(request_id, opcode, body))
            os.fsync(fd)
        finally:
            os.close(fd)

    def _reset_log(self) -> None:
        """An empty log headed by the newest snapshot's generation."""
        self._log_ready = False
        fd = os.open(self._log_path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.ftruncate(fd, 0)
            _write_all(fd, _LOG_HEADER.pack(self._generation))
        finally:
            os.close(fd)
        self._log_ready = True

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, tables: Mapping[str, Table], state: Optional[dict]) -> None:
        """Persist every table and the accounting sections, then reset the
        log (its requests are all in the snapshot now) and collect the run
        files no table holds anymore — the module doc's four steps."""
        seconds = self.seconds
        started = perf_counter()
        manifests = {name: self._manifest(table) for name, table in tables.items()}
        runs_done = perf_counter()
        generation = self._generation + 1
        blob = encode_snapshot(
            {
                "format": SNAPSHOT_FORMAT,
                "generation": generation,
                "tables": manifests,
                "state": state,
            }
        )
        tmp_path = self._snapshot_path + ".tmp"
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            _write_all(fd, blob)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, self._snapshot_path)
        self._generation = generation
        self._reset_log()
        written = perf_counter()
        self._gc_runs(
            {
                run[0]
                for manifest in manifests.values()
                for entry in manifest["tablets"]
                for run in entry["runs"]
            }
        )
        finished = perf_counter()
        seconds["snapshot_write"] += written - runs_done
        seconds["run_gc"] += finished - written
        seconds["snapshot"] += finished - started

    def _manifest(self, table: Table) -> dict:
        """One table's durable skeleton, its run files written first.  A
        memtable row is mutated in place, so it is encoded afresh, never
        through the run rows' memo (keyed by ``id``, it would go stale)."""
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
                    "memtable": encode_run_block(*tablet.rows.scan_columns(), 0),
                    "counts": encode_count_block(tablet.log_counts),
                }
            )
        return {
            "seq": table._seq,
            "next_tablet_id": locator._next_id,
            "splits": locator.splits,
            "merges": locator.merges,
            "options": dataclasses.asdict(table.options),
            "families": [
                dataclasses.asdict(family) for family in table._families.values()
            ],
            "tablets": tablets,
        }

    def _ensure_run_file(self, run: SSTable) -> None:
        """Write a run's file the first time a snapshot will name it.  No
        tmp + rename: until a snapshot names it the file is not trusted (a
        load deletes it), and it is fsynced before the snapshot is."""
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
            fd = os.open(
                os.path.join(self._runs_dir, filename),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644,
            )
            try:
                _write_all(fd, blob)
                os.fsync(fd)
            finally:
                os.close(fd)
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
        """Delete run files the snapshot no longer names (compaction and
        flush retire runs), and forget the rows no remaining run holds."""
        for run_id in list(self._persisted):
            if run_id not in live_run_ids:
                try:
                    os.remove(os.path.join(self._runs_dir, self._persisted[run_id]))
                except OSError:
                    continue  # best-effort: the next snapshot retries it
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
