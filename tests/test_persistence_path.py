"""The worker's persistence path: encode once, write once.

Three layers put bytes on disk for a disk-backed shard, and each is pinned
here at its own boundary:

* **values** — run blocks, journal records and dedup entries carry typed
  tags for the domain records; a value without a tag is a ``CodecError``
  where it is encoded, and a file holding the retired tag 0 is the same
  typed error on restore;
* **journal** — frames are buffered and reach ``journal.bin`` *at* their
  fsync point: one ``write`` + one ``fsync`` per simulated ``LOG_APPEND``;
* **accounting blob** — ``SHARD_STATE.bin`` is versioned, splices the
  dedup entries each request encoded once, and an unreadable blob is a
  typed error rather than a silently lossy respawn.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import struct
import tempfile
import types
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.bigtable.cost import OpCounter, OpKind
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions
from repro.codec import blocks, values
from repro.codec.columns import write_uvarint
from repro.disk.store import (
    MANIFEST_FORMAT,
    STATE_FORMAT,
    STATE_SECTIONS,
    DiskTableStore,
    StateBlob,
    restore_table,
)
from repro.errors import CodecError, StaleRequestError, UnrecoverableShardError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord, UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.scaleout import ScaleOutCluster
from repro.server.worker import (
    DISPATCH_PHASES,
    STATE_BLOB_NAME,
    STATE_BLOB_STEPS,
    WORKER_PHASES,
    ShardRecipe,
    dispatch_request,
)
from repro.tables.affiliation_table import LFRecord, Role
from repro.workload.queries import NNQuery

from shard_harness import apply_op
from test_lsm_recovery_property import random_ops

FAMILIES = [ColumnFamily("mem", max_versions=3), ColumnFamily("disk", max_versions=5)]
NUM_OBJECTS = 120


def _messages(seed: int, count: int = 40, timestamp: float = 1.0):
    rng = random.Random(seed)
    return [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(NUM_OBJECTS)),
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            velocity=Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
            timestamp=timestamp,
        )
        for _ in range(count)
    ]


def _queries(seed: int, count: int = 6):
    rng = random.Random(seed)
    return [
        NNQuery(Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)), 5)
        for _ in range(count)
    ]


# --------------------------------------------------------------------------
# Values: typed on the way out, tag 0 refused on the way in
# --------------------------------------------------------------------------
def _encode_value_with_tag_zero(out: bytearray, obj: object) -> None:
    """The value encoder before tags 13-15: domain records are pickled
    behind tag 0 (``pickle`` here is only the fixture's writer)."""
    if type(obj) in (LocationRecord, LFRecord):
        payload = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        out.append(0)
        write_uvarint(out, len(payload))
        out += payload
    else:
        values.encode_value(out, obj)


def _record_program(table: Table) -> None:
    for index in range(24):
        key = f"obj{index:04d}"
        stamp = float(index)
        table.write(
            key, "mem", "loc",
            LocationRecord(Point(index * 1.5, -0.0), Vector(0.25, -1.0), stamp),
            stamp,
        )
        record = (
            LFRecord(Role.LEADER, stamp)
            if index % 3
            else LFRecord(Role.FOLLOWER, stamp, "obj0001", Vector(1.0, 2.0))
        )
        table.write(key, "mem", "lf", record, stamp)


def _file_bytes(root: str) -> bytes:
    found = b""
    for folder, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            with open(os.path.join(folder, name), "rb") as handle:
                found += handle.read()
    return found


class TestTagZeroIsRefusedOnRestore:
    """Each artifact on its own (the crc is valid — the bytes are exactly
    what an old writer produced), then a whole table directory."""

    RECORD = LocationRecord(Point(1.5, 2.5), Vector(0.25, -1.0), 3.0)

    def test_journal_record(self, monkeypatch):
        monkeypatch.setattr(blocks, "encode_value", _encode_value_with_tag_zero)
        frame = blocks.encode_journal_record((1, "w", "k", "mem", "q", 3.0, self.RECORD))
        with pytest.raises(CodecError, match="tag 0"):
            list(blocks.iter_journal_records(frame))

    def test_run_block(self, monkeypatch):
        monkeypatch.setattr(blocks, "encode_value", _encode_value_with_tag_zero)
        row = blocks._Row({"mem": {"q": (3.0, self.RECORD)}})
        with pytest.raises(CodecError, match="tag 0"):
            blocks.decode_run_block(blocks.encode_run_block(["k"], [row], 1))

    def test_manifest(self, monkeypatch):
        monkeypatch.setattr(blocks, "encode_value", _encode_value_with_tag_zero)
        with pytest.raises(CodecError, match="tag 0"):
            blocks.decode_manifest(blocks.encode_manifest(self.RECORD))

    def test_table_directory(self, tmp_path, monkeypatch):
        options = TabletOptions(
            split_threshold=16, merge_threshold=4, memtable_flush_rows=16
        )
        old_root, new_root = str(tmp_path / "old"), str(tmp_path / "new")
        with monkeypatch.context() as patch:
            patch.setattr(blocks, "encode_value", _encode_value_with_tag_zero)
            old = Table("t", FAMILIES, options=options, store=DiskTableStore(old_root))
            _record_program(old)
            old._store.close()
        new = Table("t", FAMILIES, options=options, store=DiskTableStore(new_root))
        _record_program(new)
        new._store.close()
        # The fixture really is the old format (pickle names the class it
        # rebuilds), runs and journal tail alike; today's files never do.
        assert b"LocationRecord" in _file_bytes(os.path.join(old_root, "runs"))
        assert b"LFRecord" in _file_bytes(old_root)
        assert b"Record" not in _file_bytes(new_root)

        with pytest.raises(CodecError):
            restore_table(DiskTableStore(old_root), "t", FAMILIES, OpCounter())
        restored = restore_table(DiskTableStore(new_root), "t", FAMILIES, OpCounter())
        assert restored.scan() == new.scan()
        assert repr(restored.scan()) == repr(new.scan())
        restored._store.close()


def test_an_unencodable_value_is_a_codec_error_at_the_sender(tmp_path):
    with pytest.raises(CodecError, match="no value tag"):
        values.encode_value(bytearray(), object())
    # ... and a table backed by real files refuses it at the write, before
    # a run block or journal record could carry it.
    store = DiskTableStore(str(tmp_path))
    table = Table("t", FAMILIES, store=store)
    with pytest.raises(CodecError, match="no value tag"):
        table.write("k", "mem", "q", {1, 2}, 1.0)
    store.close()


# --------------------------------------------------------------------------
# Journal: buffered until the fsync point
# --------------------------------------------------------------------------
class TestBufferedJournal:
    RECORD = (1, "w", "k1", "mem", "q", 1.0, "value")

    @staticmethod
    def _journal_size(root) -> int:
        return os.path.getsize(os.path.join(str(root), "journal.bin"))

    def test_frames_reach_the_file_at_the_sync_point(self, tmp_path):
        store = DiskTableStore(str(tmp_path))
        store.journal_append(self.RECORD)
        store.journal_append((2,) + self.RECORD[1:])
        assert self._journal_size(tmp_path) == 0
        assert store.journal_bytes == 0
        store.journal_sync()
        assert self._journal_size(tmp_path) == store.journal_bytes > 0
        assert store.journal_syncs == 1
        assert [record[0] for record in store.read_journal()] == [1, 2]
        store.close()

    def test_read_journal_sees_unsynced_frames(self, tmp_path):
        store = DiskTableStore(str(tmp_path))
        store.journal_append(self.RECORD)
        assert store.read_journal() == [self.RECORD]
        assert store.journal_syncs == 0
        store.close()

    def test_close_drains_the_buffer(self, tmp_path):
        store = DiskTableStore(str(tmp_path))
        store.journal_append(self.RECORD)
        store.close()
        reopened = DiskTableStore(str(tmp_path))
        assert reopened.read_journal() == [self.RECORD]
        reopened.close()

    def test_checkpoint_drops_buffered_frames(self, tmp_path):
        store = DiskTableStore(str(tmp_path))
        table = Table("t", FAMILIES, store=store)
        with table.group_commit():
            table.write("k1", "mem", "q", "a", 1.0)
            table.write("k2", "mem", "q", "b", 2.0)
            # Mid-group: both records are buffered, neither is synced.
            store.checkpoint(table)
        # The manifest owns them now; the group's sync wrote nothing more.
        assert self._journal_size(tmp_path) == 0
        assert store.read_journal() == []
        store.close()
        restored = restore_table(
            DiskTableStore(str(tmp_path)), "t", FAMILIES, OpCounter()
        )
        assert restored.scan() == table.scan()
        restored._store.close()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("split_threshold", [8, 10_000])
    def test_one_write_and_one_fsync_per_sync_point(
        self, tmp_path, seed, split_threshold
    ):
        rng = random.Random(seed)
        options = TabletOptions(
            split_threshold=split_threshold,
            merge_threshold=4,
            group_commit_size=rng.choice([4, 256]),
            memtable_flush_rows=rng.choice([None, 8]),
            compaction_max_runs=3,
        )
        store = DiskTableStore(str(tmp_path))
        table = Table("t", FAMILIES, options=options, store=store)
        writes = []
        journal = store._journal
        store._journal = types.SimpleNamespace(
            write=lambda data: writes.append(journal.write(data)),
            fileno=journal.fileno,
            close=journal.close,
            closed=False,
        )
        for op in random_ops(rng, 120):
            apply_op(table, op)
        appends = table.counter.durability_count(OpKind.LOG_APPEND)
        # The simulation charges one LOG_APPEND per *tablet* a commit
        # touched and the store syncs once per commit, so the counts are
        # equal exactly when the table never splits.
        if split_threshold == 10_000:
            assert table.tablet_count() == 1
            assert store.journal_syncs == appends > 0
        else:
            assert table.tablet_count() > 1
            assert 0 < store.journal_syncs <= appends
        # Never more than one write per sync (a checkpoint may have
        # emptied the buffer first), and every byte written is counted.
        assert 0 < len(writes) <= store.journal_syncs
        assert sum(writes) == store.journal_bytes
        store.close()
        assert len(writes) <= store.journal_syncs  # nothing was left unsynced
        restored = restore_table(
            DiskTableStore(str(tmp_path)), "t", FAMILIES, OpCounter()
        )
        assert restored.scan() == table.scan()
        restored._store.close()


# --------------------------------------------------------------------------
# Run files: trusted only when named, each frozen row encoded once
# --------------------------------------------------------------------------
class TestRunFiles:
    @staticmethod
    def _restore(root: str) -> Table:
        return restore_table(DiskTableStore(root), "t", FAMILIES, OpCounter())

    @pytest.mark.parametrize("rows", [0, 1], ids=["shorter", "same-length"])
    def test_a_run_file_no_manifest_names_is_deleted_not_adopted(
        self, tmp_path, rows
    ):
        root = str(tmp_path)
        table = Table("t", FAMILIES, store=DiskTableStore(root))
        table.write("k1", "mem", "q", "a", 1.0)
        table.flush_memtables()  # run-0000, named by the manifest
        table._store.close()
        # The next flush's file, written by a checkpoint killed before its
        # manifest rename — complete, checksummed, and stale.
        runs = os.path.join(root, "runs")
        orphan = os.path.join(runs, "t__tablet-0000__run-0001.run")
        stale = blocks._Row({"mem": {"q": (9.0, "stale")}})
        with open(orphan, "wb") as handle:
            handle.write(blocks.encode_run_block(["k0"] * rows, [stale] * rows, 7))
        for leftover in (orphan + ".tmp", os.path.join(root, "MANIFEST.bin.tmp")):
            with open(leftover, "wb") as handle:
                handle.write(b"half a file")
        restored = self._restore(root)
        assert sorted(os.listdir(runs)) == ["t__tablet-0000__run-0000.run"]
        assert not os.path.exists(os.path.join(root, "MANIFEST.bin.tmp"))
        restored.write("k2", "mem", "q", "b", 2.0)
        restored.flush_memtables()  # run-0001 again: written afresh
        restored._store.close()
        again = self._restore(root)
        assert [key for key, _ in again.scan()] == ["k1", "k2"]
        assert again.scan() == restored.scan()
        again._store.close()

    def test_the_unacked_journal_tail_does_not_outlive_its_restore(self, tmp_path):
        root = str(tmp_path)
        table = Table("t", FAMILIES, store=DiskTableStore(root))
        for index in range(5):  # sequence numbers 1-5, each synced
            table.write(f"k{index}", "mem", "q", f"old{index}", float(index))
        table._store.close()
        # Only 1-3 were acknowledged: the restore drops 4 and 5 ...
        first = restore_table(DiskTableStore(root), "t", FAMILIES, OpCounter(), max_seq=3)
        assert [key for key, _ in first.scan()] == ["k0", "k1", "k2"]
        # ... and the retry journals its own 4 and 5.
        first.write("k3", "mem", "q", "new3", 9.0)
        first.write("k9", "mem", "q", "new9", 9.0)
        first._store.close()
        again = restore_table(DiskTableStore(root), "t", FAMILIES, OpCounter(), max_seq=5)
        assert again.scan() == first.scan()
        again._store.close()

    @staticmethod
    def _check_files(table: Table, store: DiskTableStore) -> None:
        """Every live run's file is a fresh encoding of the run; the memo
        holds exactly the rows of the runs this store wrote, each counted
        once per such run beyond the first."""
        store.checkpoint(table)
        holders: dict = {}
        for tablet in table.tablets():
            for run in tablet.runs:
                path = os.path.join(store.root, "runs", run.run_id.replace("/", "__") + ".run")
                with open(path, "rb") as handle:
                    assert handle.read() == blocks.encode_run_block(
                        run._keys, run._values, run.max_seqno
                    )
        live = {run.run_id for tablet in table.tablets() for run in tablet.runs}
        assert set(store._run_rows) <= live
        for values_ in store._run_rows.values():
            for row in values_:
                if type(row) is blocks._Row:
                    holders[id(row)] = holders.get(id(row), 0) + 1
        assert set(store._row_memo) == set(holders)
        assert store._row_shares == {
            key: count - 1 for key, count in holders.items() if count > 1
        }

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_memoised_run_files_equal_a_fresh_encoding(self, seed):
        rng = random.Random(seed)
        options = TabletOptions(
            split_threshold=rng.choice([8, 16, 64]),
            merge_threshold=4,
            group_commit_size=rng.choice([4, 16, 256]),
            memtable_flush_rows=rng.choice([4, 16]),
            compaction_max_runs=rng.choice([2, 3]),
        )
        with tempfile.TemporaryDirectory() as root:
            store = DiskTableStore(root)
            table = Table("t", FAMILIES, options=options, store=store)
            for step, op in enumerate(random_ops(rng, 160)):
                apply_op(table, op)
                if step % 20 == 19:
                    self._check_files(table, store)
            table.compact_runs(major=True)
            self._check_files(table, store)
            memoised = {
                id(row)
                for tablet in table.tablets()
                for run in tablet.runs
                for row in run._values
            }
            assert set(store._row_memo) <= memoised
            store.close()


# --------------------------------------------------------------------------
# Accounting blob: two slots, versioned, typed failure
# --------------------------------------------------------------------------
def read_state_blob(path: str):
    """What a respawned worker restores from ``path``."""
    return StateBlob(path).read()


def write_state_blob(path: str, payload) -> int:
    """``payload`` as the whole file, the way a fresh process writes it."""
    return StateBlob(path).write(values.pack_value(payload))


_FILE_HEADER = 8  # format, slot capacity
_SLOT_HEADER = 16  # crc32, sequence number, body length


def _slot_at(data: bytes, index: int) -> int:
    """Offset of slot ``index`` in a state file."""
    (capacity,) = struct.unpack_from("<I", data, 4)
    return _FILE_HEADER + index * capacity


def _slot_seqs(path: str) -> list:
    """The sequence number each slot's header names (valid or not)."""
    with open(path, "rb") as handle:
        data = handle.read()
    return [struct.unpack_from("<Q", data, _slot_at(data, index) + 4)[0] for index in (0, 1)]


def _tear(path: str, index: int) -> None:
    """A write to slot ``index`` killed halfway: the second half of its
    header and body is zeros."""
    with open(path, "rb") as handle:
        data = handle.read()
    start = _slot_at(data, index)
    (length,) = struct.unpack_from("<I", data, start + 12)
    half = (_SLOT_HEADER + length) // 2
    with open(path, "r+b") as handle:
        handle.seek(start + half)
        handle.write(bytes(_SLOT_HEADER + length - half))


def _payload(request_id: int) -> dict:
    return dict.fromkeys(STATE_SECTIONS) | {"dedup": (bytes([request_id]),)}


class TestStateBlob:
    PAYLOAD = dict.fromkeys(STATE_SECTIONS) | {"dedup": (b"\x08\x00", b"")}

    def test_round_trip_and_absent(self, tmp_path):
        path = str(tmp_path / STATE_BLOB_NAME)
        assert read_state_blob(path) is None
        written = write_state_blob(path, self.PAYLOAD)
        assert written == _SLOT_HEADER + len(values.pack_value(self.PAYLOAD))
        with open(path, "rb") as handle:
            data = handle.read()
        assert len(data) == _slot_at(data, 2) and written <= _slot_at(data, 1)
        assert read_state_blob(path) == self.PAYLOAD
        assert not os.path.exists(path + ".tmp")

    def _damaged(self, tmp_path, damage) -> str:
        path = str(tmp_path / STATE_BLOB_NAME)
        write_state_blob(path, self.PAYLOAD)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        with open(path, "wb") as handle:
            handle.write(damage(data))
        return path

    @staticmethod
    def _flip(data: bytearray, offset: int) -> bytearray:
        """Flip one bit ``offset`` bytes into the one written slot."""
        data[_slot_at(data, 1) + offset] ^= 0x10
        return data

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[:-3],  # torn tail
            lambda data: data[:5],  # torn header
            lambda data: b"",  # created, never written
            lambda data: data[:4] + bytes([data[4] ^ 0x10]) + data[5:],  # capacity
            lambda data: TestStateBlob._flip(data, 0),  # the crc
            lambda data: TestStateBlob._flip(data, 4),  # the sequence number
            lambda data: TestStateBlob._flip(data, 12),  # the body length
            lambda data: TestStateBlob._flip(data, 20),  # the body
            lambda data: data + b"x",  # trailing garbage
        ],
    )
    def test_damaged_blob_is_a_typed_error(self, tmp_path, damage):
        path = self._damaged(tmp_path, damage)
        with pytest.raises(UnrecoverableShardError):
            read_state_blob(path)

    @pytest.mark.parametrize(
        "body",
        [
            ["not", "a", "section", "dict"],
            PAYLOAD | {"extra": None},
            {name: None for name in STATE_SECTIONS if name != "flag"},
            dict.fromkeys(reversed(STATE_SECTIONS)),
        ],
    )
    def test_a_crc_valid_slot_that_is_not_the_section_dict_is_a_typed_error(
        self, tmp_path, body
    ):
        path = str(tmp_path / STATE_BLOB_NAME)
        write_state_blob(path, body)
        with pytest.raises(UnrecoverableShardError):
            read_state_blob(path)

    def test_each_write_overwrites_the_older_slot_in_place(self, tmp_path):
        path = str(tmp_path / STATE_BLOB_NAME)
        blob = StateBlob(path)
        blob.write(values.pack_value(_payload(1)))
        inode, size = os.stat(path).st_ino, os.path.getsize(path)
        for request_id in (2, 3, 4):
            blob.write(values.pack_value(_payload(request_id)))
            assert read_state_blob(path) == _payload(request_id)
        assert _slot_seqs(path) == [4, 3]
        assert (os.stat(path).st_ino, os.path.getsize(path)) == (inode, size)

    def test_a_torn_newest_slot_restores_the_older_slot(self, tmp_path):
        path = str(tmp_path / STATE_BLOB_NAME)
        blob = StateBlob(path)
        for request_id in (1, 2, 3):
            blob.write(values.pack_value(_payload(request_id)))
        _tear(path, 1)  # the write of request 3, killed halfway
        assert read_state_blob(path) == _payload(2)

    def test_both_slots_torn_is_a_typed_error(self, tmp_path):
        path = str(tmp_path / STATE_BLOB_NAME)
        blob = StateBlob(path)
        for request_id in (1, 2):
            blob.write(values.pack_value(_payload(request_id)))
        _tear(path, 0)
        _tear(path, 1)
        with pytest.raises(UnrecoverableShardError, match="no valid"):
            read_state_blob(path)

    @pytest.mark.parametrize("torn", [False, True])
    def test_after_a_restore_the_next_write_takes_the_other_slot(
        self, tmp_path, torn
    ):
        path = str(tmp_path / STATE_BLOB_NAME)
        first = StateBlob(path)
        for request_id in (1, 2):
            first.write(values.pack_value(_payload(request_id)))
        if torn:
            _tear(path, 0)  # request 2's write never finished
        restored = StateBlob(path)
        newest = restored.read()
        assert newest == _payload(1 if torn else 2)
        with open(path, "rb") as handle:
            before = handle.read()
        newest_slot = 1 if torn else 0
        keep = slice(_slot_at(before, newest_slot), _slot_at(before, newest_slot + 1))
        # The next request's write is killed halfway: the newest valid blob
        # is in the slot it did not touch.
        restored.write(values.pack_value(_payload(9)))
        _tear(path, 1 - newest_slot)
        with open(path, "rb") as handle:
            assert handle.read()[keep] == before[keep]
        assert read_state_blob(path) == newest

    def test_a_blob_that_outgrows_its_slot_regrows_the_file(self, tmp_path):
        path = str(tmp_path / STATE_BLOB_NAME)
        blob = StateBlob(path)
        blob.write(values.pack_value(_payload(1)))
        size = os.path.getsize(path)
        big = dict(_payload(2), emulator=bytes(3 * size))
        blob.write(values.pack_value(big))
        assert os.path.getsize(path) > 6 * size
        assert read_state_blob(path) == big
        assert not os.path.exists(path + ".tmp")
        grown = os.stat(path).st_ino
        blob.write(values.pack_value(_payload(3)))  # fits again: in place
        assert os.stat(path).st_ino == grown
        assert read_state_blob(path) == _payload(3)
        assert _slot_seqs(path) == [2, 3]

    @pytest.mark.parametrize("shift", [1, -1])
    def test_block_lengths_that_miss_the_blocks_column_refuse_to_install(
        self, tmp_path, shift
    ):
        # crc-valid and decodable: only the cache section's own columns
        # disagree, so the damage shows when the walk installs it.
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        query_body = rpc.encode_query_batch(_queries(3))
        dispatch_request(first, 0, rpc.OP_QUERY_BATCH, query_body, 20)
        state = first[0].accounting_state()
        _close_stores(first)
        cache = state["emulator"]["tables"]["spatial_index"]["cache"]
        lengths = array("I", cache["block_len"])
        assert len(lengths) > 1
        lengths[0] += shift
        cache["block_len"] = lengths.tobytes()
        write_state_blob(os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME), state)
        with pytest.raises(UnrecoverableShardError, match="block lengths"):
            _build(recipe)

    def test_other_format_version_is_a_typed_error(self, tmp_path, monkeypatch):
        path = str(tmp_path / STATE_BLOB_NAME)
        monkeypatch.setattr("repro.disk.store.STATE_FORMAT", STATE_FORMAT + 1)
        write_state_blob(path, self.PAYLOAD)
        assert read_state_blob(path) == self.PAYLOAD
        monkeypatch.undo()
        with pytest.raises(UnrecoverableShardError):
            read_state_blob(path)


# --------------------------------------------------------------------------
# Respawn: lossless or loud
# --------------------------------------------------------------------------
def _recipe(storage_dir, **overrides) -> ShardRecipe:
    fields = dict(
        num_objects=NUM_OBJECTS,
        seed=5,
        num_servers=2,
        storage_dir=str(storage_dir),
        durable_accounting=True,
        tablet_options=TabletOptions(memtable_flush_rows=16, compaction_max_runs=2),
    )
    fields.update(overrides)
    return ShardRecipe(**fields)


def _build(recipe: ShardRecipe) -> dict:
    """One worker process's worth of services, built (or restored)."""
    services: dict = {}
    dispatch_request(
        services, 0, rpc.OP_CALL, rpc.encode_call("build_indexer", (recipe,), {}), 1
    )
    return services


def _close_stores(services: dict) -> None:
    emulator = services[0].indexer.emulator
    for name in emulator.table_names():
        emulator.table(name)._store.close()


class TestRespawn:
    def test_dedup_replay_after_respawn_equals_the_original(self, tmp_path):
        recipe = _recipe(tmp_path)
        update_body = rpc.encode_update_batch(_messages(1))
        query_body = rpc.encode_query_batch(_queries(2))
        first = _build(recipe)
        dispatch_request(first, 0, rpc.OP_UPDATE_BATCH, update_body, 10)
        query_ack = dispatch_request(first, 0, rpc.OP_QUERY_BATCH, query_body, 11)
        slot = first[0]._slot
        assert slot[:2] == (11, rpc.OP_QUERY_BATCH)
        assert sum(len(answer) for answer in slot[2][0]) == 30
        charged = first[0].call("simulated_seconds")
        rows = first[0].call("full_row_signature")
        _close_stores(first)  # the process dies; its files stay

        second = _build(recipe)  # the respawned worker restores
        assert second[0]._slot == slot
        # The replay answers from the slot — same ack bytes (the query rides
        # a fresh stream encoder, as the first process's first query did) —
        # and touches nothing; the update before it is stale.
        assert dispatch_request(
            second, 0, rpc.OP_QUERY_BATCH, query_body, 11
        ) == query_ack
        with pytest.raises(StaleRequestError):
            dispatch_request(second, 0, rpc.OP_UPDATE_BATCH, update_body, 10)
        assert second[0].call("simulated_seconds") == charged
        assert second[0].call("full_row_signature") == rows
        _close_stores(second)

    def test_build_indexer_after_a_restore_leaves_the_slot_intact(self, tmp_path):
        # The rebuild is not recorded: its id (1 here, newer than the round
        # in a real heal) must not displace the slot the resend replays.
        recipe = _recipe(tmp_path)
        update_body = rpc.encode_update_batch(_messages(1))
        first = _build(recipe)
        update_ack = dispatch_request(first, 0, rpc.OP_UPDATE_BATCH, update_body, 10)
        blob_path = os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME)
        written = read_state_blob(blob_path)["dedup"]
        _close_stores(first)
        second = _build(recipe)
        assert read_state_blob(blob_path)["dedup"] == written
        assert dispatch_request(
            second, 0, rpc.OP_UPDATE_BATCH, update_body, 10
        ) == update_ack
        _close_stores(second)

    def test_the_blob_carries_the_slot_as_one_encoded_entry(self, tmp_path):
        services = _build(_recipe(tmp_path))
        for request_id in (20, 21):
            dispatch_request(
                services, 0, rpc.OP_QUERY_BATCH,
                rpc.encode_query_batch(_queries(request_id)), request_id,
            )
        (entry,) = services[0].accounting_state()["dedup"]
        decoded, end = values.decode_value(entry, 0)
        assert decoded == services[0]._slot and end == len(entry)
        assert decoded[:2] == (21, rpc.OP_QUERY_BATCH)
        blob = read_state_blob(os.path.join(str(tmp_path), "shard-00", STATE_BLOB_NAME))
        assert blob["dedup"] == (entry,)
        _close_stores(services)

    def test_a_blob_with_more_than_one_exactly_once_entry_refuses_to_restore(
        self, tmp_path
    ):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        dispatch_request(
            first, 0, rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(_messages(1)), 10
        )
        state = first[0].accounting_state()
        _close_stores(first)
        state["dedup"] = state["dedup"] * 2
        write_state_blob(os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME), state)
        with pytest.raises(UnrecoverableShardError, match="at most 1"):
            _build(recipe)

    def test_shards_without_a_checkpoint_do_not_encode_results(self, monkeypatch):
        services = _build(ShardRecipe(num_objects=NUM_OBJECTS, seed=5))
        encoded = []
        monkeypatch.setattr(
            "repro.server.worker.pack_value",
            lambda value: encoded.append(value) or values.pack_value(value),
        )
        dispatch_request(
            services, 0, rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(_messages(1)), 10
        )
        assert services[0]._slot[0] == 10 and encoded == []

    def test_unreadable_blob_refuses_to_restore(self, tmp_path):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        dispatch_request(
            first, 0, rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(_messages(1)), 10
        )
        _close_stores(first)
        path = os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(UnrecoverableShardError):
            _build(recipe)

    @pytest.mark.parametrize(
        "written_by, rebuilt_as",
        [
            (dict(num_servers=3), dict(num_servers=2)),  # zip() dropped a row
            (dict(num_servers=2), dict(num_servers=3)),
            (dict(with_master=True), dict(with_master=False)),
            (dict(with_master=False), dict(with_master=True)),
        ],
    )
    def test_snapshot_that_does_not_fit_its_owner_refuses_to_install(
        self, tmp_path, written_by, rebuilt_as
    ):
        first = _build(_recipe(tmp_path, **written_by))
        dispatch_request(
            first, 0, rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(_messages(1)), 10
        )
        _close_stores(first)
        with pytest.raises(UnrecoverableShardError):
            _build(_recipe(tmp_path, **rebuilt_as))

    def test_snapshot_naming_a_tablet_the_stack_lacks_refuses_to_install(
        self, tmp_path
    ):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        state = first[0].accounting_state()
        _close_stores(first)
        ledgers = state["emulator"]["tables"]["location"]["tablets"]
        ledgers["location/t9999"] = ledgers.pop(next(iter(ledgers)))
        write_state_blob(os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME), state)
        with pytest.raises(UnrecoverableShardError, match="t9999"):
            _build(recipe)
        del state["emulator"]["tables"]["location"]
        write_state_blob(os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME), state)
        with pytest.raises(UnrecoverableShardError):
            _build(recipe)

    def test_manifest_without_a_blob_rebuilds_cold(self, tmp_path):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        reference = (
            first[0].call("full_row_signature"),
            first[0].call("counter_snapshot"),
            first[0].call("tablet_count"),
        )
        _close_stores(first)
        # A first build killed before its checkpoint: manifests, no blob —
        # and whatever else it left is not to be trusted.
        os.remove(os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME))
        stray = os.path.join(recipe.shard_storage_dir, "location", "journal.bin")
        with open(stray, "ab") as handle:
            handle.write(b"\x00" * 7)
        second = _build(recipe)
        assert (
            second[0].call("full_row_signature"),
            second[0].call("counter_snapshot"),
            second[0].call("tablet_count"),
        ) == reference
        assert os.path.exists(os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME))
        _close_stores(second)

    def test_first_build_killed_inside_its_barrier_starts_over(self, tmp_path):
        recipe = _recipe(tmp_path / "killed")
        pid = os.fork()
        if pid == 0:  # the first build, SIGKILLed at its 50th commit point
            try:
                real_commit = DiskTableStore.journal_commit
                commits = []

                def dying_commit(store):
                    commits.append(store.root)
                    if len(commits) == 50 and store._barrier.barrier_open:
                        os.kill(os.getpid(), signal.SIGKILL)
                    real_commit(store)

                DiskTableStore.journal_commit = dying_commit
                _build(recipe)
            finally:
                os._exit(1)  # only reached if the kill never landed
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        # What the preload had committed was owed at the acknowledgement it
        # never gave: manifests, no blob, and not one journal byte.
        shard_dir = recipe.shard_storage_dir
        assert not os.path.exists(os.path.join(shard_dir, STATE_BLOB_NAME))
        tables = sorted(os.listdir(shard_dir))
        assert len(tables) == 3
        for name in tables:
            assert os.path.exists(os.path.join(shard_dir, name, "MANIFEST.bin"))
            assert os.path.getsize(os.path.join(shard_dir, name, "journal.bin")) == 0
        second = _build(recipe)  # starts over from the recipe
        fresh = _build(_recipe(tmp_path / "fresh"))
        for verb in ("full_row_signature", "counter_snapshot", "tablet_count"):
            assert second[0].call(verb) == fresh[0].call(verb)
        assert os.path.exists(os.path.join(shard_dir, STATE_BLOB_NAME))
        _close_stores(second)
        _close_stores(fresh)

    @staticmethod
    def _built_by_the_parent_commit(recipe, monkeypatch) -> None:
        """Leave a shard directory stamped with the previous formats — the
        ones whose cell values were ``Point`` / ``Vector`` / record objects
        where the tables now expect rows."""
        with monkeypatch.context() as patch:
            patch.setattr("repro.disk.store.MANIFEST_FORMAT", MANIFEST_FORMAT - 1)
            patch.setattr("repro.disk.store.STATE_FORMAT", STATE_FORMAT - 1)
            services = _build(recipe)
            dispatch_request(
                services, 0, rpc.OP_UPDATE_BATCH,
                rpc.encode_update_batch(_messages(1)), 10,
            )
            _close_stores(services)

    def test_previous_format_blob_refuses_to_restore(self, tmp_path, monkeypatch):
        recipe = _recipe(tmp_path)
        self._built_by_the_parent_commit(recipe, monkeypatch)
        with pytest.raises(UnrecoverableShardError):
            _build(recipe)

    def test_previous_format_manifests_are_no_checkpoint(self, tmp_path, monkeypatch):
        recipe = _recipe(tmp_path / "old")
        self._built_by_the_parent_commit(recipe, monkeypatch)
        os.remove(os.path.join(recipe.shard_storage_dir, STATE_BLOB_NAME))
        location_dir = os.path.join(recipe.shard_storage_dir, "location")
        assert os.listdir(os.path.join(location_dir, "runs"))
        # Table by table the old manifest reads as "no checkpoint" ...
        store = DiskTableStore(location_dir)
        assert store.has_checkpoint() and store.load_manifest() is None
        store.close()
        # ... and the shard starts over from its recipe in a clean directory.
        second = _build(recipe)
        fresh = _build(_recipe(tmp_path / "fresh"))
        for verb in ("full_row_signature", "counter_snapshot", "tablet_count"):
            assert second[0].call(verb) == fresh[0].call(verb)
        _close_stores(second)
        _close_stores(fresh)
        listings = [
            sorted(
                os.path.relpath(os.path.join(folder, name), root)
                for folder, _, names in os.walk(root)
                for name in names
            )
            for root in (str(tmp_path / "old"), str(tmp_path / "fresh"))
        ]
        assert listings[0] == listings[1]


# --------------------------------------------------------------------------
# Worker-side time split
# --------------------------------------------------------------------------
class TestWorkerPhase:
    def test_dispatch_accumulates_its_steps_and_their_parts(self, tmp_path):
        services = _build(_recipe(tmp_path))
        before = dict(services[0].phase)
        dispatch_request(
            services, 0, rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(_messages(1)), 10
        )
        after = services[0].phase
        assert tuple(after) == DISPATCH_PHASES + STATE_BLOB_STEPS
        assert all(after[step] > before[step] for step in after)
        phase = services[0].call("metrics")["worker_phase"]
        assert tuple(phase) == WORKER_PHASES
        assert phase["journal_sync"] > 0.0 and phase["checkpoint"] > 0.0
        assert phase["checkpoint"] <= phase["apply"]
        parts = ("run_encode", "run_write", "manifest_write", "run_gc")
        assert all(phase[part] > 0.0 for part in parts)
        assert sum(phase[part] for part in parts) <= phase["checkpoint"]
        assert sum(phase[part] for part in STATE_BLOB_STEPS) <= phase["state_blob"]
        _close_stores(services)

    def test_cluster_sums_shards_without_moving_a_frame(self, tmp_path):
        cluster = ScaleOutCluster.build(
            2, backend="disk", num_workers=2, num_objects=NUM_OBJECTS,
            storage_dir=str(tmp_path),
        )
        try:
            cluster.submit_update_batch(_messages(1))
            frames = cluster.backend.rpc_frame_count()
            assert cluster.metrics_snapshot()["worker_phase"] is None
            assert cluster.backend.rpc_frame_count() == frames
            per_shard = cluster.metrics()
            total = cluster.metrics_snapshot()["worker_phase"]
            assert tuple(total) == WORKER_PHASES
            for step in WORKER_PHASES:
                assert total[step] == sum(
                    entry["worker_phase"][step] for entry in per_shard
                )
            assert total["apply"] > 0.0 and total["journal_sync"] > 0.0
        finally:
            cluster.close()
