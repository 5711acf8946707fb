"""The worker's persistence path: one snapshot plus the requests since.

Three layers put bytes on disk for a shard with a storage directory, and
each is pinned here at its own boundary:

* **values** — run blocks and snapshots carry typed tags for the domain
  records; a value without a tag is a ``CodecError`` where it is encoded,
  and a file holding the retired tag 0 is a typed error on restore;
* **request log** — every mutating request is one frame, written and
  fsynced before the request applies; a torn final frame is dropped, any
  other damage is a typed error;
* **snapshot** — every table and the accounting sections, after the build
  and after every ``SNAPSHOT_EVERY``-th logged request; a damaged snapshot,
  or one that does not fit the shard, is a typed error rather than a
  silently lossy respawn.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import struct
import sys
import tempfile
from array import array
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.bigtable.cost import OpCounter
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions
from repro.codec import blocks, values
from repro.codec.columns import write_uvarint
from repro.disk.store import SNAPSHOT_FORMAT, STATE_SECTIONS, STORE_STEPS, ShardStore
from repro.errors import CodecError, StaleRequestError, UnrecoverableShardError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord, UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.scaleout import ScaleOutCluster
from repro.server.worker import (
    DISPATCH_PHASES,
    SNAPSHOT_EVERY,
    WORKER_PHASES,
    ShardRecipe,
    ShardService,
    dispatch_request,
)
from repro.tables.affiliation_table import LFRecord, Role
from repro.workload.queries import NNQuery

from shard_harness import accounting, apply_op, call, single_shard_client
from test_lsm_recovery_property import random_ops

FAMILIES = [ColumnFamily("mem", max_versions=3), ColumnFamily("disk", max_versions=5)]
NUM_OBJECTS = 120
#: Every request id a test sends is below this: a respawn's build, whose id
#: continues the dead worker's counter, carries it.
RESPAWN_ID = 1000


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


def _recipe(storage_dir, **overrides) -> ShardRecipe:
    fields = dict(
        num_objects=NUM_OBJECTS,
        seed=5,
        num_servers=2,
        storage_dir=str(storage_dir),
        tablet_options=TabletOptions(memtable_flush_rows=16, compaction_max_runs=2),
    )
    fields.update(overrides)
    return ShardRecipe(**fields)


def _build(recipe: ShardRecipe, request_id: int = 1) -> dict:
    """One worker process's worth of services, built (or restored).  A
    respawn's build passes :data:`RESPAWN_ID`; a new parent's starts at 1."""
    services: dict = {}
    dispatch_request(
        services, 0, rpc.OP_CALL, rpc.encode_call("build_indexer", (recipe,), {}),
        request_id,
    )
    return services


def _update(services: dict, request_id: int, seed: int = 1) -> bytes:
    body = rpc.encode_update_batch(_messages(seed))
    return dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, body, request_id)


def _shard_file(recipe: ShardRecipe, name: str) -> str:
    return os.path.join(recipe.shard_storage_dir, name)


def _read_snapshot(recipe: ShardRecipe) -> dict:
    with open(_shard_file(recipe, "SNAPSHOT.bin"), "rb") as handle:
        return blocks.decode_snapshot(handle.read())


def _write_snapshot(recipe: ShardRecipe, services: dict, state: dict) -> None:
    """Replace the shard's snapshot with its tables as ``services`` hold
    them and ``state`` as the accounting sections."""
    emulator = services[0].cluster.indexer.emulator
    ShardStore(recipe.shard_storage_dir).snapshot(
        {name: emulator.table(name) for name in emulator.table_names()}, state
    )


# --------------------------------------------------------------------------
# Values: typed on the way out, tag 0 refused on the way in
# --------------------------------------------------------------------------
_ENCODE_VALUE = values.encode_value


def _encode_value_with_tag_zero(out: bytearray, obj: object) -> None:
    """The value encoder before tags 13-15: domain records are pickled
    behind tag 0 (``pickle`` here is only the fixture's writer)."""
    if type(obj) in (LocationRecord, LFRecord):
        payload = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        out.append(0)
        write_uvarint(out, len(payload))
        out += payload
    else:
        _ENCODE_VALUE(out, obj)


def _patch_tag_zero(patch) -> None:
    """Encode with tag 0 wherever a value is encoded, nested ones too."""
    patch.setattr(values, "encode_value", _encode_value_with_tag_zero)
    patch.setattr(blocks, "encode_value", _encode_value_with_tag_zero)


def _record_program(table: Table) -> None:
    for index in range(25):
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


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=12), st.integers(1, 2**40), max_size=30))
def test_count_blocks_round_trip_in_key_order(counts):
    data = blocks.encode_count_block(counts)
    decoded = blocks.decode_count_block(data)
    assert decoded == counts and list(decoded) == sorted(counts)
    with pytest.raises(ValueError, match="stray"):
        blocks.decode_count_block(data + b"\x00")


class TestTagZeroIsRefusedOnRestore:
    """Each artifact on its own (the crc is valid — the bytes are exactly
    what an old writer produced), then a whole snapshot directory."""

    RECORD = LocationRecord(Point(1.5, 2.5), Vector(0.25, -1.0), 3.0)

    def test_run_block(self, monkeypatch):
        _patch_tag_zero(monkeypatch)
        row = blocks._Row({"mem": {"q": (3.0, self.RECORD)}})
        with pytest.raises(CodecError, match="tag 0"):
            blocks.decode_run_block(blocks.encode_run_block(["k"], [row], 1))

    def test_snapshot(self, monkeypatch):
        _patch_tag_zero(monkeypatch)
        with pytest.raises(CodecError, match="tag 0"):
            blocks.decode_snapshot(blocks.encode_snapshot(self.RECORD))

    def test_snapshot_directory(self, tmp_path, monkeypatch):
        options = TabletOptions(
            split_threshold=16, merge_threshold=4, memtable_flush_rows=16
        )
        old_root, new_root = str(tmp_path / "old"), str(tmp_path / "new")
        with monkeypatch.context() as patch:
            _patch_tag_zero(patch)
            old = Table("t", FAMILIES, options=options)
            _record_program(old)
            ShardStore(old_root).snapshot({"t": old}, None)
        new = Table("t", FAMILIES, options=options)
        _record_program(new)
        ShardStore(new_root).snapshot({"t": new}, None)
        assert any(len(tablet.rows) for tablet in new.tablets())
        # The fixture really is the old format (pickle names the class it
        # rebuilds), runs and memtable blocks alike; today's files never do.
        assert b"LocationRecord" in _file_bytes(os.path.join(old_root, "runs"))
        with open(os.path.join(old_root, "SNAPSHOT.bin"), "rb") as handle:
            assert b"LFRecord" in handle.read()
        assert b"Record" not in _file_bytes(new_root)

        with pytest.raises(UnrecoverableShardError, match="tag 0"):
            ShardStore(old_root).load()
        restored = ShardStore(new_root).load().restore_table("t", FAMILIES, OpCounter())
        assert restored.scan() == new.scan()
        assert repr(restored.scan()) == repr(new.scan())


def test_an_unencodable_value_is_a_codec_error_at_the_sender(tmp_path):
    with pytest.raises(CodecError, match="no value tag"):
        values.encode_value(bytearray(), object())
    # ... and a client of a shard that persists refuses a request carrying
    # one as it encodes the request's body — before a frame could hold it
    # or the request could apply.
    recipe = _recipe(tmp_path)
    with single_shard_client("inprocess", recipe) as client:
        (service,) = client.transport.pool.services[0].values()
        log = _shard_file(recipe, "requests.log")
        size = os.path.getsize(log)
        with pytest.raises(CodecError, match="no value tag"):
            client.call("reset_metrics", {1, 2})
        assert os.path.getsize(log) == size and service._slot is None


# --------------------------------------------------------------------------
# The request log: one fsynced frame per mutating request, before it applies
# --------------------------------------------------------------------------
_FRAMES = [(7, rpc.OP_UPDATE_BATCH, b"update"), (9, rpc.OP_CALL, b"rebalance")]


def _frames_bytes() -> bytes:
    return b"".join(blocks.encode_request_frame(*frame) for frame in _FRAMES)


class TestRequestLog:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**64 - 1), st.integers(0, 255), st.binary(max_size=64)
            ),
            max_size=5,
        )
    )
    def test_frames_round_trip(self, frames):
        data = b"".join(blocks.encode_request_frame(*frame) for frame in frames)
        assert blocks.read_request_frames(data) == (frames, len(data))

    @pytest.mark.parametrize(
        "cut", [1, 5, 9, 10, 20, 26], ids=lambda cut: f"last-{cut}-bytes-missing"
    )
    def test_a_torn_final_frame_ends_the_read(self, cut):
        data = _frames_bytes()
        first = len(blocks.encode_request_frame(*_FRAMES[0]))
        assert blocks.read_request_frames(data[:-cut]) == (_FRAMES[:1], first)

    def test_a_bad_crc_on_the_final_frame_ends_the_read(self):
        data = bytearray(_frames_bytes())
        data[-1] ^= 1  # the body's last byte
        first = len(blocks.encode_request_frame(*_FRAMES[0]))
        assert blocks.read_request_frames(bytes(data)) == (_FRAMES[:1], first)

    @pytest.mark.parametrize(
        "at", [0, 8, 9, 13, 20], ids=["id", "opcode", "length", "crc", "body"]
    )
    def test_a_bad_frame_before_the_last_is_damage(self, tmp_path, at):
        data = bytearray(_frames_bytes())
        data[at] ^= 1  # a field of the first frame
        with pytest.raises(ValueError, match="crc"):
            blocks.read_request_frames(bytes(data))
        # ... which a restore refuses, rather than drop what follows.
        recipe = _recipe(tmp_path)
        _build(recipe)
        with open(_shard_file(recipe, "requests.log"), "ab") as log:
            log.write(bytes(data))
        with pytest.raises(UnrecoverableShardError, match="before its final frame"):
            _build(recipe, RESPAWN_ID)

    def test_the_restore_cuts_a_torn_final_frame_away(self, tmp_path):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        _update(first, 10, seed=1)
        rows = call(first[0], "full_row_signature")
        log = _shard_file(recipe, "requests.log")
        acked = os.path.getsize(log)
        frame = blocks.encode_request_frame(
            11, rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(_messages(2))
        )
        with open(log, "ab") as handle:
            handle.write(frame[: len(frame) // 2])  # the append a kill tore
        second = _build(recipe, RESPAWN_ID)
        assert os.path.getsize(log) == acked
        assert second[0]._slot[0] == 10
        assert call(second[0], "full_row_signature") == rows
        _update(second, 11, seed=2)  # the resend applies afresh ...
        third = _build(recipe, RESPAWN_ID + 1)  # ... and is logged whole
        assert call(third[0], "full_row_signature") == call(second[0], 
            "full_row_signature"
        )

    def test_a_log_of_an_older_generation_is_ignored(self, tmp_path):
        # A kill between the snapshot's rename and the log's reset leaves
        # the old log beside the new snapshot: every frame in it is in the
        # snapshot already, and re-running one would apply it twice.
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        _update(first, 10)
        log = _shard_file(recipe, "requests.log")
        with open(log, "rb") as handle:
            stale = handle.read()
        first[0]._snapshot()
        charged = call(first[0], "simulated_seconds")
        with open(log, "wb") as handle:
            handle.write(stale)
        assert struct.unpack_from("<Q", stale)[0] == _read_snapshot(recipe)["generation"] - 1
        second = _build(recipe, RESPAWN_ID)
        assert call(second[0], "simulated_seconds") == charged
        with open(log, "rb") as handle:
            assert handle.read() == struct.pack("<Q", 2)

    def test_every_mutating_request_is_one_fsync_before_it_applies(
        self, tmp_path, monkeypatch
    ):
        recipe = _recipe(tmp_path, with_master=True)
        services = _build(recipe)
        log = _shard_file(recipe, "requests.log")
        fsyncs = []
        real_fsync = os.fsync

        def counting(fd):
            fsyncs.append(sys._getframe(1).f_code.co_name)
            return real_fsync(fd)

        update_batch = ShardService.update_batch
        logged_first = []

        def checking_update_batch(service, messages):
            with open(log, "rb") as handle:
                frames, _ = blocks.read_request_frames(handle.read()[8:])
            logged_first.append(frames[-1][0])
            return update_batch(service, messages)

        monkeypatch.setattr(os, "fsync", counting)
        monkeypatch.setattr(ShardService, "update_batch", checking_update_batch)
        query = rpc.encode_query_batch(_queries(1))
        _update(services, 10)
        dispatch_request(services, 0, rpc.OP_QUERY_BATCH, query, 11)
        read = rpc.encode_call("metrics", (), {})
        dispatch_request(services, 0, rpc.OP_CALL, read, 12)
        rebalance = rpc.encode_call("rebalance", (), {})
        dispatch_request(services, 0, rpc.OP_CALL, rebalance, 13)
        assert fsyncs == ["append"] * 3 and logged_first == [10]
        # A resend, a stale id and a read-only verb touch no file.
        dispatch_request(services, 0, rpc.OP_CALL, rebalance, 13)
        with pytest.raises(StaleRequestError):
            _update(services, 10)
        dispatch_request(services, 0, rpc.OP_CALL, read, 14)
        assert fsyncs == ["append"] * 3
        with open(log, "rb") as handle:
            frames, _ = blocks.read_request_frames(handle.read()[8:])
        assert [frame[:2] for frame in frames] == [
            (10, rpc.OP_UPDATE_BATCH), (11, rpc.OP_QUERY_BATCH), (13, rpc.OP_CALL)
        ]
        assert frames[1][2] == query and frames[2][2] == rebalance

    def test_a_shard_without_storage_touches_no_file(self, monkeypatch):
        services = _build(ShardRecipe(num_objects=NUM_OBJECTS, seed=5))
        assert services[0]._store is None
        touched = []
        monkeypatch.setattr(os, "fsync", touched.append)
        encoded = []
        monkeypatch.setattr(
            "repro.server.worker.pack_value",
            lambda value: encoded.append(value) or values.pack_value(value),
        )
        _update(services, 10)
        assert services[0]._slot[0] == 10
        assert touched == [] and encoded == []

    def test_every_snapshot_every_th_logged_request_ends_in_a_snapshot(self, tmp_path):
        recipe = _recipe(tmp_path)
        services = _build(recipe)
        log = _shard_file(recipe, "requests.log")
        assert _read_snapshot(recipe)["generation"] == 1
        for request_id in range(10, 10 + SNAPSHOT_EVERY - 1):
            _update(services, request_id, seed=request_id)
        assert _read_snapshot(recipe)["generation"] == 1
        with open(log, "rb") as handle:
            frames, _ = blocks.read_request_frames(handle.read()[8:])
        assert len(frames) == SNAPSHOT_EVERY - 1
        _update(services, 10 + SNAPSHOT_EVERY, seed=0)
        snapshot = _read_snapshot(recipe)
        assert snapshot["generation"] == 2
        assert snapshot["state"] == services[0].accounting_state()
        with open(log, "rb") as handle:
            assert handle.read() == struct.pack("<Q", 2)


# --------------------------------------------------------------------------
# Run files: trusted only when named, each frozen row encoded once
# --------------------------------------------------------------------------
class TestRunFiles:
    @pytest.mark.parametrize("rows", [0, 1], ids=["shorter", "same-length"])
    def test_a_run_file_no_snapshot_names_is_deleted_not_adopted(
        self, tmp_path, rows
    ):
        root = str(tmp_path)
        table = Table("t", FAMILIES)
        table.write("k1", "mem", "q", "a", 1.0)
        table.flush_memtables()  # run-0000, named by the snapshot
        ShardStore(root).snapshot({"t": table}, None)
        # The next flush's file, written by a snapshot killed before its
        # rename — complete, checksummed, and stale.
        runs = os.path.join(root, "runs")
        orphan = os.path.join(runs, "t__tablet-0000__run-0001.run")
        stale = blocks._Row({"mem": {"q": (9.0, "stale")}})
        with open(orphan, "wb") as handle:
            handle.write(blocks.encode_run_block(["k0"] * rows, [stale] * rows, 7))
        with open(os.path.join(root, "SNAPSHOT.bin.tmp"), "wb") as handle:
            handle.write(b"half a file")
        store = ShardStore(root)
        restored = store.load().restore_table("t", FAMILIES, OpCounter())
        assert sorted(os.listdir(runs)) == ["t__tablet-0000__run-0000.run"]
        assert not os.path.exists(os.path.join(root, "SNAPSHOT.bin.tmp"))
        restored.write("k2", "mem", "q", "b", 2.0)
        restored.flush_memtables()  # run-0001 again: written afresh
        store.snapshot({"t": restored}, None)
        again = ShardStore(root).load().restore_table("t", FAMILIES, OpCounter())
        assert [key for key, _ in again.scan()] == ["k1", "k2"]
        assert again.scan() == restored.scan()

    def test_a_failed_run_delete_is_retried_by_the_next_snapshot(
        self, tmp_path, monkeypatch
    ):
        store = ShardStore(str(tmp_path))
        table = Table("t", FAMILIES, options=TabletOptions(compaction_max_runs=8))
        for index in range(2):
            table.write(f"k{index}", "mem", "q", index, float(index))
            table.flush_memtables()
        store.snapshot({"t": table}, None)
        doomed = set(store._persisted)
        assert len(doomed) == 2

        real_remove = os.remove
        failures = []

        def remove_failing_once(path):
            if not failures:
                failures.append(path)
                raise OSError("injected: the first delete fails")
            real_remove(path)

        monkeypatch.setattr(os, "remove", remove_failing_once)
        table.compact_runs(major=True)  # retires both runs
        store.snapshot({"t": table}, None)  # one delete fails
        leaked = [run_id for run_id in doomed if run_id in store._persisted]
        assert len(leaked) == 1 and os.path.exists(failures[0])
        table.write("k9", "mem", "q", 9, 9.0)
        store.snapshot({"t": table}, None)  # the next snapshot collects it
        assert not doomed & set(store._persisted)
        assert not os.path.exists(failures[0])
        assert sorted(os.listdir(os.path.join(str(tmp_path), "runs"))) == sorted(
            store._persisted.values()
        )

    @pytest.mark.parametrize("backend", ["inprocess", "disk"])
    @pytest.mark.parametrize("damage", ["magic", "crc", "missing"])
    def test_a_damaged_or_missing_run_file_fails_the_rebuild_typed(
        self, tmp_path, backend, damage
    ):
        # Like a damaged snapshot, a run file the snapshot names that is
        # missing, or fails its magic or crc, stops the restore with the
        # library's error naming the file — the same error from a forked
        # worker and from a loopback one.
        options = dict(
            backend=backend, num_objects=800, num_servers=1, seed=17,
            storage_dir=str(tmp_path),
            tablet_options=TabletOptions(memtable_flush_rows=64),
        )
        ScaleOutCluster.build(1, **options).close()
        victim = sorted((tmp_path / "shard-00" / "runs").iterdir())[-1]
        if damage == "missing":
            victim.unlink()
        else:
            data = bytearray(victim.read_bytes())
            data[0 if damage == "magic" else len(data) // 2] ^= 0xFF
            victim.write_bytes(bytes(data))
        with pytest.raises(UnrecoverableShardError, match=victim.name):
            ScaleOutCluster.build(1, **options)

    @staticmethod
    def _check_files(table: Table, store: ShardStore) -> None:
        """Every live run's file is a fresh encoding of the run; the memo
        holds exactly the rows of the runs this store wrote, each counted
        once per such run beyond the first."""
        store.snapshot({"t": table}, None)
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
            store = ShardStore(root)
            table = Table("t", FAMILIES, options=options)
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


# --------------------------------------------------------------------------
# The snapshot: whole, versioned, typed failure
# --------------------------------------------------------------------------
def _flip(data: bytes, at: int) -> bytes:
    damaged = bytearray(data)
    damaged[at] ^= 0x01
    return bytes(damaged)


class TestSnapshot:
    def test_it_holds_every_table_and_the_accounting_sections(self, tmp_path):
        recipe = _recipe(tmp_path, with_master=True)
        services = _build(recipe)
        _update(services, 10)
        services[0]._snapshot()
        loaded = ShardStore(recipe.shard_storage_dir).load()
        assert loaded.frames == []
        assert tuple(loaded.state) == STATE_SECTIONS
        assert repr(loaded.state) == repr(services[0].accounting_state())
        assert sorted(_read_snapshot(recipe)["tables"]) == [
            "affiliation", "location", "spatial_index"
        ]
        restored = _build(recipe, RESPAWN_ID)
        assert call(restored[0], "full_row_signature") == call(
            services[0], "full_row_signature"
        )
        assert accounting(restored[0]) == accounting(services[0])

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data, value: _flip(data, 0),  # the magic
            lambda data, value: _flip(data, len(data) - 1),  # the crc
            lambda data, value: _flip(data, len(data) // 2),  # the value
            lambda data, value: data[: len(data) // 2],
            lambda data, value: b"",
            lambda data, value: blocks.encode_snapshot(dict(value, format=value["format"] + 1)),
            lambda data, value: blocks.encode_snapshot([value]),  # not the dict
            lambda data, value: blocks.encode_snapshot(
                {key: item for key, item in value.items() if key != "state"}
            ),
            lambda data, value: blocks.encode_snapshot(dict(value, tables=[])),
        ],
        ids=[
            "magic", "crc", "value", "truncated", "empty", "other-format",
            "not-a-dict", "no-state", "tables-not-a-dict",
        ],
    )
    def test_a_damaged_snapshot_is_a_typed_error(self, tmp_path, damage):
        recipe = _recipe(tmp_path)
        _build(recipe)
        path = _shard_file(recipe, "SNAPSHOT.bin")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(data, blocks.decode_snapshot(data)))
        with pytest.raises(UnrecoverableShardError, match="damaged"):
            _build(recipe, RESPAWN_ID)

    def test_a_snapshot_of_the_log_format_is_refused(self, tmp_path):
        # Format 1 held each tablet's commit-log records where format 2
        # holds its memtable block and count block: refused, not migrated.
        recipe = _recipe(tmp_path)
        _build(recipe)
        value = _read_snapshot(recipe)
        assert value["format"] == SNAPSHOT_FORMAT == 2
        for manifest in value["tables"].values():
            for entry in manifest["tablets"]:
                del entry["memtable"], entry["counts"]
                entry["log"] = []
        with open(_shard_file(recipe, "SNAPSHOT.bin"), "wb") as handle:
            handle.write(blocks.encode_snapshot(dict(value, format=1)))
        with pytest.raises(UnrecoverableShardError, match="format 1"):
            ShardStore(recipe.shard_storage_dir).load()

    def test_the_tables_grow_with_the_memtable_not_the_mutations(self, tmp_path):
        # Without flushes every mutation stays unflushed.  The snapshot holds
        # each memtable (bounded by the rows) and a count per key logged
        # since the flush (the keys, not the records), so four times the
        # rounds must add well under four times the bytes.  A snapshot that
        # stored each record grew 3.5x here.
        def table_bytes(rounds: int, root) -> int:
            recipe = _recipe(root, tablet_options=TabletOptions())
            service = ShardService()
            service.build_indexer(recipe)
            for round_ in range(rounds):
                body = rpc.encode_update_batch(_messages(round_, timestamp=round_ + 1.0))
                service.serve(rpc.OP_UPDATE_BATCH, body, round_ + 1)
            service._snapshot()
            emulator = service.cluster.indexer.emulator
            assert emulator.run_count() == 0
            return len(values.pack_value(_read_snapshot(recipe)["tables"]))

        short, long = table_bytes(16, tmp_path / "n"), table_bytes(64, tmp_path / "4n")
        print(f"\nsnapshot tables after N and 4N rounds: {short} B, {long} B")
        assert long < 2 * short

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
        cache = state["emulator"]["tables"]["spatial_index"]["cache"]
        lengths = array("I", cache["block_len"])
        assert len(lengths) > 1
        lengths[0] += shift
        cache["block_len"] = lengths.tobytes()
        _write_snapshot(recipe, first, state)
        with pytest.raises(UnrecoverableShardError, match="block lengths"):
            _build(recipe, RESPAWN_ID)


# --------------------------------------------------------------------------
# Respawn: lossless or loud
# --------------------------------------------------------------------------
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
        charged = call(first[0], "simulated_seconds")
        rows = call(first[0], "full_row_signature")
        # The process dies; its files stay.

        second = _build(recipe, RESPAWN_ID)  # the respawned worker restores
        assert second[0]._slot == slot
        # The replay answers from the slot — same ack bytes — and touches
        # nothing; the update before it is stale.
        assert dispatch_request(
            second, 0, rpc.OP_QUERY_BATCH, query_body, 11
        ) == query_ack
        with pytest.raises(StaleRequestError):
            dispatch_request(second, 0, rpc.OP_UPDATE_BATCH, update_body, 10)
        assert call(second[0], "simulated_seconds") == charged
        assert call(second[0], "full_row_signature") == rows

    def test_build_indexer_after_a_restore_leaves_the_slot_intact(self, tmp_path):
        # The rebuild is not recorded: its id, newer than the round it
        # heals, must not displace the slot the resend replays.
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        update_ack = _update(first, 10)
        written = first[0].accounting_state()["dedup"]
        second = _build(recipe, RESPAWN_ID)
        assert second[0].accounting_state()["dedup"] == written
        assert _update(second, 10) == update_ack

    def test_a_new_parents_build_drops_the_restored_slot(self, tmp_path):
        # A new parent numbers its requests from the start: the restored
        # slot names none of them, and would refuse them all as stale.
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        _update(first, 10)
        rows = call(first[0], "full_row_signature")
        second = _build(recipe, request_id=1)
        assert second[0]._slot is None
        assert call(second[0], "full_row_signature") == rows
        _update(second, 2, seed=3)  # applies: ids restart with the parent
        assert second[0]._slot[0] == 2

    def test_the_snapshot_carries_the_slot_as_one_encoded_entry(self, tmp_path):
        recipe = _recipe(tmp_path)
        services = _build(recipe)
        for request_id in (20, 21):
            dispatch_request(
                services, 0, rpc.OP_QUERY_BATCH,
                rpc.encode_query_batch(_queries(request_id)), request_id,
            )
        (entry,) = services[0].accounting_state()["dedup"]
        decoded, end = values.decode_value(entry, 0)
        assert decoded == services[0]._slot and end == len(entry)
        assert decoded[:2] == (21, rpc.OP_QUERY_BATCH)
        services[0]._snapshot()
        assert _read_snapshot(recipe)["state"]["dedup"] == (entry,)

    def test_a_snapshot_with_more_than_one_exactly_once_entry_refuses_to_restore(
        self, tmp_path
    ):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        _update(first, 10)
        state = first[0].accounting_state()
        state["dedup"] = state["dedup"] * 2
        _write_snapshot(recipe, first, state)
        with pytest.raises(UnrecoverableShardError, match="at most 1"):
            _build(recipe, RESPAWN_ID)

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
        _update(first, 10)
        with pytest.raises(UnrecoverableShardError):
            _build(_recipe(tmp_path, **rebuilt_as), RESPAWN_ID)

    def test_snapshot_naming_a_tablet_the_stack_lacks_refuses_to_install(
        self, tmp_path
    ):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        state = first[0].accounting_state()
        ledgers = state["emulator"]["tables"]["location"]["tablets"]
        ledgers["location/t9999"] = ledgers.pop(next(iter(ledgers)))
        _write_snapshot(recipe, first, state)
        with pytest.raises(UnrecoverableShardError, match="t9999"):
            _build(recipe, RESPAWN_ID)
        del state["emulator"]["tables"]["location"]
        _write_snapshot(recipe, first, state)
        with pytest.raises(UnrecoverableShardError):
            _build(recipe, RESPAWN_ID)

    def test_a_directory_without_a_snapshot_rebuilds_cold(self, tmp_path):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        reference = (call(first[0], "full_row_signature"), accounting(first[0]))
        # A first build killed before its snapshot: whatever it left is not
        # to be trusted.
        os.remove(_shard_file(recipe, "SNAPSHOT.bin"))
        with open(_shard_file(recipe, "requests.log"), "ab") as handle:
            handle.write(b"\x00" * 7)
        second = _build(recipe)
        assert (
            call(second[0], "full_row_signature"), accounting(second[0])
        ) == reference
        assert _read_snapshot(recipe)["generation"] == 1
        with open(_shard_file(recipe, "requests.log"), "rb") as handle:
            assert handle.read() == struct.pack("<Q", 1)

    def test_first_build_killed_inside_its_snapshot_starts_over(self, tmp_path):
        recipe = _recipe(tmp_path / "killed")
        pid = os.fork()
        if pid == 0:  # the first build, SIGKILLed after its third run file
            try:
                real_fsync = os.fsync
                fsyncs = []

                def dying_fsync(fd):
                    real_fsync(fd)
                    fsyncs.append(fd)
                    if len(fsyncs) == 3:
                        os.kill(os.getpid(), signal.SIGKILL)

                os.fsync = dying_fsync
                _build(recipe)
            finally:
                os._exit(1)  # only reached if the kill never landed
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        # Run files, and no snapshot to name them.
        shard_dir = recipe.shard_storage_dir
        assert len(os.listdir(os.path.join(shard_dir, "runs"))) == 3
        assert not os.path.exists(os.path.join(shard_dir, "SNAPSHOT.bin"))
        second = _build(recipe)  # starts over from the recipe
        fresh = _build(_recipe(tmp_path / "fresh"))
        assert call(second[0], "full_row_signature") == call(
            fresh[0], "full_row_signature"
        )
        assert accounting(second[0]) == accounting(fresh[0])
        listings = [
            sorted(os.listdir(os.path.join(root, "shard-00", "runs")))
            for root in (str(tmp_path / "killed"), str(tmp_path / "fresh"))
        ]
        assert listings[0] == listings[1]

    def test_a_request_that_raised_raises_again_on_replay(self, tmp_path):
        # Logged before it applies, a request that raised is re-run and
        # raises again; the restore goes on past it to the requests after.
        recipe = _recipe(tmp_path)  # no master: ``rebalance`` raises
        first = _build(recipe)
        _update(first, 10)
        rebalance = rpc.encode_call("rebalance", (), {})
        with pytest.raises(Exception, match="without a tablet master"):
            dispatch_request(first, 0, rpc.OP_CALL, rebalance, 11)
        _update(first, 12, seed=2)
        second = _build(recipe, RESPAWN_ID)
        assert second[0]._slot == first[0]._slot
        for verb in ("full_row_signature", "simulated_seconds"):
            assert call(second[0], verb) == call(first[0], verb)
        assert accounting(second[0]) == accounting(first[0])


# --------------------------------------------------------------------------
# Replay: the logged requests re-run through the same dispatch
# --------------------------------------------------------------------------
_LOGGED_KINDS = {
    "update": (rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(_messages(4))),
    "query": (rpc.OP_QUERY_BATCH, rpc.encode_query_batch(_queries(4))),
    "call": (rpc.OP_CALL, rpc.encode_call("rebalance", (), {})),
}


class TestReplay:
    @pytest.mark.parametrize("kind", sorted(_LOGGED_KINDS))
    def test_each_kind_of_logged_request_re_runs_exactly(self, tmp_path, kind):
        recipe = _recipe(tmp_path, with_master=True)
        first = _build(recipe)
        _update(first, 10)
        opcode, body = _LOGGED_KINDS[kind]
        dispatch_request(first, 0, opcode, body, 11)
        second = _build(recipe, RESPAWN_ID)
        assert second[0]._slot == first[0]._slot
        assert repr(second[0].accounting_state()) == repr(first[0].accounting_state())
        assert call(second[0], "full_row_signature") == call(first[0], 
            "full_row_signature"
        )

    def test_a_replayed_query_answers_with_the_first_reply_bytes(self, tmp_path):
        # The restore re-runs the logged query; the resend then replays the
        # slot, whose results encode to the bytes the first process sent.
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        query = rpc.encode_query_batch(_queries(5))
        ack = dispatch_request(first, 0, rpc.OP_QUERY_BATCH, query, 10)
        second = _build(recipe, RESPAWN_ID)
        assert dispatch_request(second, 0, rpc.OP_QUERY_BATCH, query, 10) == ack

    def test_the_restore_keeps_counting_toward_the_next_snapshot(self, tmp_path):
        recipe = _recipe(tmp_path)
        first = _build(recipe)
        for request_id in range(10, 15):
            _update(first, request_id, seed=request_id)
        second = _build(recipe, RESPAWN_ID)
        assert second[0]._logged == first[0]._logged == 5
        for request_id in range(15, 10 + SNAPSHOT_EVERY):
            _update(second, request_id, seed=request_id)
        assert _read_snapshot(recipe)["generation"] == 2
        assert second[0]._logged == 0


# --------------------------------------------------------------------------
# What never touches a file, and what does
# --------------------------------------------------------------------------
class TestFileTraffic:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("split_threshold", [8, 10_000])
    def test_a_table_program_touches_no_file_and_a_snapshot_restores_it(
        self, tmp_path, monkeypatch, seed, split_threshold
    ):
        # Flush, compaction, split, merge and every commit point run with
        # the file calls gone; the snapshot afterwards holds the result.
        rng = random.Random(seed)
        options = TabletOptions(
            split_threshold=split_threshold,
            merge_threshold=4,
            group_commit_size=rng.choice([4, 256]),
            memtable_flush_rows=rng.choice([None, 8]),
            compaction_max_runs=3,
        )
        table = Table("t", FAMILIES, options=options)
        with monkeypatch.context() as patch:
            for name in ("open", "write", "fsync", "replace", "remove", "ftruncate"):
                patch.setattr(os, name, None)
            for op in random_ops(rng, 120):
                apply_op(table, op)
        assert (table.tablet_count() > 1) == (split_threshold == 8)
        ShardStore(str(tmp_path)).snapshot({"t": table}, None)
        restored = ShardStore(str(tmp_path)).load().restore_table(
            "t", FAMILIES, OpCounter()
        )
        assert restored.scan() == table.scan()
        assert [
            (t.log_counts, t.log_records, repr(list(t.rows.items())))
            for t in restored.tablets()
        ] == [
            (t.log_counts, t.log_records, repr(list(t.rows.items())))
            for t in table.tablets()
        ]

    def test_federation_disk_build_pays_run_files_and_one_snapshot_per_shard(
        self, tmp_path, monkeypatch
    ):
        """The 8-shard ``federation_disk`` recipe set: each shard's build
        fsyncs its run files and its first snapshot, nothing else."""
        fsyncs = []
        real_fsync = os.fsync

        def counting(fd):
            fsyncs.append(sys._getframe(1).f_code.co_name)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        cluster = ScaleOutCluster.build(
            8,
            backend="inprocess",
            num_servers=2,
            num_objects=3000,
            seed=59,
            storage_dir=str(tmp_path),
            tablet_options=TabletOptions(memtable_flush_rows=128, compaction_max_runs=4),
        )
        cluster.close()
        runs = sum(
            len(os.listdir(os.path.join(str(tmp_path), f"shard-{shard:02d}", "runs")))
            for shard in range(8)
        )
        assert fsyncs.count("snapshot") == 8
        assert fsyncs.count("_ensure_run_file") == runs == 48
        assert len(fsyncs) == 56

    def test_an_in_process_federation_logs_byte_identically_to_the_disk_backend(
        self, tmp_path
    ):
        # The loopback carries the forked workers' frames under the same
        # request ids, so every shard's log holds the same bytes.
        def logs(backend: str) -> list:
            root = tmp_path / backend
            options = dict(
                backend=backend, num_workers=2, num_servers=2,
                num_objects=NUM_OBJECTS, storage_dir=str(root),
            )
            with ScaleOutCluster.build(3, **options) as cluster:
                for seed in range(3):
                    cluster.submit_update_batch(_messages(seed, timestamp=seed + 1.0))
                    cluster.submit_query_batch(_queries(seed))
                cluster.reset_metrics()
            shard_logs = []
            for shard in range(3):
                path = root / f"shard-{shard:02d}" / "requests.log"
                shard_logs.append(path.read_bytes())
            return shard_logs

        in_process = logs("inprocess")
        assert all(len(log) > 8 for log in in_process)  # more than the header
        assert in_process == logs("disk")

    def test_an_in_process_federation_restarts_from_its_files(self, tmp_path):
        options = dict(
            backend="inprocess", num_servers=2, num_objects=NUM_OBJECTS,
            storage_dir=str(tmp_path),
            tablet_options=TabletOptions(memtable_flush_rows=16),
        )
        first = ScaleOutCluster.build(2, **options)
        first.submit_update_batch(_messages(1))
        first.submit_query_batch(_queries(2))
        before = first.backend.scatter("full_row_signature")
        ledgers = [record["ledger"] for record in first.metrics()]
        first.close()
        second = ScaleOutCluster.build(2, **options)
        assert second.backend.scatter("full_row_signature") == before
        assert [record["ledger"] for record in second.metrics()] == ledgers
        second.close()


# --------------------------------------------------------------------------
# A snapshot interrupted after each of its steps
# --------------------------------------------------------------------------
class TestSnapshotSteps:
    @pytest.mark.parametrize(
        "step", ["_ensure_run_file", "replace", "_reset_log", "_gc_runs"]
    )
    def test_a_failure_after_each_step_restores_the_same_shard(
        self, tmp_path, monkeypatch, step
    ):
        recipe = _recipe(tmp_path)
        reference = _build(_recipe(tmp_path / "reference"))
        first = _build(recipe)
        for request_id in range(10, 9 + SNAPSHOT_EVERY):
            _update(reference, request_id, seed=request_id)
            _update(first, request_id, seed=request_id)

        def failing_after(function):
            def call(*args, **kwargs):
                function(*args, **kwargs)
                raise OSError(f"injected: after {step}")

            return call

        if step == "replace":
            monkeypatch.setattr("repro.disk.store.os.replace", failing_after(os.replace))
        else:
            monkeypatch.setattr(ShardStore, step, failing_after(getattr(ShardStore, step)))
        last = 9 + SNAPSHOT_EVERY  # the request whose snapshot fails
        with pytest.raises(OSError, match="injected"):
            _update(first, last, seed=last)
        monkeypatch.undo()
        _update(reference, last, seed=last)
        second = _build(recipe, RESPAWN_ID)
        assert second[0]._slot[0] == last
        for verb in ("full_row_signature", "simulated_seconds"):
            assert call(second[0], verb) == call(reference[0], verb)
        assert accounting(second[0]) == accounting(reference[0])


    def test_a_shard_serving_on_after_a_failed_log_reset_logs_afresh(
        self, tmp_path, monkeypatch
    ):
        # The snapshot is in place but its log still holds the requests it
        # reflects: the request that snapshotted reports the error, the
        # shard serves on, and its next append resets the log first — a
        # frame appended behind the old generation's header would be lost.
        recipe = _recipe(tmp_path)
        reference = _build(_recipe(tmp_path / "reference"))
        first = _build(recipe)
        last = 9 + SNAPSHOT_EVERY
        for request_id in range(10, last + 3):
            _update(reference, request_id, seed=request_id)
        for request_id in range(10, last):
            _update(first, request_id, seed=request_id)
        real_ftruncate = os.ftruncate
        calls = []

        def failing_once(fd, length):
            calls.append(length)
            if len(calls) == 1:
                raise OSError("injected: the log reset fails")
            return real_ftruncate(fd, length)

        monkeypatch.setattr("repro.disk.store.os.ftruncate", failing_once)
        with pytest.raises(OSError, match="injected"):
            _update(first, last, seed=last)
        for request_id in (last + 1, last + 2):  # the shard serves on
            _update(first, request_id, seed=request_id)
        monkeypatch.undo()
        # The failed reset, the next append's, and the snapshot the failure
        # left owing, taken again at the end of that next request.
        assert len(calls) == 3
        second = _build(recipe, RESPAWN_ID)
        assert second[0]._slot[0] == last + 2
        for verb in ("full_row_signature", "simulated_seconds"):
            assert call(second[0], verb) == call(reference[0], verb)
        assert accounting(second[0]) == accounting(reference[0])


# --------------------------------------------------------------------------
# Worker-side time split
# --------------------------------------------------------------------------
class TestWorkerPhase:
    def test_dispatch_accumulates_its_steps_and_their_parts(self, tmp_path):
        services = _build(_recipe(tmp_path))
        before = dict(services[0].phase)
        _update(services, 10)
        after = services[0].phase
        assert tuple(after) == DISPATCH_PHASES
        assert all(after[step] > before[step] for step in after)
        phase = call(services[0], "metrics")["worker_phase"]
        assert tuple(phase) == WORKER_PHASES
        assert phase["log_append"] > 0.0 and phase["snapshot"] > 0.0
        parts = STORE_STEPS[1:]
        assert all(phase[part] > 0.0 for part in parts)
        assert sum(phase[part] for part in parts) <= phase["snapshot"]

    def test_dispatch_steps_sum_to_the_measured_dispatch_time(self, tmp_path):
        services = _build(_recipe(tmp_path, with_master=True))
        before = dict(services[0].phase)
        bodies = [
            (rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(_messages(seed, count=80)))
            if seed % 3
            else (rpc.OP_QUERY_BATCH, rpc.encode_query_batch(_queries(seed, count=24)))
            for seed in range(SNAPSHOT_EVERY + 4)
        ]
        started = perf_counter()
        for request_id, (opcode, body) in enumerate(bodies, 10):
            dispatch_request(services, 0, opcode, body, request_id)
        measured = perf_counter() - started
        steps = sum(services[0].phase[step] - before[step] for step in DISPATCH_PHASES)
        assert steps == pytest.approx(measured, rel=0.05)

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
            assert total["apply"] > 0.0 and total["log_append"] > 0.0
        finally:
            cluster.close()

    def test_a_metrics_reset_restarts_the_worker_timers(self, tmp_path):
        # The transport's timers and the workers' restart together, so
        # ``worker_phase`` stays the other side of ``blocked_wait_seconds``.
        with ScaleOutCluster.build(
            2, backend="disk", num_workers=2, num_objects=NUM_OBJECTS,
            storage_dir=str(tmp_path),
        ) as cluster:
            for seed in range(1, 4):
                cluster.submit_update_batch(_messages(seed))
            cluster.metrics()
            before = cluster.metrics_snapshot()["worker_phase"]
            assert before["snapshot"] > 0.0  # the build's snapshots
            cluster.reset_metrics()
            assert cluster.metrics_snapshot()["worker_phase"] is None
            cluster.metrics()
            after = cluster.metrics_snapshot()["worker_phase"]
            assert after["apply"] < before["apply"]
            assert after["snapshot"] < before["snapshot"]
