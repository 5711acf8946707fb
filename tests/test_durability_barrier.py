"""Durability is owed at the acknowledgement: one fsync barrier per request.

Machine-independent counts (``os.fsync`` wrapped) of what the disk store
pays, and when: outside a barrier every commit point is one ``write`` + one
``fsync`` as ever; inside one the commits only mark their store as owing,
and the outermost close pays once per store still in debt — none for a
store whose checkpoint absorbed the records in the same request.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.bigtable.cost import OpCounter
from repro.bigtable.emulator import BigtableEmulator
from repro.bigtable.table import ColumnFamily
from repro.bigtable.tablet import TabletOptions
from repro.disk.store import DiskTableStore, restore_table
from repro.server.scaleout import ScaleOutCluster

FAMILIES = [ColumnFamily("mem", max_versions=3)]


@pytest.fixture
def fsyncs(monkeypatch):
    """Every real fsync as ``(calling function, its caller)``."""
    calls = []
    real = os.fsync

    def counting(fd):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


@pytest.fixture
def disk_emulator(tmp_path):
    """A factory of emulators persisting under ``tmp_path``; every store is
    closed at teardown."""
    made = []

    def make(**options):
        made.append(
            BigtableEmulator(
                tablet_options=TabletOptions(**options), storage_dir=str(tmp_path)
            )
        )
        return made[-1]

    yield make
    for emulator in made:
        for name in emulator.table_names():
            emulator.table(name)._store.close()


def _journal_size(store: DiskTableStore) -> int:
    return os.path.getsize(os.path.join(store.root, "journal.bin"))


def test_federation_disk_build_pays_checkpoints_and_barrier_closes_only(
    tmp_path, fsyncs
):
    """The 8-shard ``federation_disk`` recipe set: 9 120 fsyncs before the
    barrier (3 per preloaded object), 144 with it."""
    cluster = ScaleOutCluster.build(
        8,
        backend="inprocess",
        num_servers=2,
        num_objects=3000,
        seed=59,
        storage_dir=str(tmp_path),
        tablet_options=TabletOptions(memtable_flush_rows=128, compaction_max_runs=4),
    )
    try:
        assert 0 < len(fsyncs) <= 200
        assert {site for site, _ in fsyncs} == {
            "checkpoint", "_ensure_run_file", "journal_sync",
        }
        assert all(
            caller == "settle" for site, caller in fsyncs if site == "journal_sync"
        )
    finally:
        cluster.close()  # a no-op in-process: close the stores by hand
        for service in cluster.backend.transport.services:
            emulator = service.indexer.emulator
            for name in emulator.table_names():
                emulator.table(name)._store.close()


def test_abandoned_barrier_leaves_the_journal_untouched(disk_emulator):
    emulator = disk_emulator()
    table = emulator.create_table("t", FAMILIES)
    store = table._store
    table.write("k1", "mem", "q", "acked", 1.0)
    acked = table.scan()
    size = _journal_size(store)
    assert size == store.journal_bytes > 0

    barrier = emulator.durability_barrier()
    barrier.__enter__()  # the request the process dies in: never closed
    with table.group_commit():
        table.write("k1", "mem", "q", "lost", 2.0)
        table.write("k2", "mem", "q", "lost", 2.0)
    table.delete_row("k1")
    assert _journal_size(store) == size and store.journal_syncs == 1
    assert table.scan() != acked

    restored = restore_table(
        DiskTableStore(store.root), "t", FAMILIES, OpCounter()
    )
    assert restored.scan() == acked
    restored._store.close()


def test_checkpoint_in_the_same_request_cancels_the_debt(disk_emulator, fsyncs):
    emulator = disk_emulator()
    table = emulator.create_table("t", FAMILIES)
    other = emulator.create_table("u", FAMILIES)
    del fsyncs[:]
    with emulator.durability_barrier():
        with table.group_commit():
            table.write("k1", "mem", "q", "a", 1.0)
            table.write("k2", "mem", "q", "b", 1.0)
        other.write("k1", "mem", "q", "c", 1.0)
        assert table._store._owed and other._store._owed
        table.flush_memtables()
        assert not table._store._owed
    # The flush's checkpoint owns t's records; only u was still in debt.
    assert table._store.journal_syncs == 0 and _journal_size(table._store) == 0
    assert other._store.journal_syncs == 1
    assert [site for site, _ in fsyncs].count("journal_sync") == 1
    restored = restore_table(
        DiskTableStore(table._store.root), "t", FAMILIES, OpCounter()
    )
    assert restored.scan() == table.scan()
    restored._store.close()


def test_nested_barriers_sync_once_at_the_outermost_close(disk_emulator):
    emulator = disk_emulator()
    table = emulator.create_table("t", FAMILIES)
    store = table._store
    with emulator.durability_barrier():
        with emulator.durability_barrier():
            table.write("k1", "mem", "q", "a", 1.0)
        assert emulator.barrier_open  # the inner exit closed nothing
        table.write("k2", "mem", "q", "b", 2.0)
        assert store.journal_syncs == 0 and _journal_size(store) == 0
    assert store.journal_syncs == 1
    assert [record[2] for record in store.read_journal()] == ["k1", "k2"]

    with pytest.raises(RuntimeError, match="mid-request"):
        with emulator.durability_barrier():
            table.write("k3", "mem", "q", "c", 3.0)
            raise RuntimeError("mid-request")
    assert not emulator.barrier_open
    assert store.journal_syncs == 2 and not store._owed
    # ... and the store is back to paying at every commit point.
    table.write("k4", "mem", "q", "d", 4.0)
    assert store.journal_syncs == 3


def test_outside_a_barrier_every_commit_point_is_one_fsync(disk_emulator, fsyncs):
    emulator = disk_emulator()
    table = emulator.create_table("t", FAMILIES)
    del fsyncs[:]
    for index in range(10):
        table.write(f"k{index}", "mem", "q", index, float(index))
    table.delete_cell("k0", "mem", "q")
    with table.group_commit():
        table.write("k1", "mem", "q", "x", 20.0)
        table.write("k2", "mem", "q", "y", 20.0)
    assert table._store.journal_syncs == 12
    assert fsyncs == [("journal_sync", "journal_commit")] * 12


def test_a_barrier_without_storage_touches_nothing():
    emulator = BigtableEmulator()
    table = emulator.create_table("t", FAMILIES)
    with emulator.durability_barrier():
        table.write("k1", "mem", "q", "a", 1.0)
    assert not emulator.barrier_open and table._store is None


def test_a_failed_run_delete_is_retried_by_the_next_checkpoint(
    disk_emulator, monkeypatch
):
    emulator = disk_emulator(compaction_max_runs=8)
    table = emulator.create_table("t", FAMILIES)
    store = table._store
    for index in range(2):
        table.write(f"k{index}", "mem", "q", index, float(index))
        table.flush_memtables()
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
    table.compact_runs(major=True)  # retires both runs; one delete fails
    leaked = [run_id for run_id in doomed if run_id in store._persisted]
    assert len(leaked) == 1 and os.path.exists(failures[0])
    table.write("k9", "mem", "q", 9, 9.0)
    table.flush_memtables()  # the next checkpoint collects it
    assert not doomed & set(store._persisted)
    assert not os.path.exists(failures[0])
    assert sorted(os.listdir(os.path.join(store.root, "runs"))) == sorted(
        store._persisted.values()
    )
