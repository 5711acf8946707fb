"""Tombstone correctness: deleted rows must never resurrect.

The failure mode under test is the classic LSM bug: a row's newest live
version sits in an old SSTable run, the delete lands in the memtable (or a
newer run), and some sequence of flushes, compactions, splits or merges
drops the tombstone while the old version survives — the row comes back
from the dead.  Every test drives a delete through a different
flush/compact/split/merge interleaving and asserts the row stays gone on
every read path (point reads, scans, batch reads, NN search)."""

import pytest

from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions
from repro.errors import RowNotFoundError
from repro.experiments.common import uniform_leader_indexer
from repro.geometry.point import Point


def make_table(**overrides):
    defaults = dict(
        split_threshold=16,
        merge_threshold=6,
        memtable_flush_rows=1024,
        compaction_max_runs=8,
    )
    defaults.update(overrides)
    return Table("t", [ColumnFamily("f")], options=TabletOptions(**defaults))


def fill(table, count, base=0, prefix="k"):
    for index in range(count):
        table.write(f"{prefix}{index:04d}", "f", "q", base + index, float(index))


def assert_gone(table, key):
    assert table.read_latest(key, "f", "q", _charge=False) is None
    with pytest.raises(RowNotFoundError):
        table.read_row(key, _charge=False)
    assert key not in table.all_keys()
    assert key not in dict(table.scan())
    assert key not in table.batch_read([key])


class TestDeleteFlushCompactScan:
    def test_delete_then_flush_then_scan(self):
        table = make_table()
        fill(table, 10)
        table.flush_memtables()          # k0003's live version is run-resident
        table.delete_row("k0003")        # tombstone in the memtable
        assert_gone(table, "k0003")
        table.flush_memtables()          # tombstone flushes into a newer run
        assert_gone(table, "k0003")

    def test_delete_flush_compact_never_resurrects(self):
        table = make_table()
        fill(table, 10)
        table.flush_memtables()
        table.delete_row("k0003")
        table.flush_memtables()
        table.compact_runs()             # size-tiered pass
        assert_gone(table, "k0003")
        table.compact_runs(major=True)   # tombstone GC
        assert_gone(table, "k0003")
        assert table.run_count() <= table.tablet_count()

    def test_major_compaction_garbage_collects_the_tombstone_itself(self):
        table = make_table()
        fill(table, 6)
        table.flush_memtables()
        table.delete_row("k0002")
        table.flush_memtables()
        table.compact_runs(major=True)
        (tablet,) = table.tablets()
        for run in tablet.runs:
            assert "k0002" not in run.columns()[0]  # neither value nor tombstone
        assert_gone(table, "k0002")
        assert table.row_count() == 5

    def test_cell_delete_emptying_a_flushed_row_tombstones_it(self):
        table = make_table()
        fill(table, 6)
        table.flush_memtables()
        assert table.delete_cell("k0004", "f", "q") is True
        assert_gone(table, "k0004")
        table.flush_memtables()
        table.compact_runs(major=True)
        assert_gone(table, "k0004")

    def test_rewrite_after_delete_is_a_fresh_row(self):
        table = make_table()
        fill(table, 6)
        table.flush_memtables()
        table.delete_row("k0001")
        table.write("k0001", "f", "q", 777, 99.0)
        assert table.read_latest("k0001", "f", "q", _charge=False) == 777
        versions = table.read_versions("k0001", "f", "q", _charge=False)
        assert [c.value for c in versions] == [777]  # old versions stay dead
        table.flush_memtables()
        table.compact_runs(major=True)
        assert [
            c.value
            for c in table.read_versions("k0001", "f", "q", _charge=False)
        ] == [777]


class TestAcrossSplitAndMerge:
    def test_tombstone_survives_a_tablet_split(self):
        table = make_table(split_threshold=8, memtable_flush_rows=1024)
        fill(table, 6)
        table.flush_memtables()
        table.delete_row("k0004")        # tombstone over a run-resident row
        fill(table, 20, base=100, prefix="m")  # grows past the split threshold
        assert table.tablet_count() >= 2
        assert_gone(table, "k0004")
        table.flush_memtables()
        table.compact_runs(major=True)
        assert_gone(table, "k0004")

    def test_tombstone_survives_a_tablet_merge(self):
        table = make_table(split_threshold=8, merge_threshold=6)
        fill(table, 12)
        table.flush_memtables()
        assert table.tablet_count() >= 2
        table.delete_row("k0005")
        assert_gone(table, "k0005")
        # Drain both tablets until they merge back together.
        for index in range(12):
            if index not in (0, 5, 11):
                table.delete_row(f"k{index:04d}")
        assert_gone(table, "k0005")
        table.flush_memtables()
        table.compact_runs(major=True)
        assert_gone(table, "k0005")
        assert set(table.all_keys()) == {"k0000", "k0011"}

    def test_row_counts_stay_consistent_through_the_lifecycle(self):
        table = make_table(memtable_flush_rows=8, compaction_max_runs=3)
        fill(table, 40)
        for index in range(0, 40, 4):
            table.delete_row(f"k{index:04d}")
        expected = {f"k{i:04d}" for i in range(40) if i % 4 != 0}
        assert table.row_count() == len(expected)
        assert set(table.all_keys()) == expected
        table.flush_memtables()
        table.compact_runs(major=True)
        assert table.row_count() == len(expected)
        assert set(table.all_keys()) == expected


class TestNeverResurrectThroughNN:
    def test_deleted_object_never_returns_from_nn_search(self):
        options = TabletOptions(memtable_flush_rows=64, compaction_max_runs=4)
        indexer = uniform_leader_indexer(300, seed=11, tablet_options=options)
        victim = indexer.nearest_neighbors(Point(500.0, 500.0), k=1)[0]
        # Remove the victim from all three tables the way the schema stores it.
        spatial = indexer.spatial_table
        record = indexer.location_table.latest(victim.object_id)
        spatial.remove(victim.object_id, record.location)
        indexer.location_table.table.delete_row(victim.object_id)

        def ids(k=20):
            return {
                n.object_id
                for n in indexer.nearest_neighbors(
                    Point(500.0, 500.0), k, range_limit=400.0
                )
            }

        emulator = indexer.emulator
        tables = [emulator.table(name) for name in emulator.table_names()]
        assert victim.object_id not in ids()
        for table in tables:
            table.flush_memtables()
        assert victim.object_id not in ids()
        for table in tables:
            table.compact_runs()
        assert victim.object_id not in ids()
        for table in tables:
            table.compact_runs(major=True)
        assert victim.object_id not in ids()
        report = indexer.emulator.recover()
        assert report.tables  # the LSM plane actually ran
        assert victim.object_id not in ids()
