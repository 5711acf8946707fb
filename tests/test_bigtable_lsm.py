"""Tests for the LSM primitives: commit-log counts, SSTables, flush,
compaction, merged reads and the durability ledger."""

import hashlib
import os
import random
import struct

import pytest

from repro.bigtable.cost import CostModel, OpCounter, OpKind
from repro.bigtable.lsm import MEMTABLE_SOURCE, TOMBSTONE, SSTable
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions
from repro.codec.blocks import decode_snapshot
from repro.codec.values import pack_value
from repro.disk.store import ShardStore
from repro.errors import ConfigurationError
from repro.geometry.point import Point

from helpers import log_record_count

LSM = TabletOptions(
    split_threshold=16,
    merge_threshold=6,
    group_commit_size=8,
    memtable_flush_rows=8,
    compaction_max_runs=3,
)


def make_table(options=LSM, name="t"):
    return Table(name, [ColumnFamily("f", max_versions=2)], options=options)


def fill(table, count, prefix="k", base=0):
    for index in range(count):
        table.write(f"{prefix}{index:04d}", "f", "q", base + index, float(index))


def run_version(run, key):
    """The run's own version of ``key`` (row or TOMBSTONE), or ``None``."""
    return dict(zip(*run.columns())).get(key)


def latest_values(table):
    return {
        key: row["f"]["q"][0].value
        for key, row in table.scan()
        if row.get("f", {}).get("q")
    }


class TestSSTable:
    def run(self):
        keys = [f"k{i:02d}" for i in range(10)]
        return SSTable("run-0", keys, list(range(10)), max_seqno=10)

    def test_get_and_range_metadata(self):
        run = self.run()
        assert len(run) == 10
        assert run.min_key == "k00" and run.max_key == "k09"
        assert run_version(run, "k03") == 3
        assert run_version(run, "absent") is None

    def test_columns_cover_the_slice_only(self):
        run = self.run()
        assert run.slice("k02", "k05").columns() == (["k02", "k03", "k04"], [2, 3, 4])
        assert run.columns() == ([f"k{i:02d}" for i in range(10)], list(range(10)))

    def test_slice_shares_arrays_and_id(self):
        run = self.run()
        left = run.slice(None, "k05")
        right = run.slice("k05", None)
        assert len(left) == 5 and len(right) == 5
        assert left.run_id == right.run_id == run.run_id
        assert run_version(left, "k04") == 4 and run_version(left, "k07") is None
        assert run_version(right, "k07") == 7 and run_version(right, "k04") is None

    def test_coalesce_rejoins_adjacent_slices(self):
        run = self.run()
        left = run.slice(None, "k05")
        right = run.slice("k05", None)
        rejoined = left.try_coalesce(right)
        assert rejoined is not None and len(rejoined) == 10
        assert run_version(rejoined, "k00") == 0 and run_version(rejoined, "k09") == 9

    def test_coalesce_refuses_disjoint_or_foreign(self):
        run = self.run()
        other = SSTable("run-1", ["z1"], [1], max_seqno=11)
        assert run.slice(None, "k03").try_coalesce(run.slice("k05", None)) is None
        assert run.try_coalesce(other) is None


def tablet_ranges(table):
    """``(tablet, end key or None)`` in key order."""
    tablets = table.tablets()
    ends = [tablet.start_key for tablet in tablets[1:]] + [None]
    return list(zip(tablets, ends))


def assert_counts_partitioned(table, expected):
    """Each tablet counts only keys of its own range, its total is the sum
    of its counts, and together they are ``expected``."""
    joined = {}
    for tablet, end in tablet_ranges(table):
        for key in tablet.log_counts:
            assert key >= tablet.start_key and (end is None or key < end)
        assert tablet.log_records == sum(tablet.log_counts.values())
        joined.update(tablet.log_counts)
    assert joined == {key: n for key, n in expected.items() if n}


class TestCommitLogCounts:
    """The commit log is a ``row key -> records since flush`` map per tablet
    plus its total; splits partition it by key and merges join it."""

    OPTIONS = TabletOptions(split_threshold=8, merge_threshold=4)

    def test_every_logged_mutation_counts_one_record(self):
        table = make_table(self.OPTIONS)
        table.write("a", "f", "q", 1, 1.0)
        table.write("a", "f", "q", 2, 2.0)
        assert table.delete_cell("b", "f", "q") is False  # absent: not logged
        assert table.delete_row("b") is False
        table.write("b", "f", "q", 3, 3.0)
        assert table.delete_cell("b", "f", "q") is True
        table.write("c", "f", "q", 4, 4.0)
        assert table.delete_row("c") is True
        table.batch_write([("d", "f", "q", 5, 5.0), ("a", "f", "q", 6, 6.0)])
        table.batch_delete([("d", "f", "q"), ("e", "f", "q")])
        table.add_family(ColumnFamily("g"))
        assert table.age_out("f", "g", 6.0) == 1  # a's older version
        assert_counts_partitioned(table, {"a": 4, "b": 2, "c": 2, "d": 2})
        assert table.counter.logical_write_rows == 10

    def test_flush_truncates_the_counts_even_when_nothing_is_written(self):
        table = make_table(self.OPTIONS)
        table.write("a", "f", "q", 1, 1.0)
        table.delete_row("a")  # the memtable is empty again
        assert log_record_count(table) == 2
        assert table.flush_memtables() == 0
        assert log_record_count(table) == 0
        (tablet,) = table.tablets()
        assert tablet.log_counts == {}

    @pytest.mark.parametrize("seed", range(8))
    def test_splits_and_merges_partition_the_counts_by_key(self, seed):
        rng = random.Random(seed)
        table = make_table(self.OPTIONS)
        expected = {}
        for step in range(rng.randrange(40, 160)):
            key = f"k{rng.randrange(30):02d}"
            if rng.random() < 0.7:
                table.write(key, "f", "q", step, float(step))
                logged = True
            else:
                logged = table.delete_row(key)
            expected[key] = expected.get(key, 0) + logged
            assert_counts_partitioned(table, expected)
        assert table._tablets.splits >= 1
        assert log_record_count(table) == sum(expected.values())


class TestFlushAndMergedReads:
    def test_flush_moves_rows_into_a_run(self):
        table = make_table()
        fill(table, 5)
        flushed = table.flush_memtables()
        assert flushed == 5
        (tablet,) = table.tablets()
        assert len(tablet.rows) == 0
        assert table.run_count() == 1
        assert log_record_count(table) == 0  # flush truncates the log
        # Reads span the run transparently.
        assert table.row_count() == 5
        assert table.read_latest("k0003", "f", "q") == 3
        assert latest_values(table) == {f"k{i:04d}": i for i in range(5)}

    def test_overwrite_pulls_row_back_into_memtable(self):
        table = make_table()
        fill(table, 5)
        table.flush_memtables()
        table.write("k0002", "f", "q", 99, 10.0)
        (tablet,) = table.tablets()
        assert len(tablet.rows) == 1  # only the overwritten row came back
        assert table.read_latest("k0002", "f", "q") == 99
        assert table.row_count() == 5
        # The run's frozen copy is shadowed, not modified: read through the
        # run alone it still holds the flushed value.
        assert run_version(tablet.runs[0], "k0002")["f"]["q"] == (2.0, 2)
        assert tablet.rows.get("k0002") is not run_version(tablet.runs[0], "k0002")

    def test_auto_flush_and_compaction_keep_run_count_tiered(self):
        table = make_table()
        fill(table, 120)
        assert table.run_count() <= 3 * table.tablet_count()
        assert latest_values(table) == {f"k{i:04d}": i for i in range(120)}

    def test_major_compaction_collapses_to_one_run_per_tablet(self):
        table = make_table()
        fill(table, 40)
        table.flush_memtables()
        table.compact_runs(major=True)
        for tablet in table.tablets():
            assert len(tablet.runs) <= 1
        assert latest_values(table) == {f"k{i:04d}": i for i in range(40)}

    def test_point_reads_prefer_newest_version_across_runs(self):
        table = make_table(
            TabletOptions(memtable_flush_rows=4, compaction_max_runs=10)
        )
        for round_base in (0, 100, 200):
            fill(table, 4, base=round_base)
            table.flush_memtables()
        assert table.run_count() >= 3
        for index in range(4):
            assert table.read_latest(f"k{index:04d}", "f", "q") == 200 + index


class TestDurabilityLedger:
    def test_log_appends_charge_only_the_durability_ledger(self):
        table = make_table(TabletOptions())
        before = table.counter.snapshot()
        fill(table, 10)
        delta = table.counter.snapshot().delta(before)
        assert delta.durability_rows.get(OpKind.LOG_APPEND) == 10
        assert delta.durability_seconds > 0.0
        # The paper-facing ledger never sees durability kinds.
        assert OpKind.LOG_APPEND not in delta.counts
        assert delta.simulated_seconds == pytest.approx(
            delta.read_seconds + delta.write_seconds
        )

    def test_group_commit_batches_log_fsyncs(self):
        grouped = make_table(TabletOptions())
        with grouped.group_commit():
            fill(grouped, 10)
        solo = make_table(TabletOptions())
        fill(solo, 10)
        # Same records durably logged, far fewer fsyncs.
        assert grouped.counter.durability_rows.get(OpKind.LOG_APPEND, 0) == 10
        assert solo.counter.durability_count(OpKind.LOG_APPEND) == 10
        assert (
            grouped.counter.durability_count(OpKind.LOG_APPEND)
            < solo.counter.durability_count(OpKind.LOG_APPEND)
        )
        assert (
            grouped.counter.durability_seconds < solo.counter.durability_seconds
        )

    def test_record_durability_rejects_standard_kinds(self):
        counter = OpCounter(model=CostModel())
        with pytest.raises(ConfigurationError):
            counter.record_durability(OpKind.WRITE)
        with pytest.raises(ConfigurationError):
            counter.record(OpKind.LOG_APPEND)

    def test_write_amplification_tracks_flush_and_compaction(self):
        table = make_table(TabletOptions())
        fill(table, 20)
        assert table.counter.write_amplification() == pytest.approx(1.0)  # log only
        table.flush_memtables()
        assert table.counter.write_amplification() == pytest.approx(2.0)  # log + flush
        stats = table.tablet_stats()
        assert all(entry.write_amplification >= 1.0 for entry in stats)

    def test_noop_cell_delete_never_pulls_run_rows_back(self):
        table = make_table(
            TabletOptions(memtable_flush_rows=1024, compaction_max_runs=8)
        )
        fill(table, 10)
        table.flush_memtables()
        for index in range(10):
            assert table.delete_cell(f"k{index:04d}", "f", "absent") is False
        (tablet,) = table.tablets()
        assert len(tablet.rows) == 0  # misses copied nothing into the memtable
        assert log_record_count(table) == 0


class TestSplitMergeWithRuns:
    def test_split_slices_runs_and_partitions_log(self):
        table = make_table(
            TabletOptions(
                split_threshold=16,
                merge_threshold=4,
                memtable_flush_rows=64,
                compaction_max_runs=8,
            )
        )
        fill(table, 10)
        table.flush_memtables()
        fill(table, 30, base=1000)  # overwrites + growth forces a split
        assert table.tablet_count() >= 2
        total_run_rows = sum(
            len(run) for tablet in table.tablets() for run in tablet.runs
        )
        assert total_run_rows == 10  # sliced, not copied or lost
        assert latest_values(table) == {f"k{i:04d}": 1000 + i for i in range(30)}
        # Per-tablet log counts hold exactly their own key ranges.
        assert_counts_partitioned(table, dict.fromkeys(table.all_keys(), 1))

    def test_merge_reunites_run_slices(self):
        options = TabletOptions(
            split_threshold=8, merge_threshold=6, memtable_flush_rows=64
        )
        table = make_table(options)
        fill(table, 12)
        table.flush_memtables()
        assert table.tablet_count() >= 2
        # Delete most rows so the tablets shrink below the merge threshold.
        for index in range(12):
            if index not in (0, 11):
                table.delete_row(f"k{index:04d}")
        table.batch_delete([])  # no-op; merges ran on the delete path already
        if table.tablet_count() == 1:
            (tablet,) = table.tablets()
            # The parent run's two slices coalesced back into one view.
            run_ids = [run.run_id for run in tablet.runs]
            assert len(run_ids) == len(set(run_ids))
        assert set(table.all_keys()) == {"k0000", "k0011"}


class TestScannerCacheWithRuns:
    def test_scan_sources_blocks_by_run(self):
        table = make_table(
            TabletOptions(memtable_flush_rows=1024, compaction_max_runs=8)
        )
        fill(table, 12)
        table.flush_memtables()
        fill(table, 6, base=500)  # first half now memtable-resident
        before = table.counter.snapshot()
        table.scan()
        delta = table.counter.snapshot().delta(before)
        # One scan RPC; all rows cold on first touch.
        assert delta.counts[OpKind.SCAN] == 1
        assert delta.rows[OpKind.SCAN] == 12
        before = table.counter.snapshot()
        table.scan()
        delta = table.counter.snapshot().delta(before)
        # Second scan: warm blocks from both the memtable and the run.
        assert delta.rows.get(OpKind.CACHE_READ) == 12
        assert delta.rows.get(OpKind.SCAN, 0) == 0

    def test_flush_evicts_memtable_blocks(self):
        table = make_table(
            TabletOptions(memtable_flush_rows=1024, compaction_max_runs=8)
        )
        fill(table, 8)
        table.scan()  # warm the memtable blocks
        table.flush_memtables()
        before = table.counter.snapshot()
        table.scan()
        delta = table.counter.snapshot().delta(before)
        # Rows now come from the (cold) run: scanned, not cache-read.
        assert delta.rows[OpKind.SCAN] == 8
        assert delta.rows.get(OpKind.CACHE_READ, 0) == 0

    def test_compaction_evicts_consumed_run_blocks(self):
        table = make_table(
            TabletOptions(memtable_flush_rows=1024, compaction_max_runs=8)
        )
        fill(table, 8)
        table.flush_memtables()
        table.scan()  # warm the run's blocks
        table.compact_runs(major=True)
        before = table.counter.snapshot()
        table.scan()
        delta = table.counter.snapshot().delta(before)
        assert delta.rows[OpKind.SCAN] == 8
        assert delta.rows.get(OpKind.CACHE_READ, 0) == 0


class TestOptionsValidation:
    def test_new_knobs_validate(self):
        with pytest.raises(ConfigurationError):
            TabletOptions(memtable_flush_rows=0)
        with pytest.raises(ConfigurationError):
            TabletOptions(compaction_max_runs=0)
        assert TabletOptions(memtable_flush_rows=None).memtable_flush_rows is None

    def test_tombstone_repr_and_identity(self):
        assert repr(TOMBSTONE) == "<TOMBSTONE>"
        assert MEMTABLE_SOURCE == "mem"


def memtables(table):
    """Each tablet's memtable rows and commit-log counts."""
    return [
        (repr(list(tablet.rows.items())), dict(tablet.log_counts))
        for tablet in table.tablets()
    ]


class TestLogReplayAndDiskBytes:
    """What recovery and the disk store must keep exact: the recovered
    rows, the replay charge and the run files' bytes."""

    FAMILIES = [
        ColumnFamily("f", max_versions=3),
        ColumnFamily("g", in_memory=False, max_versions=0),
    ]

    def program(self, table):
        """Every opcode, versions in and out of order, a split, a group
        commit, a flush, then an unflushed tail over pulled-back rows."""
        for i in range(12):
            table.write(f"k{i:02d}", "f", "q", i, float(i))
        table.write("k03", "f", "q", "late", 1.0)
        table.write("k03", "f", "q", "tie", 3.0)
        table.write("k05", "g", "p", Point(1.5, -2.0), 7.0)
        table.delete_cell("k01", "f", "q")
        table.delete_row("k02")
        assert table._tablets.splits >= 1
        with table.group_commit():
            table.write("k07", "f", "extra", ("a", 1, None), 7.5)
            table.write("k08", "f", "q", 8.5, 8.5)
        table.flush_memtables()
        table.write("k04", "f", "q", "after", 20.0)
        table.delete_cell("k06", "f", "q")
        table.delete_row("k09")
        table.age_out("f", "g", 5.0)

    def test_crash_then_recover_rebuilds_identical_rows(self):
        options = TabletOptions(split_threshold=8, merge_threshold=2)
        table = Table("t", self.FAMILIES, options=options)
        self.program(table)
        before = table.scan()
        kept = memtables(table)
        # The tail after the flush: a write, a cell delete, a row delete,
        # then aging three rows (k04 was written twice).
        assert {key: n for _, counts in kept for key, n in counts.items()} == {
            "k00": 1, "k03": 1, "k04": 2, "k06": 1, "k09": 1,
        }
        report = table.recover()
        assert report.log_records_replayed == 6 == log_record_count(table)
        assert table.scan() == before
        assert memtables(table) == kept

    @staticmethod
    def digests(root):
        """sha256 per file; the snapshot stands in for its tables section
        (its generation and accounting sections are not the layout)."""
        found = {}
        for folder, _, names in os.walk(root):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as handle:
                    data = handle.read()
                if name == "SNAPSHOT.bin":
                    data = pack_value(decode_snapshot(data)["tables"])
                found[os.path.relpath(os.path.join(folder, name), root)] = (
                    hashlib.sha256(data).hexdigest()
                )
        return found

    #: sha256 of the run files the list-of-Cell rows wrote for
    #: :meth:`program`: no storage refactor since has moved a byte of them.
    #: ``TABLES`` pins the snapshot's tables section as format 2 writes it:
    #: each tablet's memtable block and count block.
    RUNS = {
        "runs/golden__tablet-0000__run-0000.run": "6641535fe2042fa6a98480ce8ae5167e2da5c2b435c7e65089edf422d4c7e6bb",
        "runs/golden__tablet-0001__run-0000.run": "66f4391ce70224a33f1f0af7d62d15476d43efef7f4335141f12e876ab32076f",
    }
    TABLES = "243153953bbb3a3ac16b2e356b09d2aced125030e823d22bdc5a71ce57681ad4"

    def test_store_files_match_the_parent_commits_bytes(self, tmp_path):
        root = str(tmp_path)
        store = ShardStore(root)
        options = TabletOptions(split_threshold=8, merge_threshold=2)
        table = Table("golden", self.FAMILIES, options=options)
        self.program(table)
        # Flushed runs on disk, the unflushed tail in the snapshot's
        # memtable blocks.
        store.snapshot({"golden": table}, None)
        digests = self.digests(root)
        assert digests.pop("requests.log") == hashlib.sha256(
            struct.pack("<Q", 1)
        ).hexdigest()
        assert digests == {**self.RUNS, "SNAPSHOT.bin": self.TABLES}
        snapshot = ShardStore(root).load()
        assert snapshot.frames == [] and snapshot.state is None
        restored = snapshot.restore_table("golden", self.FAMILIES, OpCounter())
        assert restored.scan() == table.scan()
        assert memtables(restored) == memtables(table)
