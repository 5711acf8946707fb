"""Tests for the emulated BigTable table."""

import pytest

from repro.bigtable.cost import OpKind
from repro.bigtable.table import ColumnFamily, Table
from repro.errors import ColumnFamilyError, RowNotFoundError


def make_table(**kwargs):
    families = kwargs.pop(
        "families",
        [
            ColumnFamily("mem", in_memory=True, max_versions=3),
            ColumnFamily("disk", in_memory=False, max_versions=10),
        ],
    )
    return Table("test", families, **kwargs)


class TestSchema:
    def test_table_requires_families(self):
        with pytest.raises(ColumnFamilyError):
            Table("empty", [])

    def test_duplicate_family_rejected(self):
        with pytest.raises(ColumnFamilyError):
            Table("dup", [ColumnFamily("a"), ColumnFamily("a")])

    def test_unknown_family_rejected_on_write(self):
        table = make_table()
        with pytest.raises(ColumnFamilyError):
            table.write("row", "nope", "q", 1, 0.0)

    def test_add_family(self):
        table = make_table()
        table.add_family(ColumnFamily("extra"))
        assert table.family("extra") == ColumnFamily("extra")
        with pytest.raises(ColumnFamilyError):
            table.add_family(ColumnFamily("extra"))


class TestPointOperations:
    def test_write_then_read_latest(self):
        table = make_table()
        table.write("row1", "mem", "q", "value", timestamp=1.0)
        assert table.read_latest("row1", "mem", "q") == "value"

    def test_read_missing_returns_none(self):
        table = make_table()
        assert table.read_latest("nope", "mem", "q") is None

    def test_versions_newest_first(self):
        table = make_table()
        table.write("row", "mem", "q", "old", timestamp=1.0)
        table.write("row", "mem", "q", "new", timestamp=2.0)
        versions = table.read_versions("row", "mem", "q")
        assert [cell.value for cell in versions] == ["new", "old"]

    def test_max_versions_enforced(self):
        table = make_table()
        for index in range(5):
            table.write("row", "mem", "q", index, timestamp=float(index))
        versions = table.read_versions("row", "mem", "q")
        assert len(versions) == 3
        assert versions[0].value == 4

    def test_out_of_order_timestamps_sorted(self):
        table = make_table()
        table.write("row", "mem", "q", "late", timestamp=5.0)
        table.write("row", "mem", "q", "early", timestamp=1.0)
        assert table.read_latest("row", "mem", "q") == "late"

    def test_delete_cell(self):
        table = make_table()
        table.write("row", "mem", "q", 1, 0.0)
        assert table.delete_cell("row", "mem", "q")
        assert not table.delete_cell("row", "mem", "q")
        assert table.read_latest("row", "mem", "q") is None

    def test_delete_last_cell_removes_row(self):
        table = make_table()
        table.write("row", "mem", "q", 1, 0.0)
        table.delete_cell("row", "mem", "q")
        assert table.row_count() == 0

    def test_delete_row(self):
        table = make_table()
        table.write("row", "mem", "a", 1, 0.0)
        table.write("row", "mem", "b", 2, 0.0)
        assert table.delete_row("row")
        assert table.row_count() == 0

    def test_read_row_returns_all_families(self):
        table = make_table()
        table.write("row", "mem", "a", 1, 0.0)
        table.write("row", "disk", "b", 2, 0.0)
        row = table.read_row("row")
        assert row["mem"]["a"][0].value == 1
        assert row["disk"]["b"][0].value == 2

    def test_read_row_missing_raises(self):
        table = make_table()
        with pytest.raises(RowNotFoundError):
            table.read_row("missing")


def ledgers(table):
    return [table.counter.snapshot()] + [t.counter.snapshot() for t in table.tablets()]


class TestReadLatestContract:
    """``read_latest`` returns the newest value itself (or ``None``) and
    charges one READ to the shared ledger and one to the owning tablet."""

    def charged_read(self, table, row_key, family="mem"):
        (tablet,) = table.tablets()
        before = table.counter.counts.get(OpKind.READ, 0), tablet.counter.counts.get(OpKind.READ, 0)
        value = table.read_latest(row_key, family, "q")
        after = table.counter.counts.get(OpKind.READ, 0), tablet.counter.counts.get(OpKind.READ, 0)
        assert after == (before[0] + 1, before[1] + 1)
        return value

    def test_memtable_hit(self):
        table = make_table()
        table.write("row", "mem", "q", ("x", 1), 1.0)
        table.write("row", "mem", "q", ("x", 2), 2.0)
        assert self.charged_read(table, "row") == ("x", 2)

    def test_run_resident_row(self):
        table = make_table()
        table.write("row", "mem", "q", "flushed", 1.0)
        table.flush_memtables()
        (tablet,) = table.tablets()
        assert len(tablet.rows) == 0 and table.run_count() == 1
        assert self.charged_read(table, "row") == "flushed"

    def test_memtable_tombstone_shadows_the_run_row(self):
        table = make_table()
        table.write("row", "mem", "q", "flushed", 1.0)
        table.flush_memtables()
        assert table.delete_row("row")
        (tablet,) = table.tablets()
        assert len(tablet.rows) == 1 and table.run_count() == 1
        assert self.charged_read(table, "row") is None

    def test_absent_cell_of_a_live_row(self):
        table = make_table()
        table.write("row", "disk", "q", "elsewhere", 1.0)
        assert self.charged_read(table, "row") is None

    def test_uncharged_read_charges_nothing(self):
        table = make_table()
        table.write("row", "mem", "q", "v", 1.0)
        before = ledgers(table)
        assert table.read_latest("row", "mem", "q", _charge=False) == "v"
        assert table.read_latest("nope", "mem", "q", _charge=False) is None
        assert ledgers(table) == before

    def test_unknown_family_raises_before_charging(self):
        table = make_table()
        table.write("row", "mem", "q", "v", 1.0)
        before = ledgers(table)
        with pytest.raises(ColumnFamilyError):
            table.read_latest("row", "nope", "q")
        assert ledgers(table) == before


class TestScansAndBatches:
    def test_scan_returns_rows_in_key_order(self):
        table = make_table()
        for key in ["c", "a", "b"]:
            table.write(key, "mem", "q", key, 0.0)
        keys = [row_key for row_key, _ in table.scan()]
        assert keys == ["a", "b", "c"]

    def test_scan_range(self):
        table = make_table()
        for key in ["a", "b", "c", "d"]:
            table.write(key, "mem", "q", key, 0.0)
        keys = [row_key for row_key, _ in table.scan("b", "d")]
        assert keys == ["b", "c"]

    def test_scan_keys(self):
        table = make_table()
        table.write("a", "mem", "q", 1, 0.0)
        table.write("b", "mem", "q", 2, 0.0)
        assert table.scan_keys() == ["a", "b"]

    def test_count_range(self):
        table = make_table()
        for key in ["a", "b", "c"]:
            table.write(key, "mem", "q", key, 0.0)
        assert table.count_range("a", "c") == 2

    def test_batch_read(self):
        table = make_table()
        table.write("a", "mem", "q", 1, 0.0)
        table.write("b", "mem", "q", 2, 0.0)
        result = table.batch_read(["a", "b", "missing"])
        assert set(result) == {"a", "b"}

    def test_batch_write(self):
        table = make_table()
        table.batch_write(
            [("a", "mem", "q", 1, 0.0), ("b", "mem", "q", 2, 0.0)]
        )
        assert table.row_count() == 2

    def test_batch_delete(self):
        table = make_table()
        table.write("a", "mem", "q", 1, 0.0)
        table.write("b", "mem", "q", 2, 0.0)
        table.batch_delete([("a", "mem", "q")])
        assert table.row_count() == 1


class TestCostAccounting:
    def test_point_ops_charged(self):
        table = make_table()
        table.write("a", "mem", "q", 1, 0.0)
        table.read_latest("a", "mem", "q")
        table.delete_cell("a", "mem", "q")
        assert table.counter.counts.get(OpKind.WRITE, 0) == 1
        assert table.counter.counts.get(OpKind.READ, 0) == 1
        assert table.counter.counts.get(OpKind.DELETE, 0) == 1

    def test_scan_charged_per_row(self):
        table = make_table()
        for key in ["a", "b", "c"]:
            table.write(key, "mem", "q", key, 0.0)
        table.scan()
        assert table.counter.rows.get(OpKind.SCAN, 0) == 3

    def test_batch_cheaper_than_points(self):
        batch_table = make_table()
        point_table = make_table()
        mutations = [(f"k{i}", "mem", "q", i, 0.0) for i in range(20)]
        batch_table.batch_write(mutations)
        for key, family, qualifier, value, ts in mutations:
            point_table.write(key, family, qualifier, value, ts)
        assert (
            batch_table.counter.simulated_seconds
            < point_table.counter.simulated_seconds
        )

    def test_uncharged_helpers_do_not_touch_counter(self):
        table = make_table()
        table.write("a", "mem", "q", 1, 0.0)
        before = table.counter.total_calls()
        table.row_count()
        table.all_keys()
        assert table.counter.total_calls() == before


class TestAging:
    def test_age_out_moves_old_cells(self):
        table = make_table()
        table.write("row", "mem", "q", "old", timestamp=1.0)
        table.write("row", "mem", "q", "new", timestamp=10.0)
        moved = table.age_out("mem", "disk", cutoff_timestamp=5.0)
        assert moved == 1
        assert [c.value for c in table.read_versions("row", "mem", "q")] == ["new"]
        assert [c.value for c in table.read_versions("row", "disk", "q")] == ["old"]

    def test_age_out_nothing_to_move(self):
        table = make_table()
        table.write("row", "mem", "q", "new", timestamp=10.0)
        assert table.age_out("mem", "disk", cutoff_timestamp=5.0) == 0
