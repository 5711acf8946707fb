"""Tests for the multi-table emulator."""

import pytest

from repro.bigtable.cost import CostModel
from repro.bigtable.emulator import BigtableEmulator
from repro.bigtable.table import ColumnFamily
from repro.errors import StorageError, TableNotFoundError


class TestTableManagement:
    def test_create_and_lookup(self):
        emulator = BigtableEmulator()
        table = emulator.create_table("t1", [ColumnFamily("f")])
        assert emulator.table("t1") is table
        assert emulator.table_names() == ["t1"]

    def test_duplicate_table_rejected(self):
        emulator = BigtableEmulator()
        emulator.create_table("t1", [ColumnFamily("f")])
        with pytest.raises(StorageError):
            emulator.create_table("t1", [ColumnFamily("f")])

    def test_missing_table_raises(self):
        emulator = BigtableEmulator()
        with pytest.raises(TableNotFoundError):
            emulator.table("missing")

    def test_table_names_sorted(self):
        emulator = BigtableEmulator()
        emulator.create_table("zz", [ColumnFamily("f")])
        emulator.create_table("aa", [ColumnFamily("f")])
        assert emulator.table_names() == ["aa", "zz"]


class TestSharedAccounting:
    def test_tables_share_the_counter(self):
        emulator = BigtableEmulator()
        t1 = emulator.create_table("t1", [ColumnFamily("f")])
        t2 = emulator.create_table("t2", [ColumnFamily("f")])
        t1.write("r", "f", "q", 1, 0.0)
        t2.write("r", "f", "q", 2, 0.0)
        assert emulator.counter.total_calls() == 2
        assert emulator.simulated_seconds > 0

    def test_reset_counters(self):
        emulator = BigtableEmulator()
        table = emulator.create_table("t1", [ColumnFamily("f")])
        table.write("r", "f", "q", 1, 0.0)
        emulator.reset_counters()
        assert emulator.simulated_seconds == 0.0

    def test_custom_cost_model_applied(self):
        expensive = BigtableEmulator(cost_model=CostModel(write_rpc=1.0))
        cheap = BigtableEmulator()
        expensive.create_table("t", [ColumnFamily("f")]).write("r", "f", "q", 1, 0.0)
        cheap.create_table("t", [ColumnFamily("f")]).write("r", "f", "q", 1, 0.0)
        assert expensive.simulated_seconds > cheap.simulated_seconds
