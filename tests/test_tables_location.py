"""Tests for the Location Table wrapper."""

import pytest

from repro.bigtable.emulator import BigtableEmulator
from repro.errors import SchemaError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord
from repro.tables.location_table import LocationTable


def record(x=1.0, y=2.0, t=0.0, vx=0.5, vy=0.0):
    return LocationRecord(Point(x, y), Vector(vx, vy), t)


@pytest.fixture
def table():
    return LocationTable(BigtableEmulator(), memory_records=3, disk_columns=2)


class TestConfiguration:
    def test_invalid_memory_records(self):
        with pytest.raises(SchemaError):
            LocationTable(BigtableEmulator(), memory_records=0)

    def test_invalid_disk_columns(self):
        with pytest.raises(SchemaError):
            LocationTable(BigtableEmulator(), disk_columns=0)

    def test_disk_family_names(self):
        assert LocationTable.disk_family(0) == "aged-0"
        assert LocationTable.disk_family(3) == "aged-3"


class TestReadsAndWrites:
    def test_latest_of_unknown_object_is_none(self, table):
        assert table.latest("nope") is None

    def test_add_and_read_latest(self, table):
        table.add_record("obj1", record(t=1.0))
        table.add_record("obj1", record(x=5.0, t=2.0))
        latest = table.latest("obj1")
        assert latest.timestamp == 2.0
        assert latest.location == Point(5.0, 2.0)

    def test_recent_history_newest_first(self, table):
        for t in (1.0, 2.0, 3.0):
            table.add_record("obj1", record(t=t))
        history = table.recent_history("obj1")
        assert [r.timestamp for r in history] == [3.0, 2.0, 1.0]

    def test_memory_records_bound_respected(self, table):
        for t in range(6):
            table.add_record("obj1", record(t=float(t)))
        assert len(table.recent_history("obj1")) == 3

    def test_batch_add_and_batch_latest(self, table):
        table.batch_add([("a", record(t=1.0)), ("b", record(t=2.0))])
        latest = table.batch_latest(["a", "b", "missing"])
        assert set(latest) == {"a", "b"}
        assert latest["b"].timestamp == 2.0

    def test_object_count(self, table):
        table.add_record("a", record())
        table.add_record("b", record())
        assert table.object_count() == 2


class TestAging:
    def test_age_out_moves_old_records_to_disk(self, table):
        table.add_record("obj1", record(t=1.0))
        table.add_record("obj1", record(t=100.0))
        moved = table.age_out(cutoff_timestamp=50.0)
        assert moved == 1
        assert len(table.recent_history("obj1")) == 1
        aged = table.aged_history("obj1")
        assert len(aged) == 1
        assert aged[0].timestamp == 1.0

    def test_full_history_merges_tiers(self, table):
        table.add_record("obj1", record(t=1.0))
        table.add_record("obj1", record(t=100.0))
        table.age_out(cutoff_timestamp=50.0)
        full = table.full_history("obj1")
        assert [r.timestamp for r in full] == [100.0, 1.0]

    def test_aged_history_of_unknown_object_is_empty(self, table):
        assert table.aged_history("missing") == []

    def test_drain_aged_returns_and_removes(self, table):
        table.add_record("obj1", record(t=1.0))
        table.add_record("obj1", record(t=100.0))
        table.age_out(cutoff_timestamp=50.0)
        drained = table.drain_aged(0, cutoff_timestamp=50.0)
        assert len(drained) == 1
        object_id, rec = drained[0]
        assert object_id == "obj1"
        assert rec.timestamp == 1.0
        assert table.aged_history("obj1") == []

    def test_drain_aged_keeps_fresh_disk_records(self, table):
        table.add_record("obj1", record(t=1.0))
        table.add_record("obj1", record(t=40.0))
        table.add_record("obj1", record(t=100.0))
        table.age_out(cutoff_timestamp=50.0)  # moves t=1 and t=40 to disk
        drained = table.drain_aged(0, cutoff_timestamp=10.0)  # only t=1 drained
        assert [r.timestamp for _, r in drained] == [1.0]
        assert [r.timestamp for r in table.aged_history("obj1")] == [40.0]
