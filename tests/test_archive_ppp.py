"""Tests for the parallel ping-pong archiver."""

import pytest

from repro.archive.ppp import PPPArchiver
from repro.errors import ArchiveError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import HistoryRecord

WORLD = BoundingBox(0.0, 0.0, 100.0, 100.0)


def record(object_id, t, x=10.0, y=10.0):
    return HistoryRecord(object_id, Point(x, y), Vector(1.0, 0.0), t)


def make_archiver(**kwargs):
    defaults = dict(num_disks=4, page_records=4, world=WORLD)
    defaults.update(kwargs)
    return PPPArchiver(**defaults)


class TestConfiguration:
    def test_invalid_parameters(self):
        with pytest.raises(ArchiveError):
            make_archiver(num_disks=0)
        with pytest.raises(ArchiveError):
            make_archiver(page_records=0)
        with pytest.raises(ArchiveError):
            make_archiver(record_bytes=0)

    def test_buffer_bytes(self):
        archiver = make_archiver(num_disks=2, page_records=8, record_bytes=32)
        assert archiver.buffer_bytes() == 2 * 8 * 32


class TestIngest:
    def test_home_disk_fixed_by_first_registration(self):
        archiver = make_archiver()
        first = archiver.register_object("obj1", Point(10.0, 10.0))
        second = archiver.register_object("obj1", Point(90.0, 90.0))
        assert first == second

    def test_records_buffer_until_page_full(self):
        archiver = make_archiver(page_records=3)
        for t in range(2):
            assert archiver.archive(record("obj1", float(t)), now=float(t)) is None
        assert archiver.stats.pages_flushed == 0
        flushed_disk = archiver.archive(record("obj1", 2.0), now=2.0)
        assert flushed_disk == archiver.register_object("obj1", Point(0.0, 0.0))
        assert archiver.stats.pages_flushed == 1

    def test_flush_all_drains_partial_buffers(self):
        archiver = make_archiver(page_records=100)
        archiver.archive(record("obj1", 0.0), now=0.0)
        archiver.archive(record("obj2", 0.0, x=90.0, y=90.0), now=0.0)
        flushed = archiver.flush_all(now=1.0)
        assert flushed >= 1
        assert sum(len(segment.records) for segment in archiver.disks.all_segments()) == 2

    def test_all_records_of_one_object_on_one_disk(self):
        archiver = make_archiver(page_records=2)
        for t in range(8):
            archiver.archive(record("obj1", float(t)), now=float(t))
        archiver.flush_all(now=9.0)
        home = archiver.register_object("obj1", Point(0.0, 0.0))
        for segment in archiver.disks.all_segments():
            for stored in segment.records:
                if stored.object_id == "obj1":
                    assert segment.disk_index == home


class TestQueries:
    def test_object_history_ordered_and_complete(self):
        archiver = make_archiver(page_records=3)
        for t in range(7):
            archiver.archive(record("obj1", float(t)), now=float(t))
        archiver.flush_all(now=8.0)
        history = archiver.object_history("obj1")
        assert [r.timestamp for r in history] == [float(t) for t in range(7)]

    def test_object_history_time_window(self):
        archiver = make_archiver(page_records=2)
        for t in range(6):
            archiver.archive(record("obj1", float(t)), now=float(t))
        archiver.flush_all(now=7.0)
        window = archiver.object_history("obj1", start_time=2.0, end_time=4.0)
        assert [r.timestamp for r in window] == [2.0, 3.0, 4.0]

    def test_object_history_unknown_object(self):
        archiver = make_archiver()
        assert archiver.object_history("nobody") == []

    def test_object_query_touches_only_home_disk(self):
        archiver = make_archiver(page_records=1, num_disks=4)
        archiver.archive(record("obj1", 0.0, x=10.0, y=10.0), now=0.0)
        archiver.archive(record("obj2", 0.0, x=90.0, y=90.0), now=0.0)
        archiver.stats.segments_scanned = 0
        archiver.object_history("obj1")
        assert archiver.stats.segments_scanned <= 1

    def test_region_history_filters_by_location(self):
        archiver = make_archiver(page_records=1)
        archiver.archive(record("obj1", 0.0, x=10.0, y=10.0), now=0.0)
        archiver.archive(record("obj2", 1.0, x=90.0, y=90.0), now=1.0)
        region = BoundingBox(0.0, 0.0, 50.0, 50.0)
        results = archiver.region_history(region)
        assert [r.object_id for r in results] == ["obj1"]

    def test_segments_per_query_statistic(self):
        archiver = make_archiver(page_records=1)
        archiver.archive(record("obj1", 0.0), now=0.0)
        archiver.object_history("obj1")
        archiver.region_history(WORLD)
        assert archiver.stats.object_queries == 1
        assert archiver.stats.region_queries == 1
        assert archiver.stats.segments_per_query() > 0


class TestDoubleBufferingConstraint:
    def test_constraint_reported(self):
        archiver = make_archiver(page_records=2)
        sound, fill, flush = archiver.double_buffering_is_sound()
        assert sound  # no page filled yet: vacuously sound
        assert fill is None
        assert flush > 0

    def test_constraint_with_slow_fill_is_sound(self):
        archiver = make_archiver(page_records=2)
        archiver.archive(record("obj1", 0.0), now=0.0)
        archiver.archive(record("obj1", 1.0), now=100.0)
        sound, fill, flush = archiver.double_buffering_is_sound()
        assert fill == pytest.approx(100.0)
        assert sound

    def test_constraint_violated_by_instant_fill(self):
        archiver = make_archiver(page_records=2)
        archiver.archive(record("obj1", 0.0), now=0.0)
        archiver.archive(record("obj1", 1.0), now=0.0)
        sound, fill, flush = archiver.double_buffering_is_sound()
        assert fill == 0.0
        assert not sound
