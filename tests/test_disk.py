"""Tests for the disk model and disk array."""

import pytest

from repro.disk.array import DiskArray
from repro.disk.model import DiskModel
from repro.errors import ArchiveError, ConfigurationError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import HistoryRecord


def record(object_id="obj1", x=1.0, y=2.0, t=0.0):
    return HistoryRecord(
        object_id=object_id, location=Point(x, y), velocity=Vector(0.0, 0.0), timestamp=t
    )


class TestDiskModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskModel(rotational_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            DiskModel(transfer_rate_bytes_per_s=0.0)

    def test_access_latency(self):
        model = DiskModel(rotational_delay_s=0.004, seek_time_s=0.008)
        assert model.access_latency_s == pytest.approx(0.012)

    def test_flush_time_equation(self):
        model = DiskModel(
            rotational_delay_s=0.004, seek_time_s=0.008, transfer_rate_bytes_per_s=1e6
        )
        # Td = Trot + Tseek + sB / (nd * Rdisk)
        assert model.flush_time(1e6, 1) == pytest.approx(0.012 + 1.0)
        assert model.flush_time(1e6, 2) == pytest.approx(0.012 + 0.5)

    def test_flush_time_invalid_args(self):
        model = DiskModel()
        with pytest.raises(ConfigurationError):
            model.flush_time(100.0, 0)
        with pytest.raises(ConfigurationError):
            model.flush_time(-1.0, 1)

    def test_write_utilisation_decreases_with_disks(self):
        model = DiskModel()
        assert model.write_utilisation(1e6, 1) > model.write_utilisation(1e6, 4)

    def test_read_resolution_increases_with_disks(self):
        assert DiskModel.read_resolution(4, 100) > DiskModel.read_resolution(1, 100)

    def test_read_resolution_scaling_factor(self):
        assert DiskModel.read_resolution(2, 100, k=10.0) == pytest.approx(0.2)

    def test_read_resolution_invalid(self):
        with pytest.raises(ConfigurationError):
            DiskModel.read_resolution(0, 100)
        with pytest.raises(ConfigurationError):
            DiskModel.read_resolution(1, 100, k=0.0)


class TestDiskArray:
    def test_needs_at_least_one_disk(self):
        with pytest.raises(ArchiveError):
            DiskArray(0)

    def test_flush_and_read_back(self):
        array = DiskArray(2)
        segment = array.flush(0, [record(), record("obj2")], flush_time=1.0)
        assert segment.disk_index == 0
        assert array.segment_count() == 1
        assert len(segment.records) == 2
        assert array.segments(0)[0] is segment
        assert array.segments(1) == []

    def test_flush_invalid_disk(self):
        array = DiskArray(2)
        with pytest.raises(ArchiveError):
            array.flush(5, [record()], flush_time=0.0)
        with pytest.raises(ArchiveError):
            array.segments(5)

    def test_flush_accumulates_time(self):
        array = DiskArray(1)
        array.flush(0, [record()], flush_time=0.0)
        array.flush(0, [record()], flush_time=1.0)
        assert array.flush_seconds[0] > 0

    def test_all_segments_iterates_every_disk(self):
        array = DiskArray(3)
        array.flush(0, [record()], flush_time=0.0)
        array.flush(2, [record()], flush_time=0.0)
        assert len(list(array.all_segments())) == 2
