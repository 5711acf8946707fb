"""Tests for the ping-pong buffer."""

import pytest

from repro.archive.buffer import PingPongBuffer
from repro.errors import ArchiveError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import HistoryRecord


def record(t=0.0, object_id="obj1"):
    return HistoryRecord(object_id, Point(1.0, 1.0), Vector(0.0, 0.0), t)


class TestPingPongBuffer:
    def test_page_size_must_be_positive(self):
        with pytest.raises(ArchiveError):
            PingPongBuffer(0)

    def test_append_below_page_size_returns_none(self):
        buffer = PingPongBuffer(3)
        assert buffer.append(record(0.0), now=0.0) is None
        assert buffer.append(record(1.0), now=1.0) is None

    def test_page_returned_when_full(self):
        buffer = PingPongBuffer(2)
        assert buffer.append(record(0.0), now=0.0) is None
        page = buffer.append(record(1.0), now=1.0)
        assert page is not None
        assert len(page) == 2
        assert buffer.swaps == 1

    def test_records_keep_arrival_order(self):
        buffer = PingPongBuffer(3)
        for t in range(2):
            buffer.append(record(float(t)), now=float(t))
        page = buffer.append(record(2.0), now=2.0)
        assert [r.timestamp for r in page] == [0.0, 1.0, 2.0]

    def test_buffers_alternate(self):
        buffer = PingPongBuffer(1)
        first = buffer.append(record(0.0), now=0.0)
        second = buffer.append(record(1.0), now=1.0)
        assert first[0].timestamp == 0.0
        assert second[0].timestamp == 1.0
        assert buffer.swaps == 2

    def test_fill_times_recorded(self):
        buffer = PingPongBuffer(2)
        buffer.append(record(0.0), now=0.0)
        buffer.append(record(1.0), now=3.0)
        assert buffer.fill_times == [3.0]
        assert buffer.min_fill_time() == 3.0

    def test_min_fill_time_none_before_first_page(self):
        buffer = PingPongBuffer(10)
        buffer.append(record(0.0), now=0.0)
        assert buffer.min_fill_time() is None

    def test_drain_returns_partial_page(self):
        buffer = PingPongBuffer(10)
        buffer.append(record(0.0), now=0.0)
        buffer.append(record(1.0), now=1.0)
        page = buffer.drain()
        assert len(page) == 2
        assert buffer.drain() == []
