"""Tests for the shared domain records."""

import copy
import pickle

import pytest

from repro.codec import values, wire
from repro.errors import SchemaError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import (
    HistoryRecord,
    LocationRecord,
    NeighborResult,
    UpdateMessage,
    format_object_id,
)
from repro.workload.queries import NNQuery


class TestObjectIds:
    def test_format_is_zero_padded(self):
        assert format_object_id(7) == "obj0000000007"

    def test_formatted_ids_sort_numerically(self):
        ids = [format_object_id(n) for n in (2, 10, 1, 100)]
        assert sorted(ids) == [format_object_id(n) for n in (1, 2, 10, 100)]

    def test_negative_rejected(self):
        with pytest.raises(SchemaError):
            format_object_id(-1)


class TestLocationRecord:
    def test_requires_finite_coordinates(self):
        with pytest.raises(SchemaError):
            LocationRecord(Point(float("nan"), 0.0), Vector(0.0, 0.0), 0.0)
        with pytest.raises(SchemaError):
            LocationRecord(Point(0.0, 0.0), Vector(float("inf"), 0.0), 0.0)

    def test_extrapolation_moves_with_velocity(self):
        record = LocationRecord(Point(10.0, 10.0), Vector(1.0, -2.0), timestamp=5.0)
        extrapolated = record.extrapolated(8.0)
        assert extrapolated == Point(13.0, 4.0)

    def test_extrapolation_at_record_time_is_identity(self):
        record = LocationRecord(Point(10.0, 10.0), Vector(1.0, -2.0), timestamp=5.0)
        assert record.extrapolated(5.0) == record.location

    def test_extrapolation_backwards(self):
        record = LocationRecord(Point(10.0, 10.0), Vector(2.0, 0.0), timestamp=5.0)
        assert record.extrapolated(4.0) == Point(8.0, 10.0)


class TestUpdateMessage:
    def test_requires_object_id(self):
        with pytest.raises(SchemaError):
            UpdateMessage("", Point(0.0, 0.0), Vector(0.0, 0.0), 0.0)

    def test_requires_finite_values(self):
        with pytest.raises(SchemaError):
            UpdateMessage("x", Point(float("nan"), 0.0), Vector(0.0, 0.0), 0.0)

    def test_as_record_copies_fields(self):
        message = UpdateMessage("x", Point(1.0, 2.0), Vector(3.0, 4.0), 5.0)
        record = message.as_record()
        assert record.location == message.location
        assert record.velocity == message.velocity
        assert record.timestamp == message.timestamp

    def test_messages_are_hashable(self):
        a = UpdateMessage("x", Point(1.0, 2.0), Vector(0.0, 0.0), 0.0)
        b = UpdateMessage("x", Point(1.0, 2.0), Vector(0.0, 0.0), 0.0)
        assert len({a, b}) == 1


class TestResultRecords:
    def test_neighbor_result_fields(self):
        result = NeighborResult(
            object_id="a", location=Point(1.0, 1.0), distance=2.0, is_leader=False,
            leader_id="b",
        )
        assert result.leader_id == "b"
        assert not result.is_leader

    def test_history_record_fields(self):
        record = HistoryRecord(
            object_id="a", location=Point(1.0, 1.0), velocity=Vector(0.5, 0.5),
            timestamp=3.0,
        )
        assert record.timestamp == 3.0


class TestNeighborResult:
    """A result is the tuple of its fields; everything else a caller saw of
    the frozen dataclass it replaced is kept."""

    FIELDS = ("obj0000000001", Point(1.0, 2.0), 0.5, False, "obj0000000002")

    def test_positional_and_keyword_construction_agree(self):
        by_position = NeighborResult(*self.FIELDS)
        by_keyword = NeighborResult(
            object_id="obj0000000001", location=Point(1.0, 2.0), distance=0.5,
            is_leader=False, leader_id="obj0000000002",
        )
        assert by_position == by_keyword
        assert type(by_keyword) is NeighborResult
        assert (
            by_keyword.object_id, by_keyword.location, by_keyword.distance,
            by_keyword.is_leader, by_keyword.leader_id,
        ) == self.FIELDS
        assert NeighborResult("a", Point(0.0, 0.0), 1.0, True).leader_id is None
        with pytest.raises(TypeError):
            NeighborResult("a", Point(0.0, 0.0), 1.0)

    def test_repr_is_the_dataclass_repr(self):
        assert repr(NeighborResult(*self.FIELDS)) == (
            "NeighborResult(object_id='obj0000000001', location=Point(x=1.0, y=2.0), "
            "distance=0.5, is_leader=False, leader_id='obj0000000002')"
        )
        assert repr(NeighborResult("a", Point(-0.0, 1.0), float("inf"), True)) == (
            "NeighborResult(object_id='a', location=Point(x=-0.0, y=1.0), "
            "distance=inf, is_leader=True, leader_id=None)"
        )

    def test_equal_to_and_hashed_as_the_plain_tuple(self):
        result = NeighborResult(*self.FIELDS)
        assert result == self.FIELDS and hash(result) == hash(self.FIELDS)
        assert len({result, NeighborResult(*self.FIELDS)}) == 1
        with pytest.raises(AttributeError):
            result.distance = 1.0

    def test_sorts_by_distance_then_id(self):
        results = [
            NeighborResult("b", Point(0.0, 0.0), 1.0, True),
            NeighborResult("c", Point(0.0, 0.0), 0.5, True),
            NeighborResult("a", Point(0.0, 0.0), 1.0, False, "c"),
        ]
        results.sort(key=lambda item: (item.distance, item.object_id))
        assert [item.object_id for item in results] == ["c", "a", "b"]

    def test_pickle_and_copy_rebuild_through_the_constructor(self):
        result = NeighborResult(*self.FIELDS)
        for clone in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert clone == result and type(clone) is NeighborResult

    def test_round_trips_tag_15_and_the_neighbour_frame(self):
        query = NNQuery(Point(0.0, 0.0), 2)
        results = [
            NeighborResult(format_object_id(1), Point(3.0, 4.0), 5.0, True),
            NeighborResult(format_object_id(2), Point(6.0, 8.0), 10.0, False, format_object_id(1)),
        ]
        out = bytearray()
        values.encode_value(out, results[1])
        assert out[0] == values.TAG_NEIGHBOR
        decoded, _ = values.decode_value(bytes(out), 0)
        assert decoded == results[1] and type(decoded) is NeighborResult
        odd = [NeighborResult("bus-17", Point(1.0, 1.0), 2 ** 0.5, True)]
        for batch, flag in ((results, wire.FLAG_COLUMNAR), (odd, wire.FLAG_GENERAL)):
            frame = wire.encode_neighbor_batches([batch], [query])
            assert frame[0] == flag
            (got,) = wire.decode_neighbor_batches(frame, [query])
            assert got == batch
            assert all(type(item) is NeighborResult for item in got)

