"""Domain records shared across the MOIST subsystems.

These are the payloads that flow between the workload generators, the
front-end servers and the storage tables: an object's identifier, a
timestamped location record, the update message of Algorithm 1
(``(ID, Loc, V, t)``) and a nearest-neighbour answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from repro.errors import SchemaError
from repro.geometry.point import Point
from repro.geometry.vector import Vector

#: Object identifiers are plain strings ("OID" in the paper).  Integer ids
#: from the workload generators are formatted with :func:`format_object_id`
#: so they sort sensibly as BigTable row keys.
ObjectId = str


def format_object_id(number: int) -> ObjectId:
    """Zero-padded object id usable as a BigTable row key."""
    if number < 0:
        raise SchemaError(f"object id numbers must be non-negative, got {number}")
    return f"obj{number:010d}"


class LocationRecord(tuple):
    """One timestamped location/velocity observation of an object.

    This is what the Location Table stores per row version (Section 3.1.2):
    "each location record includes various information such as location,
    velocity, etc of the object".

    A record *is* the tuple ``(x, y, dx, dy, timestamp)``; ``location`` and
    ``velocity`` are built on demand.  The Location Table stores the exact
    ``tuple(record)`` and re-brands what it reads with
    ``tuple.__new__(LocationRecord, row)`` — no second validation.
    """

    __slots__ = ()

    def __new__(
        cls, location: Point, velocity: Vector, timestamp: float
    ) -> "LocationRecord":
        if not location.is_finite() or not velocity.is_finite():
            raise SchemaError("location records require finite coordinates")
        return tuple.__new__(
            cls, (location.x, location.y, velocity.dx, velocity.dy, timestamp)
        )

    @property
    def location(self) -> Point:
        return Point(self[0], self[1])

    @property
    def velocity(self) -> Vector:
        return Vector(self[2], self[3])

    timestamp = property(itemgetter(4))

    def __repr__(self) -> str:
        return (
            f"LocationRecord(location={self.location!r}, "
            f"velocity={self.velocity!r}, timestamp={self[4]!r})"
        )

    def __reduce__(self):
        # Reconstruct through the constructor so records survive the
        # multiprocess RPC boundary (and are re-validated on the far side).
        return (LocationRecord, (self.location, self.velocity, self[4]))

    def extrapolated(self, at_time: float) -> Point:
        """Linear dead-reckoning of the object's position at ``at_time``.

        Used when computing a follower's estimated location: the leader's
        latest record is advanced to the follower's update time before the
        stored displacement is applied (Section 3.3.1, step iii).
        """
        x, y, dx, dy, timestamp = self
        dt = at_time - timestamp
        return Point(x + dx * dt, y + dy * dt)


@dataclass(frozen=True)
class UpdateMessage:
    """The 4-tuple ``(ID, Loc, V, t)`` consumed by the update procedure."""

    __slots__ = ("object_id", "location", "velocity", "timestamp")

    object_id: ObjectId
    location: Point
    velocity: Vector
    timestamp: float

    def __post_init__(self) -> None:
        if not self.object_id:
            raise SchemaError("update messages require a non-empty object id")
        if not self.location.is_finite() or not self.velocity.is_finite():
            raise SchemaError("update messages require finite coordinates")

    def __reduce__(self):
        return (
            UpdateMessage,
            (self.object_id, self.location, self.velocity, self.timestamp),
        )

    def as_record(self) -> LocationRecord:
        """The location record this update contributes (filled directly:
        the message constructor already checked finiteness)."""
        location = self.location
        velocity = self.velocity
        return tuple.__new__(
            LocationRecord,
            (location.x, location.y, velocity.dx, velocity.dy, self.timestamp),
        )


class NeighborResult(tuple):
    """One entry returned by a nearest-neighbour query.

    A result *is* the tuple ``(object_id, location, distance, is_leader,
    leader_id)``, like :class:`LocationRecord`: the fields are read by
    position, and the search fills the k survivors with ``tuple.__new__``.
    So a result is equal to, hashes as and sorts as the plain tuple of its
    fields — the one difference from a frozen dataclass, whose ``==`` only
    matched its own class.
    """

    __slots__ = ()

    def __new__(
        cls,
        object_id: ObjectId,
        location: Point,
        distance: float,
        is_leader: bool,
        leader_id: Optional[ObjectId] = None,
    ) -> "NeighborResult":
        return tuple.__new__(cls, (object_id, location, distance, is_leader, leader_id))

    object_id = property(itemgetter(0))
    location = property(itemgetter(1))
    distance = property(itemgetter(2))
    is_leader = property(itemgetter(3))
    leader_id = property(itemgetter(4))

    def __repr__(self) -> str:
        return (
            f"NeighborResult(object_id={self[0]!r}, location={self[1]!r}, "
            f"distance={self[2]!r}, is_leader={self[3]!r}, leader_id={self[4]!r})"
        )

    def __reduce__(self):
        return (NeighborResult, tuple(self))


@dataclass(frozen=True)
class HistoryRecord:
    """One archived observation returned by a history query."""

    __slots__ = ("object_id", "location", "velocity", "timestamp")

    object_id: ObjectId
    location: Point
    velocity: Vector
    timestamp: float

    def __reduce__(self):
        return (
            HistoryRecord,
            (self.object_id, self.location, self.velocity, self.timestamp),
        )
