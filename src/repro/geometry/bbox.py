"""Axis-aligned bounding box."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpatialError
from repro.geometry.point import Point


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Used to describe spatial cells, road-network buildings, and query
    regions.  Construction validates that the box is non-degenerate in the
    sense ``min <= max`` (zero-area boxes are permitted: a cell at the
    maximum level may collapse to a point in a discretised space).
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __reduce__(self):
        # Frozen + __slots__ defeats default pickling; reconstruct through
        # the constructor (query regions cross the multiprocess RPC wire).
        return (BoundingBox, (self.min_x, self.min_y, self.max_x, self.max_y))

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise SpatialError(
                f"invalid bounding box: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    @staticmethod
    def from_center(center: Point, half_width: float, half_height: float) -> "BoundingBox":
        """Box centred on ``center`` with the given half extents."""
        return BoundingBox(
            center.x - half_width,
            center.y - half_height,
            center.x + half_width,
            center.y + half_height,
        )

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    def center(self) -> Point:
        """Centre point of the box."""
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains_point(self, point: Point) -> bool:
        """True when ``point`` is inside or on the border of the box."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """True when the two boxes share at least a border point."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def clamp_point(self, point: Point) -> Point:
        """Closest point inside the box to ``point``."""
        return point.clamped(self.min_x, self.min_y, self.max_x, self.max_y)

    def distance_to_point(self, point: Point) -> float:
        """Shortest distance from the box to ``point`` (0 when inside).

        This is the cell-to-query-location distance used by the nearest
        neighbour search (Algorithm 2): the distance from a cell to ``loc``
        lower-bounds the distance of every object stored in that cell.
        """
        return self.clamp_point(point).distance_to(point)
