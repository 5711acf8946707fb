"""Immutable 2-D point."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.geometry.vector import Vector


@dataclass(frozen=True, order=True)
class Point:
    """A location on the plane.

    Points are immutable so they can be stored directly inside table records
    and used as dictionary keys when deduplicating query results.
    """

    __slots__ = ("x", "y")

    x: float
    y: float

    def __reduce__(self):
        # Frozen + __slots__ defeats default pickling (state restoration
        # would need setattr); reconstruct through the constructor instead.
        # Needed to ship points across the multiprocess RPC boundary.
        return (Point, (self.x, self.y))

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def displaced(self, vector: "Vector") -> "Point":
        """Return the point reached by applying ``vector`` to this point."""
        return Point(self.x + vector.dx, self.y + vector.dy)

    def displacement_to(self, other: "Point") -> "Vector":
        """Return the vector that moves this point onto ``other``."""
        from repro.geometry.vector import Vector

        return Vector(other.x - self.x, other.y - self.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy shifted by raw deltas."""
        return Point(self.x + dx, self.y + dy)

    def clamped(self, min_x: float, min_y: float, max_x: float, max_y: float) -> "Point":
        """Return a copy clamped to the given inclusive rectangle."""
        return Point(
            min(max(self.x, min_x), max_x),
            min(max(self.y, min_y), max_y),
        )

    def is_finite(self) -> bool:
        """True when both coordinates are finite numbers."""
        return math.isfinite(self.x) and math.isfinite(self.y)
