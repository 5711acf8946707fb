"""Immutable 2-D vector used for velocities and leader->follower displacements."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple


@dataclass(frozen=True)
class Vector:
    """A displacement or velocity on the plane.

    The Affiliation Table stores, for each follower, the displacement vector
    from its leader (Section 3.1.1); velocities in update messages are also
    vectors.  Instances are immutable and hashable.
    """

    __slots__ = ("dx", "dy")

    dx: float
    dy: float

    def __reduce__(self):
        # Frozen + __slots__ defeats default pickling; reconstruct through
        # the constructor (multiprocess RPC ships vectors inside messages).
        return (Vector, (self.dx, self.dy))

    def __iter__(self) -> Iterator[float]:
        yield self.dx
        yield self.dy

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(dx, dy)``."""
        return (self.dx, self.dy)

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(self.dx + other.dx, self.dy + other.dy)

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(self.dx - other.dx, self.dy - other.dy)

    def __neg__(self) -> "Vector":
        return Vector(-self.dx, -self.dy)

    def __mul__(self, scalar: float) -> "Vector":
        return Vector(self.dx * scalar, self.dy * scalar)

    __rmul__ = __mul__

    def magnitude(self) -> float:
        """Euclidean length of the vector."""
        return math.hypot(self.dx, self.dy)

    def distance_to(self, other: "Vector") -> float:
        """Length of the difference vector.

        This is the similarity measure used by school clustering: two
        velocities belong to the same school candidate when the magnitude of
        their difference is below the clustering threshold (Section 3.3.2).
        """
        return math.hypot(self.dx - other.dx, self.dy - other.dy)

    def scaled(self, factor: float) -> "Vector":
        """Return a copy scaled by ``factor``."""
        return Vector(self.dx * factor, self.dy * factor)

    def normalised(self) -> "Vector":
        """Return a unit vector in the same direction (zero stays zero)."""
        mag = self.magnitude()
        if mag == 0.0:
            return Vector(0.0, 0.0)
        return Vector(self.dx / mag, self.dy / mag)

    def is_finite(self) -> bool:
        """True when both components are finite."""
        return math.isfinite(self.dx) and math.isfinite(self.dy)

    @staticmethod
    def zero() -> "Vector":
        """The zero vector."""
        return Vector(0.0, 0.0)
