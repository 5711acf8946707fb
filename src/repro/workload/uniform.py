"""Uniform random workload for the BigTable stress experiments (Section 4.1).

"Updates and queries applied to a population of 400k to 1m objects with
randomly chosen positions and velocities in a space size of 1 km² were
carried out."  The generator loads every object at its initial placement
(Figure 12 runs NN queries on a map with no moving objects) and then moves
one random object at a time to a fresh random position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.errors import WorkloadError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id


@dataclass
class UniformWorkload:
    """Objects uniformly distributed in a rectangular region."""

    num_objects: int = 1000
    region: BoundingBox = BoundingBox(0.0, 0.0, 1000.0, 1000.0)
    max_speed: float = 2.0
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_objects <= 0:
            raise WorkloadError("num_objects must be positive")
        if self.max_speed < 0:
            raise WorkloadError("max_speed must be non-negative")
        self.rng = random.Random(self.seed)
        self._positions: List[Point] = [
            Point(
                self.rng.uniform(self.region.min_x, self.region.max_x),
                self.rng.uniform(self.region.min_y, self.region.max_y),
            )
            for _ in range(self.num_objects)
        ]
        self._velocities: List[Vector] = [
            Vector(
                self.rng.uniform(-self.max_speed, self.max_speed),
                self.rng.uniform(-self.max_speed, self.max_speed),
            )
            for _ in range(self.num_objects)
        ]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def object_id(self, index: int) -> str:
        """Object id of the ``index``-th object."""
        if not 0 <= index < self.num_objects:
            raise WorkloadError(f"object index {index} out of range")
        return format_object_id(index)

    def random_location(self) -> Point:
        """A uniformly random point inside the region (query centres)."""
        return Point(
            self.rng.uniform(self.region.min_x, self.region.max_x),
            self.rng.uniform(self.region.min_y, self.region.max_y),
        )

    # ------------------------------------------------------------------
    # Update generation
    # ------------------------------------------------------------------
    def initial_updates(self, timestamp: float = 0.0) -> List[UpdateMessage]:
        """One update per object at its initial position (index loading)."""
        return [
            UpdateMessage(
                object_id=self.object_id(index),
                location=self._positions[index],
                velocity=self._velocities[index],
                timestamp=timestamp,
            )
            for index in range(self.num_objects)
        ]

    def random_update(self, timestamp: float) -> UpdateMessage:
        """An update for a uniformly random object at a fresh random position.

        This matches the single-server QPS experiment where "for each query
        generated by a thread, a random object id ... would be assigned"
        (Section 4.3.2).
        """
        index = self.rng.randrange(self.num_objects)
        self._positions[index] = self.random_location()
        return UpdateMessage(
            object_id=self.object_id(index),
            location=self._positions[index],
            velocity=self._velocities[index],
            timestamp=timestamp,
        )
