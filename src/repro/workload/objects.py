"""Moving objects of the road-network workload (Section 4.1).

Objects are either pedestrians (speed drawn from 0-1 units/s) or cars
(1-2 units/s).  Every object starts on a randomly selected road, moves along
it, and chooses a turn with equal probability when it reaches a crossroad.
Pedestrians arriving near a building entrance enter with 5 % probability;
once inside, each update places them uniformly at random inside the
building, and they leave with 5 % probability per update.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import WorkloadError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import ObjectId
from repro.workload.roadnetwork import Building, RoadNetwork


class ObjectKind(enum.Enum):
    """Pedestrian or car, with the paper's speed ranges."""

    PEDESTRIAN = "pedestrian"
    CAR = "car"

    def speed_range(self) -> Tuple[float, float]:
        """Speed bounds in units per second."""
        if self is ObjectKind.PEDESTRIAN:
            return (0.05, 1.0)
        return (1.0, 2.0)


@dataclass
class MovingObject:
    """One simulated object walking/driving the road network."""

    object_id: ObjectId
    kind: ObjectKind
    network: RoadNetwork
    rng: random.Random
    #: Probability a pedestrian enters a building on arriving at a crossroad,
    #: and leaves it again per in-building update.
    building_probability: float = 0.05

    # Road state: the intersection the object last passed, the one it heads
    # to, and how far along the segment it is.
    _from_node: Tuple[int, int] = field(init=False)
    _to_node: Tuple[int, int] = field(init=False)
    _offset: float = field(init=False, default=0.0)
    speed: float = field(init=False)
    #: When inside a building, the building; ``None`` while on a road.
    _inside: Optional[Building] = field(init=False, default=None)
    _indoor_position: Optional[Point] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not 0.0 <= self.building_probability <= 1.0:
            raise WorkloadError("building_probability must be in [0, 1]")
        low, high = self.kind.speed_range()
        self.speed = self.rng.uniform(low, high)
        n = self.network.intersections_per_side
        start = (self.rng.randrange(n), self.rng.randrange(n))
        self._from_node = start
        self._to_node = self._choose_next(start, previous=None)
        self._offset = self.rng.uniform(0.0, self.network.block_size)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def position(self) -> Point:
        """Current world position."""
        if self._inside is not None and self._indoor_position is not None:
            return self._indoor_position
        origin = self.network.intersection_point(*self._from_node)
        target = self.network.intersection_point(*self._to_node)
        segment = origin.displacement_to(target)
        length = segment.magnitude()
        if length == 0:
            return origin
        fraction = min(self._offset / length, 1.0)
        return origin.displaced(segment.scaled(fraction))

    def velocity(self) -> Vector:
        """Current velocity vector (zero while inside a building)."""
        if self._inside is not None:
            return Vector.zero()
        origin = self.network.intersection_point(*self._from_node)
        target = self.network.intersection_point(*self._to_node)
        direction = origin.displacement_to(target).normalised()
        return direction.scaled(self.speed)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self, dt: float) -> None:
        """Advance the object by ``dt`` seconds."""
        if dt < 0:
            raise WorkloadError("dt must be non-negative")
        if self._inside is not None:
            self._step_indoors()
            return
        remaining = self.speed * dt
        while remaining > 0:
            origin = self.network.intersection_point(*self._from_node)
            target = self.network.intersection_point(*self._to_node)
            length = origin.distance_to(target)
            to_go = length - self._offset
            if remaining < to_go:
                self._offset += remaining
                return
            # Arrive at the next crossroad and decide what to do there.
            remaining -= to_go
            previous = self._from_node
            self._from_node = self._to_node
            self._offset = 0.0
            if self.kind is ObjectKind.PEDESTRIAN and (
                self.rng.random() < self.building_probability
            ):
                self._enter_building()
                return
            self._to_node = self._choose_next(self._from_node, previous=previous)

    def _step_indoors(self) -> None:
        """One update while inside a building: re-place or leave."""
        assert self._inside is not None
        if self.rng.random() < self.building_probability:
            # Leave through the entrance and resume walking the roads.
            exit_node = self.network.nearest_intersection(self._inside.entrance)
            self._from_node = exit_node
            self._to_node = self._choose_next(exit_node, previous=None)
            self._offset = 0.0
            self._inside = None
            self._indoor_position = None
            return
        footprint = self._inside.footprint
        self._indoor_position = Point(
            self.rng.uniform(footprint.min_x, footprint.max_x),
            self.rng.uniform(footprint.min_y, footprint.max_y),
        )

    def _enter_building(self) -> None:
        building = self.network.building_near_intersection(*self._from_node)
        self._inside = building
        footprint = building.footprint
        self._indoor_position = Point(
            self.rng.uniform(footprint.min_x, footprint.max_x),
            self.rng.uniform(footprint.min_y, footprint.max_y),
        )

    def _choose_next(
        self, node: Tuple[int, int], previous: Optional[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """Pick the next crossroad with equal probability among the turns.

        The reverse direction is avoided when another option exists, so
        objects keep flowing along roads instead of oscillating.
        """
        options = self.network.neighbors_of(*node)
        if previous is not None and len(options) > 1:
            options = [option for option in options if option != previous]
        if not options:
            raise WorkloadError(f"intersection {node} has no outgoing roads")
        return options[self.rng.randrange(len(options))]
