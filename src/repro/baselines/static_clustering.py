"""Static (prototype-based) clustering baseline (Section 2.3.1).

A fixed set of velocity prototypes describes the possible moving patterns.
Every object is assigned to its nearest prototype; whenever an update changes
the assignment the object must be re-classified (an Affiliation-style write),
and — crucially, unlike MOIST — **every** update still writes the object's
location to the Location and Spatial Index tables ("Both their locations must
be updated in their spatial indexer", Figure 1a).  The baseline therefore
sheds no writes; it exists to measure exactly that difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bigtable.cost import CostModel
from repro.bigtable.emulator import BigtableEmulator
from repro.core.config import MoistConfig
from repro.errors import ConfigurationError
from repro.geometry.vector import Vector
from repro.model import ObjectId, UpdateMessage
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable


def default_prototypes(max_speed: float = 2.0, directions: int = 8) -> List[Vector]:
    """Evenly spaced direction prototypes at half and full speed."""
    if directions <= 0:
        raise ConfigurationError("directions must be positive")
    prototypes = [Vector.zero()]
    for speed in (max_speed / 2.0, max_speed):
        for index in range(directions):
            angle = 2.0 * math.pi * index / directions
            prototypes.append(Vector(speed * math.cos(angle), speed * math.sin(angle)))
    return prototypes


@dataclass
class StaticClusteringStats:
    """Counters of the static-clustering baseline."""

    updates: int = 0
    reclassifications: int = 0


class StaticClusteringIndex:
    """Moving-object index with fixed moving-pattern prototypes."""

    def __init__(
        self,
        config: Optional[MoistConfig] = None,
        prototypes: Optional[List[Vector]] = None,
        emulator: Optional[BigtableEmulator] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.config = config or MoistConfig()
        self.prototypes = prototypes or default_prototypes()
        if not self.prototypes:
            raise ConfigurationError("static clustering needs at least one prototype")
        self.emulator = emulator or BigtableEmulator(cost_model=cost_model)
        self.location_table = LocationTable(self.emulator, name="static_location")
        self.spatial_table = SpatialIndexTable(
            self.emulator,
            name="static_spatial_index",
            storage_level=self.config.storage_level,
            world=self.config.world,
        )
        #: In-memory prototype assignment (the real system would store this
        #: in another table; keeping it in memory *under*-counts the
        #: baseline's storage work, which is conservative for MOIST).
        self._assignment: Dict[ObjectId, int] = {}
        self.stats = StaticClusteringStats()

    def update(self, message: UpdateMessage) -> int:
        """Handle one update; returns the prototype index assigned."""
        previous = self.location_table.latest(message.object_id)
        prototype_index = self._classify(message.velocity)
        if self._assignment.get(message.object_id) != prototype_index:
            self._assignment[message.object_id] = prototype_index
            self.stats.reclassifications += 1
        self.location_table.add_record(message.object_id, message.as_record())
        previous_location = previous.location if previous is not None else None
        self.spatial_table.move(
            message.object_id, previous_location, message.location, message.timestamp
        )
        self.stats.updates += 1
        return prototype_index

    @property
    def simulated_seconds(self) -> float:
        """Simulated storage time consumed so far."""
        return self.emulator.simulated_seconds

    def _classify(self, velocity: Vector) -> int:
        best_index = 0
        best_distance = float("inf")
        for index, prototype in enumerate(self.prototypes):
            distance = velocity.distance_to(prototype)
            if distance < best_distance:
                best_distance = distance
                best_index = index
        return best_index
