"""Single-object (dead-reckoning / safe-region) shedding baseline.

Section 2.2 surveys update-shedding schemes that throttle the workload using
only *one user's* data: dead-reckoning with a Kalman-style predictor, safe
regions, QU-trees and similar.  The server keeps, per object, the last
*reported* state; a new update is shed when the position predicted from that
state is still within a tolerance of the reported position.

This is the natural comparator for object schools: both shed updates within a
bounded error, but MOIST additionally collapses the *storage footprint* (only
leaders are indexed) and its shed decisions exploit cross-object correlation.
The baseline exists so the ablation benchmarks can separate the two effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bigtable.cost import CostModel
from repro.bigtable.emulator import BigtableEmulator
from repro.core.config import MoistConfig
from repro.errors import ConfigurationError
from repro.model import LocationRecord, ObjectId, UpdateMessage
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable


@dataclass
class DeadReckoningStats:
    """Counters of the dead-reckoning baseline."""

    total: int = 0
    shed: int = 0
    stored: int = 0

    @property
    def shed_ratio(self) -> float:
        if self.total == 0:
            return 0.0
        return self.shed / self.total


class DeadReckoningIndex:
    """Moving-object index with per-object dead-reckoning shedding.

    Every object is indexed individually (there are no schools); an update is
    shed when linear extrapolation of the object's last *stored* record stays
    within ``tolerance`` of the reported position.  The shed decision is made
    on the server and still requires reading the stored record, so shedding
    saves the writes but not the read — the same trade-off MOIST's follower
    path has.
    """

    def __init__(
        self,
        config: Optional[MoistConfig] = None,
        tolerance: Optional[float] = None,
        emulator: Optional[BigtableEmulator] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.config = config or MoistConfig()
        self.tolerance = (
            tolerance if tolerance is not None else self.config.deviation_threshold
        )
        if self.tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        self.emulator = emulator or BigtableEmulator(cost_model=cost_model)
        self.location_table = LocationTable(self.emulator, name="deadreckoning_location")
        self.spatial_table = SpatialIndexTable(
            self.emulator,
            name="deadreckoning_spatial_index",
            storage_level=self.config.storage_level,
            world=self.config.world,
        )
        self.stats = DeadReckoningStats()
        #: Last stored record per object (also persisted in the Location
        #: Table; kept here to expose the predictor's state to tests).
        self._stored: Dict[ObjectId, LocationRecord] = {}

    def update(self, message: UpdateMessage) -> bool:
        """Handle one update; returns ``True`` when the update was shed."""
        self.stats.total += 1
        stored = self.location_table.latest(message.object_id)
        if stored is not None and self.tolerance > 0:
            predicted = stored.extrapolated(message.timestamp)
            if predicted.distance_to(message.location) <= self.tolerance:
                self.stats.shed += 1
                return True
        previous_location = stored.location if stored is not None else None
        self.location_table.add_record(message.object_id, message.as_record())
        self.spatial_table.move(
            message.object_id, previous_location, message.location, message.timestamp
        )
        self._stored[message.object_id] = message.as_record()
        self.stats.stored += 1
        return False

    @property
    def indexed_objects(self) -> int:
        """Number of objects present in the spatial index (all of them —
        unlike MOIST, nothing is collapsed into schools)."""
        return self.location_table.object_count()

    @property
    def simulated_seconds(self) -> float:
        """Simulated storage time consumed so far."""
        return self.emulator.simulated_seconds
