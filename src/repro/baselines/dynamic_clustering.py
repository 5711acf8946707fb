"""Dynamic (virtual-centre) clustering baseline (Section 2.3.2).

Clusters are represented by a virtual centre moving with a linear model and a
radius, as in Jensen et al.'s continuous clustering [16].  Every object's
update adjusts its cluster's moving pattern (a storage write), and an object
that drifts outside the cluster radius triggers a local re-clustering that
reads every member — the O(n log n)/IO-heavy behaviour the paper contrasts
with object schools (Section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bigtable.cost import CostModel
from repro.bigtable.emulator import BigtableEmulator
from repro.core.config import MoistConfig
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import ObjectId, UpdateMessage
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable


@dataclass
class VirtualCluster:
    """One micro-cluster: a linearly moving virtual centre plus a radius."""

    cluster_id: int
    center: Point
    velocity: Vector
    radius: float
    reference_time: float
    members: List[ObjectId] = field(default_factory=list)

    def predicted_center(self, at_time: float) -> Point:
        """Centre position extrapolated to ``at_time``."""
        dt = at_time - self.reference_time
        return Point(
            self.center.x + self.velocity.dx * dt,
            self.center.y + self.velocity.dy * dt,
        )


@dataclass
class DynamicClusteringStats:
    """Counters of the dynamic-clustering baseline."""

    updates: int = 0
    reclusterings: int = 0
    cluster_writes: int = 0


class DynamicClusteringIndex:
    """Moving-object index maintaining virtual-centre micro-clusters."""

    def __init__(
        self,
        config: Optional[MoistConfig] = None,
        cluster_radius: float = 25.0,
        emulator: Optional[BigtableEmulator] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if cluster_radius <= 0:
            raise ConfigurationError("cluster_radius must be positive")
        self.config = config or MoistConfig()
        self.cluster_radius = cluster_radius
        self.emulator = emulator or BigtableEmulator(cost_model=cost_model)
        self.location_table = LocationTable(self.emulator, name="dynamic_location")
        self.spatial_table = SpatialIndexTable(
            self.emulator,
            name="dynamic_spatial_index",
            storage_level=self.config.storage_level,
            world=self.config.world,
        )
        self._clusters: Dict[int, VirtualCluster] = {}
        self._membership: Dict[ObjectId, int] = {}
        self._next_cluster_id = 0
        self.stats = DynamicClusteringStats()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, message: UpdateMessage) -> int:
        """Handle one update; returns the cluster id the object ends up in."""
        self.stats.updates += 1
        # Location/Spatial writes happen for every update: the cluster centre
        # summarises the group but each member is still individually indexed.
        previous = self.location_table.latest(message.object_id)
        self.location_table.add_record(message.object_id, message.as_record())
        previous_location = previous.location if previous is not None else None
        self.spatial_table.move(
            message.object_id, previous_location, message.location, message.timestamp
        )

        cluster_id = self._membership.get(message.object_id)
        if cluster_id is not None:
            cluster = self._clusters[cluster_id]
            predicted = cluster.predicted_center(message.timestamp)
            if predicted.distance_to(message.location) <= cluster.radius:
                self._adjust_cluster(cluster, message)
                return cluster.cluster_id
            self._remove_member(cluster, message.object_id)
            self.stats.reclusterings += 1
        return self._assign_to_cluster(message)

    @property
    def simulated_seconds(self) -> float:
        """Simulated storage time consumed so far."""
        return self.emulator.simulated_seconds

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _adjust_cluster(self, cluster: VirtualCluster, message: UpdateMessage) -> None:
        """Blend the member's update into the cluster's moving pattern.

        Modelled as one additional storage write (the cluster record), which
        is the key cost difference from object schools: the write count stays
        proportional to the update count.
        """
        weight = 1.0 / max(len(cluster.members), 1)
        predicted = cluster.predicted_center(message.timestamp)
        cluster.center = Point(
            predicted.x * (1 - weight) + message.location.x * weight,
            predicted.y * (1 - weight) + message.location.y * weight,
        )
        cluster.velocity = Vector(
            cluster.velocity.dx * (1 - weight) + message.velocity.dx * weight,
            cluster.velocity.dy * (1 - weight) + message.velocity.dy * weight,
        )
        cluster.reference_time = message.timestamp
        self._write_cluster_record(cluster, message.timestamp)

    def _assign_to_cluster(self, message: UpdateMessage) -> int:
        """Join the nearest compatible cluster or start a new one.

        Finding the nearest cluster reads candidate cluster records (one
        batch read); joining or creating writes the cluster record.
        """
        best: Optional[VirtualCluster] = None
        best_distance = float("inf")
        for cluster in self._clusters.values():
            distance = cluster.predicted_center(message.timestamp).distance_to(
                message.location
            )
            if distance <= cluster.radius and distance < best_distance:
                best = cluster
                best_distance = distance
        if best is None:
            best = VirtualCluster(
                cluster_id=self._next_cluster_id,
                center=message.location,
                velocity=message.velocity,
                radius=self.cluster_radius,
                reference_time=message.timestamp,
            )
            self._clusters[best.cluster_id] = best
            self._next_cluster_id += 1
        best.members.append(message.object_id)
        self._membership[message.object_id] = best.cluster_id
        self._write_cluster_record(best, message.timestamp)
        return best.cluster_id

    def _remove_member(self, cluster: VirtualCluster, object_id: ObjectId) -> None:
        if object_id in cluster.members:
            cluster.members.remove(object_id)
        self._membership.pop(object_id, None)
        if not cluster.members:
            self._clusters.pop(cluster.cluster_id, None)
        self._write_cluster_record(cluster, cluster.reference_time)

    def _write_cluster_record(self, cluster: VirtualCluster, timestamp: float) -> None:
        """Persist the cluster summary (charged as one Location Table write)."""
        summary_record = UpdateMessage(
            object_id=f"cluster{cluster.cluster_id:08d}",
            location=cluster.center,
            velocity=cluster.velocity,
            timestamp=timestamp,
        ).as_record()
        self.location_table.add_record(f"cluster{cluster.cluster_id:08d}", summary_record)
        self.stats.cluster_writes += 1
