"""Realtime transit (Bus Alert) on top of MOIST — the application of Section 5.

The paper's first deployed application tracks ~5,000 buses, each updating its
GPS position twice a minute, and lets users (1) query a bus' location,
(2) browse all buses nearby and (3) set an alarm that fires when a selected
bus approaches.  This example reproduces that scenario at a smaller scale on
the synthetic road network.

Run with::

    python examples/bus_alert.py
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import MoistConfig, MoistIndexer, Point
from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.workload.generator import RoadNetworkWorkload, WorkloadConfig


@dataclass
class BusAlert:
    """An alarm that fires when a bus comes within ``radius`` of a stop."""

    bus_id: str
    stop: Point
    radius: float
    fired_at: Optional[float] = None

    def check(self, indexer: MoistIndexer, now: float) -> bool:
        """Fire (once) when the bus' estimated location reaches the stop."""
        if self.fired_at is not None:
            return False
        try:
            location = indexer.location_of(self.bus_id, at_time=now)
        except QueryError:
            # The bus has not sent its first GPS fix yet.
            return False
        if location.distance_to(self.stop) <= self.radius:
            self.fired_at = now
            return True
        return False


def main() -> None:
    map_size = 500.0
    config = MoistConfig(
        world=BoundingBox(0.0, 0.0, map_size, map_size),
        storage_level=12,
        clustering_cell_level=2,
        deviation_threshold=15.0,
    )
    indexer = MoistIndexer(config)

    # 300 buses driving the road network; the workload emits one noisy GPS
    # fix per bus roughly every 2 simulated seconds (scaled down from the
    # paper's twice-a-minute so the example finishes quickly).
    fleet = RoadNetworkWorkload(
        WorkloadConfig(
            num_objects=300,
            map_size=map_size,
            block_size=50.0,
            pedestrian_fraction=0.0,
            min_update_interval_s=2.0,
            max_update_interval_s=2.0,
            seed=11,
        )
    )

    # A user waits at a stop in the middle of the map for a specific bus.
    stop = Point(map_size / 2, map_size / 2)
    watched_bus = "obj0000000042"
    alert = BusAlert(bus_id=watched_bus, stop=stop, radius=60.0)
    fired_alerts: List[float] = []

    print("Simulating 120 seconds of bus traffic ...")
    for batch in fleet.run(duration_s=120.0, step_s=1.0):
        for message in batch:
            indexer.update(message)
        indexer.run_due_clustering(now=fleet.now)
        if alert.check(indexer, now=fleet.now):
            fired_alerts.append(fleet.now)
            print(f"  [t={fleet.now:5.0f}s] ALERT: bus {watched_bus} is approaching the stop!")

    print(f"\nIndexed {indexer.object_count} buses in {indexer.school_count} schools "
          f"({indexer.shed_ratio():.1%} of GPS fixes shed)")

    print(f"\nBuses within 100 m of the stop at t={fleet.now:.0f}s:")
    nearby = indexer.nearest_neighbors(stop, k=10, range_limit=100.0, at_time=fleet.now)
    if not nearby:
        print("  (none right now)")
    for neighbor in nearby:
        print(f"  {neighbor.object_id}  {neighbor.distance:6.1f} m away")

    print(f"\nWatched bus {watched_bus}:")
    location = indexer.location_of(watched_bus, at_time=fleet.now)
    print(f"  current estimated position ({location.x:.1f}, {location.y:.1f})")
    if alert.fired_at is not None:
        print(f"  alert fired at t={alert.fired_at:.0f}s")
    else:
        print("  alert never fired (the bus stayed away from the stop)")

    trajectory = indexer.object_history(watched_bus)
    print(f"  {len(trajectory)} trajectory points available for path rendering")


if __name__ == "__main__":
    main()
