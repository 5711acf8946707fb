"""Quickstart: index a small population of moving objects with MOIST.

Run with::

    python examples/quickstart.py

The script builds a MOIST indexer, streams a minute of road-network traffic
into it, runs the periodic school clustering, and then issues the three query
kinds the paper targets: nearest-neighbour, current-location and history.
"""

from __future__ import annotations

from repro import MoistConfig, MoistIndexer, Point
from repro.geometry.bbox import BoundingBox
from repro.workload.generator import RoadNetworkWorkload, WorkloadConfig


def main() -> None:
    map_size = 300.0
    config = MoistConfig(
        world=BoundingBox(0.0, 0.0, map_size, map_size),
        storage_level=12,
        clustering_cell_level=1,
        deviation_threshold=20.0,
    )
    indexer = MoistIndexer(config)

    workload = RoadNetworkWorkload(
        WorkloadConfig(
            num_objects=200,
            map_size=map_size,
            block_size=30.0,
            min_update_interval_s=1.0,
            max_update_interval_s=1.0,
            seed=7,
        )
    )

    print("Streaming 60 seconds of road-network traffic ...")
    for batch in workload.run(duration_s=60.0, step_s=1.0):
        for message in batch:
            indexer.update(message)
        indexer.run_due_clustering(now=workload.now)

    stats = indexer.update_stats
    print(f"  updates processed : {stats.total}")
    print(f"  updates shed      : {stats.shed} ({indexer.shed_ratio():.1%})")
    print(f"  object schools    : {indexer.school_count} for {indexer.object_count} objects")
    print(f"  simulated storage : {indexer.simulated_seconds * 1e3:.1f} ms")

    center = Point(map_size / 2, map_size / 2)
    print(f"\n5 nearest objects around {center.as_tuple()}:")
    for neighbor in indexer.nearest_neighbors(center, k=5):
        role = "leader" if neighbor.is_leader else f"follower of {neighbor.leader_id}"
        print(
            f"  {neighbor.object_id}  at ({neighbor.location.x:6.1f}, "
            f"{neighbor.location.y:6.1f})  distance {neighbor.distance:6.1f}  [{role}]"
        )

    sample_id = "obj0000000000"
    print(f"\nCurrent (estimated) location of {sample_id}: ", end="")
    location = indexer.location_of(sample_id, at_time=workload.now)
    print(f"({location.x:.1f}, {location.y:.1f})")

    history = indexer.object_history(sample_id)
    print(f"History records stored for {sample_id}: {len(history)}")
    if history:
        first, last = history[0], history[-1]
        print(
            f"  from t={first.timestamp:.0f}s ({first.location.x:.1f}, {first.location.y:.1f}) "
            f"to t={last.timestamp:.0f}s ({last.location.x:.1f}, {last.location.y:.1f})"
        )


if __name__ == "__main__":
    main()
