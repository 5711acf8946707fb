"""History archiving and mining: travel paths and points of interest.

The paper motivates history queries with route analysis and point-of-interest
mining (Sections 1, 3.5 and 6).  This example streams traffic into MOIST,
ages the data through the Location Table's disk columns into the PPP archive,
and then runs the three history workloads:

* full travel path of one object (in-memory + disk + archive),
* location-based history over a downtown region,
* "points of interest": the most visited cells of the map.

Run with::

    python examples/history_mining.py
"""

from __future__ import annotations

from repro import MoistConfig, MoistIndexer
from repro.archive.ppp import PPPArchiver
from repro.archive.sizing import optimise_disk_count
from repro.disk.model import DiskModel
from repro.geometry.bbox import BoundingBox
from repro.workload.generator import RoadNetworkWorkload, WorkloadConfig


def main() -> None:
    map_size = 300.0
    world = BoundingBox(0.0, 0.0, map_size, map_size)
    config = MoistConfig(
        world=world,
        storage_level=12,
        clustering_cell_level=2,
        deviation_threshold=15.0,
        memory_records=4,
        aging_interval_s=30.0,
    )
    archiver = PPPArchiver(num_disks=4, page_records=64, world=world)
    indexer = MoistIndexer(config, archiver=archiver)

    traffic = RoadNetworkWorkload(
        WorkloadConfig(
            num_objects=150,
            map_size=map_size,
            block_size=30.0,
            min_update_interval_s=1.0,
            max_update_interval_s=2.0,
            seed=31,
        )
    )

    print("Streaming 180 seconds of traffic and archiving aged records ...")
    for batch in traffic.run(duration_s=180.0, step_s=1.0):
        for message in batch:
            indexer.update(message)
        indexer.run_due_clustering(now=traffic.now)
        # Periodic maintenance: move aged records to disk columns / archive.
        if int(traffic.now) % 30 == 0:
            counts = indexer.archive_aged(now=traffic.now)
            if counts["archived"]:
                print(
                    f"  [t={traffic.now:5.0f}s] aged {counts['aged_to_disk']:4d} records "
                    f"to disk, archived {counts['archived']:4d} to PPP"
                )
    archiver.flush_all(now=traffic.now)

    sound, fill_time, flush_time = archiver.double_buffering_is_sound()
    print(f"\nPPP archive: {archiver.stats.records_archived} records on "
          f"{archiver.num_disks} disks in {archiver.disks.segment_count()} segments")
    print(f"  double-buffering constraint min Tm >= max Td holds: {sound} "
          f"(fill {fill_time if fill_time is not None else float('nan'):.2f}s vs flush {flush_time*1e3:.2f}ms)")

    # 1. Travel path of one object.
    object_id = "obj0000000003"
    path = indexer.object_history(object_id)
    print(f"\nTravel path of {object_id}: {len(path)} observations")
    if path:
        print(f"  first at t={path[0].timestamp:.0f}s, last at t={path[-1].timestamp:.0f}s")

    # 2. Location-based history: who passed through downtown?
    downtown = BoundingBox(100.0, 100.0, 200.0, 200.0)
    visits = indexer.region_history(downtown)
    visitors = {record.object_id for record in visits}
    print(f"\nDowntown region history: {len(visits)} archived observations "
          f"from {len(visitors)} distinct objects")
    print(f"  archive read amplification: "
          f"{archiver.stats.segments_per_query():.1f} segments touched per query")

    # 3. Points of interest: most visited cells.
    print("\nTop visited cells (points of interest):")
    for entry in indexer.history.popular_cells(level=5, top_n=5):
        box = entry["cell"].to_box(world)
        center = box.center()
        print(f"  around ({center.x:5.1f}, {center.y:5.1f})  {entry['visits']:5d} visits")

    # Bonus: what the Section 3.6.2 sizing model recommends for this load.
    sizing = optimise_disk_count(
        DiskModel(),
        buffer_bytes=archiver.buffer_bytes(),
        num_objects=indexer.object_count,
        fill_time_s=30.0,
        k=50.0,
        max_disks=32,
    )
    print(f"\nSection 3.6.2 sizing: best disk count nd = {sizing.num_disks} "
          f"({sizing.binding}-bound, min(Ud, Rd) = {sizing.objective:.3f})")


if __name__ == "__main__":
    main()
