"""Realtime coupon targeting — the second application sketched in Section 5.

Shops submit coupons targeted at users within a radius; users keep updating
their locations and receive the coupons of nearby shops.  The matching runs
on MOIST nearest-neighbour queries with a range limit, so the example also
shows how FLAG keeps the query cost stable while the crowd density around a
shop changes.

Run with::

    python examples/realtime_coupon.py
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro import MoistConfig, MoistIndexer, Point
from repro.geometry.bbox import BoundingBox
from repro.workload.generator import RoadNetworkWorkload, WorkloadConfig


@dataclass
class Coupon:
    """A coupon offer targeted at users within ``radius`` of the shop."""

    shop_name: str
    shop_location: Point
    radius: float
    discount: str
    recipients: Set[str] = field(default_factory=set)

    def deliver(self, indexer: MoistIndexer, now: float, max_recipients: int = 50) -> List[str]:
        """Find users currently near the shop and record new recipients."""
        nearby = indexer.nearest_neighbors(
            self.shop_location, k=max_recipients, range_limit=self.radius, at_time=now
        )
        fresh = [n.object_id for n in nearby if n.object_id not in self.recipients]
        self.recipients.update(fresh)
        return fresh


def main() -> None:
    map_size = 400.0
    config = MoistConfig(
        world=BoundingBox(0.0, 0.0, map_size, map_size),
        storage_level=12,
        clustering_cell_level=2,
        deviation_threshold=15.0,
    )
    indexer = MoistIndexer(config)

    crowd = RoadNetworkWorkload(
        WorkloadConfig(
            num_objects=400,
            map_size=map_size,
            block_size=40.0,
            pedestrian_fraction=0.8,
            min_update_interval_s=1.0,
            max_update_interval_s=3.0,
            seed=23,
        )
    )

    coupons = [
        Coupon("Nine Dragons Noodles", Point(120.0, 120.0), radius=60.0, discount="20% off lunch"),
        Coupon("Corner Espresso", Point(300.0, 280.0), radius=40.0, discount="free refill"),
        Coupon("Museum of Maps", Point(200.0, 360.0), radius=80.0, discount="2-for-1 tickets"),
    ]
    deliveries: Dict[str, int] = {coupon.shop_name: 0 for coupon in coupons}

    print("Simulating 90 seconds of pedestrian traffic with coupon matching ...")
    for batch in crowd.run(duration_s=90.0, step_s=1.0):
        for message in batch:
            indexer.update(message)
        indexer.run_due_clustering(now=crowd.now)
        # Shops re-target every 10 simulated seconds.
        if int(crowd.now) % 10 == 0:
            for coupon in coupons:
                fresh = coupon.deliver(indexer, now=crowd.now)
                deliveries[coupon.shop_name] += len(fresh)

    print(f"\nIndexed {indexer.object_count} users in {indexer.school_count} schools "
          f"({indexer.shed_ratio():.1%} of location updates shed)")
    print("\nCoupon deliveries:")
    for coupon in coupons:
        print(
            f"  {coupon.shop_name:22s} ({coupon.discount:18s}) "
            f"reached {len(coupon.recipients):3d} distinct users"
        )

    if indexer.flag is not None:
        stats = indexer.flag.stats
        print(
            f"\nFLAG level tuning: {stats.lookups} lookups, "
            f"{stats.hit_ratio:.0%} served from the level cache, "
            f"{stats.probe_reads} density probes in total"
        )


if __name__ == "__main__":
    main()
