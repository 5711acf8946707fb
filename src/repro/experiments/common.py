"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Tuple

from repro.bigtable.tablet import TabletOptions
from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.baselines.no_school import build_no_school_indexer
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.workload.generator import RoadNetworkWorkload, WorkloadConfig


def dense_road_config(num_objects: int, seed: int = 3, map_size: float = 300.0) -> WorkloadConfig:
    """Road-network workload sized so school effects are visible.

    The paper's school experiments use a default population of only 100
    objects, which implies a much denser map than the 1,000 x 1,000-unit
    BigTable stress map; a 300-unit map with 30-unit blocks reproduces that
    density regime (the Figure 9 experiments).
    """
    return WorkloadConfig(
        num_objects=num_objects,
        map_size=map_size,
        block_size=map_size / 10.0,
        min_update_interval_s=1.0,
        max_update_interval_s=1.0,
        seed=seed,
    )


def school_config(
    map_size: float = 300.0,
    deviation_threshold: float = 20.0,
    velocity_threshold: float = 1.0,
    clustering_interval_s: float = 10.0,
) -> MoistConfig:
    """MOIST configuration matched to :func:`dense_road_config`."""
    return MoistConfig(
        world=BoundingBox(0.0, 0.0, map_size, map_size),
        storage_level=12,
        # A clustering cell spans half the (dense) map: the paper's school
        # experiments model bus/subway-style co-movement where one clustering
        # region covers a whole corridor of the city.
        clustering_cell_level=1,
        deviation_threshold=deviation_threshold,
        velocity_threshold=velocity_threshold,
        clustering_interval_s=clustering_interval_s,
    )


def drive_indexer(
    indexer: MoistIndexer,
    workload: RoadNetworkWorkload,
    duration_s: float,
) -> List[Tuple[float, int]]:
    """Feed a workload into an indexer and sample the school count over time.

    Returns ``(time, school_count)`` samples taken every second of
    simulation time.  Clustering runs through the indexer's
    ``run_due_clustering`` (honouring the configured interval).
    """
    samples: List[Tuple[float, int]] = []
    next_sample = 1.0
    step = 1.0
    elapsed = 0.0
    while elapsed < duration_s:
        elapsed = min(elapsed + step, duration_s)
        for message in workload.advance_to(elapsed):
            indexer.update(message)
        indexer.run_due_clustering(elapsed)
        if elapsed >= next_sample:
            samples.append((elapsed, indexer.school_count))
            next_sample += 1.0
    return samples


def uniform_leader_indexer(
    num_objects: int,
    region_size: float = 1000.0,
    storage_level: int = 12,
    seed: int = 17,
    config: Optional[MoistConfig] = None,
    tablet_options: Optional[TabletOptions] = None,
) -> MoistIndexer:
    """A no-school indexer preloaded with uniformly placed leader objects.

    This is the setup of the BigTable stress experiments (Figures 12-13):
    every object is a leader, positions and velocities are uniform in the
    region.  ``tablet_options`` tunes the storage engine (the recovery
    experiment dials the memtable flush threshold down to exercise the
    LSM flush/compaction machinery).
    """
    base = config or MoistConfig(
        world=BoundingBox(0.0, 0.0, region_size, region_size),
        storage_level=storage_level,
    )
    indexer = build_no_school_indexer(base, tablet_options=tablet_options)
    rng = random.Random(seed)
    for index in range(num_objects):
        location = Point(
            rng.uniform(0.0, region_size), rng.uniform(0.0, region_size)
        )
        velocity = Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        indexer.update(
            UpdateMessage(
                object_id=format_object_id(index),
                location=location,
                velocity=velocity,
                timestamp=0.0,
            )
        )
    # Preloading is setup, not the measured workload: reset the storage
    # accounting so experiments start from a clean ledger.
    indexer.emulator.reset_counters()
    return indexer


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty iterable)."""
    collected = list(values)
    if not collected:
        return 0.0
    return sum(collected) / len(collected)
