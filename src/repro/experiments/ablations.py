"""Ablations of the MOIST design choices the paper asserts qualitatively.

* Hilbert vs Z-order curve: scan locality of the Spatial Index Table keys.
* Hexagonal vs square velocity partition: how tightly each respects the
  intra-school velocity bound Δm and how many schools each produces.
* FLAG cache on/off: probe reads saved by Algorithm 4.
* PPP placement with/without the initial-location component: disk segments
  touched by object- and region-history queries.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.archive.ppp import ArchiveStats, PPPArchiver
from repro.core.flag import FlagTuner
from repro.core.hexgrid import HexGrid
from repro.experiments.common import uniform_leader_indexer
from repro.experiments.report import FigureResult
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import HistoryRecord, format_object_id
from repro.spatial.hilbert import hilbert_index
from repro.spatial.zcurve import z_index


# ----------------------------------------------------------------------
# Hilbert vs Z-order locality
# ----------------------------------------------------------------------
def curve_locality_score(
    level: int, encoder, block: int = 4, samples: int = 200, seed: int = 5
) -> float:
    """Mean number of contiguous key runs needed to cover a square block.

    Each run corresponds to one BigTable range scan, so fewer runs means a
    neighbourhood query touches fewer scan RPCs.  Lower is better.
    """
    rng = random.Random(seed)
    side = 1 << level
    total = 0.0
    for _ in range(samples):
        x0 = rng.randrange(side - block)
        y0 = rng.randrange(side - block)
        keys = sorted(
            encoder(level, x, y)
            for x in range(x0, x0 + block)
            for y in range(y0, y0 + block)
        )
        runs = 1 + sum(1 for a, b in zip(keys, keys[1:]) if b != a + 1)
        total += runs
    return total / samples


def run_curve_ablation(levels: Sequence[int] = (6, 8, 10)) -> FigureResult:
    """Hilbert vs Z-order scan locality across curve levels."""
    result = FigureResult(
        figure_id="ablation-curve",
        title="Space-filling curve locality (range scans per 4x4 block)",
        x_label="curve level",
        y_label="mean scan runs",
    )
    hilbert_scores = [curve_locality_score(level, hilbert_index) for level in levels]
    z_scores = [curve_locality_score(level, z_index) for level in levels]
    result.add_series("Hilbert", list(levels), hilbert_scores)
    result.add_series("Z-order", list(levels), z_scores)
    result.add_note("lower is better; the paper cites Hilbert's slight edge (Sec. 3.2.1)")
    return result


# ----------------------------------------------------------------------
# Hexagonal vs square velocity partition
# ----------------------------------------------------------------------
def run_velocity_partition_ablation(
    max_deviation: float = 1.0, samples: int = 2000, seed: int = 5
) -> FigureResult:
    """Hexagonal vs square binning of the velocity space.

    Measures (i) the worst observed intra-bin velocity deviation relative to
    Δm and (ii) the number of occupied bins for the same velocity sample —
    the trade-off the paper's hexagon choice optimises.
    """
    rng = random.Random(seed)
    # Sample a velocity domain much larger than one bin so interior bins
    # dominate the count (boundary bins would otherwise favour whichever
    # partition happens to align with the sampling box).
    velocities = [
        Vector(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(samples)
    ]
    hexgrid = HexGrid(max_deviation=max_deviation)

    def square_bin(velocity: Vector) -> Tuple[int, int]:
        # A square with diagonal Δm has side Δm / sqrt(2).
        side = max_deviation / (2 ** 0.5)
        return (int(velocity.dx // side), int(velocity.dy // side))

    def evaluate(bin_function) -> Tuple[float, int]:
        bins = {}
        for velocity in velocities:
            bins.setdefault(bin_function(velocity), []).append(velocity)
        worst = 0.0
        for members in bins.values():
            for i, first in enumerate(members):
                for second in members[i + 1:]:
                    worst = max(worst, first.distance_to(second))
        return worst, len(bins)

    hex_worst, hex_bins = evaluate(hexgrid.bin_of)
    square_worst, square_bins = evaluate(square_bin)
    result = FigureResult(
        figure_id="ablation-velocity-partition",
        title="Velocity-space partition: hexagons vs squares",
        x_label="metric",
        y_label="value",
    )
    result.add_series("hexagon", [0, 1], [hex_worst, float(hex_bins)])
    result.add_series("square", [0, 1], [square_worst, float(square_bins)])
    result.add_note("metric 0 = worst intra-bin deviation (must stay <= Δm), metric 1 = #occupied bins")
    return result


# ----------------------------------------------------------------------
# FLAG cache
# ----------------------------------------------------------------------
def run_flag_cache_ablation(
    num_objects: int = 20000, queries: int = 200, seed: int = 5
) -> FigureResult:
    """Probe reads with and without the Algorithm 4 level cache."""
    indexer = uniform_leader_indexer(num_objects, seed=seed)
    rng = random.Random(seed)
    locations = [
        Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)) for _ in range(queries)
    ]

    cached = FlagTuner(indexer.config, indexer.spatial_table, total_objects_hint=num_objects)
    for index, location in enumerate(locations):
        cached.best_level(location, now=float(index))
    uncached = FlagTuner(indexer.config, indexer.spatial_table, total_objects_hint=num_objects)
    for location in locations:
        uncached.compute_level(location)

    result = FigureResult(
        figure_id="ablation-flag-cache",
        title="FLAG level cache: density-probe reads per query",
        x_label="metric",
        y_label="value",
    )
    result.add_series(
        "with cache", [0, 1], [cached.stats.probe_reads / queries, cached.stats.hit_ratio]
    )
    result.add_series(
        "without cache", [0, 1], [uncached.stats.probe_reads / queries, 0.0]
    )
    result.add_note("metric 0 = probe reads per query, metric 1 = cache hit ratio")
    return result


# ----------------------------------------------------------------------
# Shedding: object schools vs single-object dead reckoning
# ----------------------------------------------------------------------
def run_shedding_ablation(
    num_objects: int = 300,
    duration_s: float = 60.0,
    tolerance: float = 20.0,
    seed: int = 3,
) -> FigureResult:
    """Compare MOIST's cross-object shedding with per-object dead reckoning.

    Both shed updates within the same error tolerance; the comparison shows
    (i) how much each sheds and (ii) how many objects remain in the spatial
    index — schools additionally collapse the index to one leader per school,
    which is what speeds NN queries up (Figure 11's argument).
    """
    from repro.baselines.dead_reckoning import DeadReckoningIndex
    from repro.core.moist import MoistIndexer
    from repro.experiments.common import dense_road_config, school_config
    from repro.workload.generator import RoadNetworkWorkload

    config = school_config(deviation_threshold=tolerance)
    workload_config = dense_road_config(num_objects, seed=seed)

    moist = MoistIndexer(config)
    moist_workload = RoadNetworkWorkload(workload_config)
    elapsed = 0.0
    while elapsed < duration_s:
        elapsed += 1.0
        for message in moist_workload.advance_to(elapsed):
            moist.update(message)
        moist.run_due_clustering(elapsed)

    dead_reckoning = DeadReckoningIndex(config, tolerance=tolerance)
    dr_workload = RoadNetworkWorkload(workload_config)
    elapsed = 0.0
    while elapsed < duration_s:
        elapsed += 1.0
        for message in dr_workload.advance_to(elapsed):
            dead_reckoning.update(message)

    result = FigureResult(
        figure_id="ablation-shedding",
        title="Shedding: object schools vs per-object dead reckoning",
        x_label="metric",
        y_label="value",
    )
    result.add_series(
        "object schools (MOIST)",
        [0, 1],
        [moist.shed_ratio(), float(moist.school_count)],
    )
    result.add_series(
        "dead reckoning",
        [0, 1],
        [dead_reckoning.stats.shed_ratio, float(dead_reckoning.indexed_objects)],
    )
    result.add_note(
        "metric 0 = shed ratio, metric 1 = rows in the spatial index "
        "(schools vs every object); same error tolerance for both"
    )
    return result


# ----------------------------------------------------------------------
# PPP placement
# ----------------------------------------------------------------------
def _archive_synthetic_history(
    use_initial_location: bool,
    num_objects: int,
    records_per_object: int,
    num_disks: int,
    seed: int,
) -> PPPArchiver:
    rng = random.Random(seed)
    world = BoundingBox(0.0, 0.0, 1000.0, 1000.0)
    archiver = PPPArchiver(
        num_disks=num_disks,
        page_records=64,
        world=world,
        use_initial_location=use_initial_location,
    )
    starts: List[Point] = []
    for index in range(num_objects):
        start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        starts.append(start)
        archiver.register_object(format_object_id(index), start)
    for step in range(records_per_object):
        for index in range(num_objects):
            drift = Vector(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            location = world.clamp_point(starts[index].displaced(drift.scaled(step)))
            archiver.archive(
                HistoryRecord(
                    object_id=format_object_id(index),
                    location=location,
                    velocity=drift,
                    timestamp=float(step),
                ),
                now=float(step),
            )
    archiver.flush_all(now=float(records_per_object))
    return archiver


def run_placement_ablation(
    num_objects: int = 200,
    records_per_object: int = 30,
    num_disks: int = 8,
    queries: int = 50,
    seed: int = 5,
) -> FigureResult:
    """Disk segments touched per history query, with and without the
    initial-location component of the placement hash."""
    result = FigureResult(
        figure_id="ablation-placement",
        title="PPP placement: segments touched per history query",
        x_label="metric",
        y_label="segments per query",
    )
    rng = random.Random(seed)
    query_regions = [
        BoundingBox.from_center(
            Point(rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0)), 50.0, 50.0
        )
        for _ in range(queries)
    ]
    for label, use_location in (("object+location hash", True), ("object-only hash", False)):
        archiver = _archive_synthetic_history(
            use_location, num_objects, records_per_object, num_disks, seed
        )
        for index in range(queries):
            archiver.object_history(format_object_id(index % num_objects))
        object_segments = archiver.stats.segments_per_query()
        archiver.stats = ArchiveStats()  # fresh counters for the second query shape
        for region in query_regions:
            archiver.region_history(region)
        region_segments = archiver.stats.segments_per_query()
        result.add_series(label, [0, 1], [object_segments, region_segments])
    result.add_note("metric 0 = object-history queries, metric 1 = region-history queries")
    return result
